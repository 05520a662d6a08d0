"""Exact fraction-free elimination (Bareiss 1968).

Works for both rationals and rational functions.  Each row of exact scalars
is first scaled into a ring with exact division (`scalar.ring_rows`):
Python ints for rationals, integer polynomials in the parameter symbols
otherwise.  `IntegerRows` are in that ring already and are eliminated as
they are.  The elimination then stays in the ring: each update
(p*x - f*y) // prev, with p the current pivot and prev the previous one,
divides exactly by Sylvester's identity, so no step needs a gcd.

`rank` is forward-only: it updates the rows below each pivot and never the
rows above.  `nullspace` and `solve` run the full Gauss-Jordan loop; at its
end every pivot holds the same value D, and each entry of the reduced row
echelon form that is needed is normalised once, as a/D.  Pivoting is
deterministic (first nonzero entry in column order), the same pivots a
field elimination picks, and the reduced row echelon form is unique, so
kernels, primitives and reports are the same as from division in the field.

`echelon_mod` and `rank_mod` eliminate integer rows forward modulo
`PRIME`, the largest prime below 2^24, on packed rows: one Python int per
row, one 64-bit slot per column, so that a row update is one bigint
multiply-add.  Slots are reduced only when read; each update adds less
than 2^48 and a row takes fewer than 2^14 of them, so no carry crosses a
slot.  A modular rank never decides a rank on its own: an integer matrix
has rank modulo p at most its rank over Q, so it proves an exact rank only
against an upper bound, such as the one that d_w o d_w = 0 puts on
neighbouring ranks (`hodge.TwistedComplex`).
"""

from __future__ import annotations

from array import array
from math import gcd

from .scalar import ring_rows


class IntegerRows(list):
    """Rows of Python ints, eliminated without scaling.

    `nullspace` gives their kernel as primitive integer vectors: each is the
    reduced kernel vector times D, divided by the gcd of its entries, so the
    entry at its free column is positive.
    """


def _rref(rows: list[list], ncols: int, above: bool = True):
    """Fraction-free elimination over the first ncols columns.

    With `above` False only the rows below each pivot are updated.  Returns
    the ring rows, the pivot columns, the last pivot value D and
    `quotient`: after the full loop entry (i, j) of the reduced row echelon
    form is quotient(work[i][j], D).
    """
    if isinstance(rows, IntegerRows):
        work, prev, quotient = list(rows), 1, None  # rows are replaced, never changed
    else:
        work, prev, quotient = ring_rows(rows)  # prev starts as the ring's one
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        row = work[r]
        p = row[c]
        for i in range(0 if above else r + 1, len(work)):
            if i != r:
                f = work[i][c]
                if f:
                    work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], row)]
                else:
                    work[i] = [p * x // prev for x in work[i]]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots, prev, quotient


def rank(rows: list[list], ncols: int) -> int:
    return len(_rref(rows, ncols, above=False)[1])


PRIME = 16777213  # the largest prime below 2^24
_SLOT = (1 << 64) - 1


def _pack(values: list[int], width: int) -> list[int]:
    """Values below 2^64 in 64-bit slots, `width` per Python int, the first lowest."""
    data = array("Q", values).tobytes()
    step = 8 * width
    return [int.from_bytes(data[k : k + step], "little") for k in range(0, len(data), step)]


def echelon_mod(rows: list[list[int]], ncols: int, base: dict | None = None) -> dict[int, int]:
    """Pivot rows modulo `PRIME` of integer rows of length ncols, by pivot column.

    Forward elimination only.  Each row is one Python int holding its
    entries in 64-bit slots, the current column lowest, so a row update is
    one bigint multiply-add, row + f * pivot_row.  A pivot row is re-packed
    once, from its pivot column on: each slot reduced modulo p and scaled
    so that the pivot is p - 1, which makes the update with f, the other
    row's entry modulo p, clear the column.  Other slots are reduced only
    when read, and every row drops its lowest slot when its column is done.
    `base`, pivot rows returned for other rows over the same columns, is
    used first and included in the result, which then is the echelon of
    all the rows together.

    No carry crosses a slot: a slot starts below p, each update adds less
    than p^2 < 2^48, and a row takes at most one update per pivot, so at
    most C(16, 8) = 12,870 < 2^14 of them in a complex on MAX_GENERATORS =
    16 generators; 2^24 + 2^14 * 2^48 < 2^64.
    """
    p = PRIME
    pivots = dict(base or {})
    work = _pack([x % p for row in rows for x in row], ncols) if ncols else []
    for c in range(ncols):
        if not work:
            break
        entries = [(row & _SLOT) % p for row in work]
        pivot = pivots.get(c)
        if pivot is None:
            for k, f in enumerate(entries):
                if f:
                    break
            else:
                work = [row >> 64 for row in work]
                continue
            scale = p - pow(f, -1, p)
            slots = array("Q", work[k].to_bytes(8 * (ncols - c), "little"))
            pivot = pivots[c] = _pack([x % p * scale % p for x in slots], ncols - c)[0]
            del work[k], entries[k]
        work = [(row + f * pivot if f else row) >> 64 for row, f in zip(work, entries)]
    return pivots


def rank_mod(rows: list[list[int]], ncols: int) -> int:
    """Rank modulo `PRIME` of integer rows of length ncols (`echelon_mod`)."""
    return len(echelon_mod(rows, ncols))


def nullspace(rows: list[list], ncols: int) -> list[list]:
    """Kernel basis: one vector per free column.

    For scalar rows each vector has a unit entry at its free column; for
    `IntegerRows` it is primitive, with a positive entry there.
    """
    work, pivots, pv, quotient = _rref(rows, ncols)
    pivot_set = set(pivots)
    if quotient is not None:
        zero, one = quotient(pv - pv, pv), quotient(pv, pv)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        if quotient is None:
            vec = [0] * ncols
            vec[free] = pv
            for r, pc in enumerate(pivots):
                vec[pc] = -work[r][free]
            g = gcd(*vec) if pv > 0 else -gcd(*vec)
            vec = [x // g for x in vec]
        else:
            vec = [zero] * ncols
            vec[free] = one
            for r, pc in enumerate(pivots):
                if work[r][free]:
                    vec[pc] = -quotient(work[r][free], pv)
        basis.append(vec)
    return basis


def solve(rows: list[list], rhs: list, ncols: int):
    """One exact solution of rows * x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    work, pivots, pv, quotient = _rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    for r in range(len(pivots), len(work)):
        if work[r][ncols]:
            return None
    x = [quotient(pv - pv, pv)] * ncols
    for r, pc in enumerate(pivots):
        if work[r][ncols]:
            x[pc] = quotient(work[r][ncols], pv)
    return x

