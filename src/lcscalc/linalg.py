"""Exact fraction-free elimination, one row at a time.

Works for both rationals and rational functions.  Each row of exact scalars
is first scaled into a ring with exact division (`scalar.ring_rows`):
Python ints for rationals, integer polynomials in the parameter symbols
otherwise.  `IntegerRows` are in that ring already and are eliminated as
they are.

`_rref` takes the rows in order and keeps the pivot rows found so far in
reduced form: each holds the common value D at its own pivot column and 0
at every other pivot column.  A new row v becomes w = D*v - sum v[c_i]*R_i
over the pivot rows R_i with pivot column c_i; its entries are minors of
the rows read, so nothing is divided.  A zero w is dropped: a dependent
row costs one multiply-subtract per pivot row and no division.  Otherwise
w's first nonzero column c is a new pivot with value q: every pivot row
becomes (q*R_i - R_i[c]*w) / D, exact by Sylvester's identity (Bareiss
1968), and D becomes q.  Only pivot rows are ever divided.  The loop stops
once every column has a pivot; `solve` then checks each further row on its
right-hand side alone.  At the end each entry of the reduced row echelon
form that is needed is normalised once, as a/D.  Each pivot is the first
nonzero column of a vector in the row space, and the pivots are distinct
and as many as the rank, so they are the leading columns of the row
space, the pivots a field elimination picks.  The reduced row echelon
form is unique, so kernels, primitives and reports are the same as from
division in the field, in whatever order the pivots arrive.

`echelon_mod` eliminates integer rows forward modulo `PRIME`, the largest
prime below 2^24, on packed rows: one Python int per row, one 64-bit slot
per column, so that a row update is one bigint multiply-add.  Slots are
reduced only when read; each update adds less than 2^48 and a row takes
fewer than 2^14 of them, so no carry crosses a slot.  A modular rank never
decides a rank on its own: an integer matrix has rank modulo p at most its
rank over Q, so it proves an exact rank only against an upper bound, such
as the one that d_w o d_w = 0 puts on neighbouring ranks
(`hodge.TwistedComplex`).
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


def _rref(rows: list[list], ncols: int):
    """Fraction-free reduced row echelon form over the first ncols columns, row by row.

    Returns the pivot rows, their pivot columns in the order they were
    found, the common pivot value D and `quotient`: pivot row i is D times
    the row of the reduced row echelon form with its pivot at column
    pivots[i], so that row's entry j is quotient(basis[i][j], D).  Entries
    past column ncols, a right-hand side, are carried along; the result is
    None when a row reduces to zero on the first ncols columns but not
    past them.
    """
    if isinstance(rows, IntegerRows):
        work, d, quotient = rows, 1, None  # rows are read, never changed
    else:
        work, d, quotient = ring_rows(rows)  # d starts as the ring's one
    basis, pivots = [], []
    for v in work:
        if len(pivots) == ncols:
            if len(v) == ncols:
                break
            # full column rank: only the entries past ncols are left to check
            for j in range(ncols, len(v)):
                t = d * v[j]
                for c, row in zip(pivots, basis):
                    if v[c]:
                        t = t - v[c] * row[j]
                if t:
                    return None
            continue
        w = v
        if pivots:
            w = [d * x if x else x for x in v]
            for c, row in zip(pivots, basis):
                f = v[c]
                if f:
                    w = [a - f * b if b else a for a, b in zip(w, row)]
        for c, x in enumerate(w):
            if x:
                break
        else:
            continue
        if c >= ncols:
            return None
        q = w[c]
        for i, row in enumerate(basis):
            f = row[c]
            if f:
                basis[i] = [(q * a - f * b) // d if b else q * a // d if a else a
                            for a, b in zip(row, w)]
            else:
                basis[i] = [q * a // d if a else a for a in row]
        basis.append(w)
        pivots.append(c)
        d = q
    return basis, pivots, d, quotient


def rank(rows: list[list], ncols: int) -> int:
    return len(_rref(rows, ncols)[1])


PRIME = 16777213  # the largest prime below 2^24
_SLOT = (1 << 64) - 1


def _pack(values: list[int], width: int) -> list[int]:
    """Values below 2^64 in 64-bit slots, `width` per Python int, the first lowest."""
    data = array("Q", values).tobytes()
    step = 8 * width
    return [int.from_bytes(data[k : k + step], "little") for k in range(0, len(data), step)]


def echelon_mod(rows: list[list[int]], ncols: int) -> dict[int, int]:
    """Pivot rows modulo `PRIME` of integer rows of length ncols, by pivot column.

    Forward elimination only.  Each row is one Python int holding its
    entries in 64-bit slots, the current column lowest, so a row update is
    one bigint multiply-add, row + f * pivot_row.  A pivot row is re-packed
    once, from its pivot column on: each slot reduced modulo p and scaled
    so that the pivot is p - 1, which makes the update with f, the other
    row's entry modulo p, clear the column.  Other slots are reduced only
    when read, and every row drops its lowest slot when its column is done.
    The rank modulo p is the number of pivot rows.

    No carry crosses a slot: a slot starts below p, each update adds less
    than p^2 < 2^48, and a row takes at most one update per pivot, so at
    most C(16, 8) = 12,870 < 2^14 of them in a complex on MAX_GENERATORS =
    16 generators; 2^24 + 2^14 * 2^48 < 2^64.
    """
    p = PRIME
    pivots = {}
    work = _pack([x % p for row in rows for x in row], ncols) if ncols else []
    for c in range(ncols):
        if not work:
            break
        entries = [(row & _SLOT) % p for row in work]
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
    reduced = _rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if reduced is None:
        return None
    work, pivots, pv, quotient = reduced
    x = [quotient(pv - pv, pv)] * ncols
    for r, pc in enumerate(pivots):
        if work[r][ncols]:
            x[pc] = quotient(work[r][ncols], pv)
    return x

