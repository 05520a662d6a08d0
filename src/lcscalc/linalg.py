"""Exact Gaussian elimination over a field of exact scalars.

Works for both rationals and rational functions: entries only need the
ring operations, exact division and an exact zero test.  Pivoting is
deterministic (first nonzero entry in column order), which downstream code
relies on for reproducible kernels, primitives and reports.
"""

from __future__ import annotations


def _rref(rows: list[list], ncols: int):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows: list[list], ncols: int) -> int:
    if not rows:
        return 0
    work = [list(r) for r in rows]
    return len(_rref(work, ncols))


def nullspace(rows: list[list], ncols: int, zero, one) -> list[list]:
    """Kernel basis: one vector per free column, unit entry at that column."""
    work = [list(r) for r in rows]
    pivots = _rref(work, ncols) if work else []
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for r, pc in enumerate(pivots):
            if work[r][free]:
                vec[pc] = -work[r][free]
        basis.append(vec)
    return basis


def solve(rows: list[list], rhs: list, ncols: int, zero):
    """One exact solution of rows * x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _rref(work, ncols) if work else []
    for r in range(len(pivots), len(work)):
        if work[r][ncols]:
            return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][ncols]
    return x


def operator_matrix(images: list, target_monomials: list, zero) -> list[list]:
    """Matrix of a linear map from the list of basis images.

    Row i, column j holds the coefficient of target monomial i in the image
    of source element j.
    """
    return [
        [img.coefficient(mono) or zero for img in images]
        for mono in target_monomials
    ]

