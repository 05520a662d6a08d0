"""rank, rank_mod, nullspace and solve against independent references.

Rational matrices are checked against the Fraction row reduction in
`helpers.py`, modular ranks against a list elimination there; matrices of
rational functions against sympy's reduced row echelon form over QQ(n, k)
(test-only oracle, skipped without sympy).
Results must agree entry by entry and keep the scalar type of the mode.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fraction_nullspace, fraction_solve, mod_rank, rref_rank
from lcscalc import linalg
from lcscalc.errors import MixedModes
from lcscalc.linalg import IntegerRows, echelon_mod, nullspace, rank, rank_mod, solve
from lcscalc.scalar import ParamScalar, ScalarMode, parse_scalar

ZERO, ONE = Fraction(0), Fraction(1)

small = st.integers(min_value=-9, max_value=9)
rationals = st.one_of(
    st.just(ZERO),
    small.map(Fraction),
    st.builds(Fraction, small, st.integers(min_value=1, max_value=9)),
    # entries near 10^30 / 7^20, whose minors overflow any machine word
    st.builds(lambda a, b: Fraction(10**30 + a, 7**20 + b), small, small),
)


def _product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), start=0 * ONE) for col in zip(*b)] for row in a]


@st.composite
def matrices(draw, entries, max_rows, max_cols, min_size=0):
    """A dense matrix, a rank-deficient product, or either with zero rows."""
    nrows = draw(st.integers(min_value=min_size, max_value=max_rows))
    ncols = draw(st.integers(min_value=min_size, max_value=max_cols))
    if draw(st.booleans()):
        inner = draw(st.integers(min_value=0, max_value=max(min(nrows, ncols) - 1, 0)))
        left = [[draw(entries) for _ in range(inner)] for _ in range(nrows)]
        right = [[draw(entries) for _ in range(ncols)] for _ in range(inner)]
        rows = _product(left, right) if inner else [[ZERO] * ncols for _ in range(nrows)]
    else:
        rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            rows[i] = [ZERO * x for x in rows[i]]
    return rows, ncols


@st.composite
def systems(draw, entries, max_rows, max_cols, min_size=0):
    """A matrix with a consistent (rows * x) or an arbitrary right-hand side."""
    rows, ncols = draw(matrices(entries, max_rows, max_cols, min_size))
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), start=0 * ONE) for row in rows]
        return rows, rhs, ncols, True
    return rows, [draw(entries) for _ in rows], ncols, False


def _all(vectors, kind) -> bool:
    return all(type(x) is kind for vec in vectors for x in vec)


@given(matrices(rationals, 8, 8))
def test_rank_and_kernel_match_fraction_elimination(case):
    rows, ncols = case
    assert rank(rows, ncols) == rref_rank(rows)
    kernel = nullspace(rows, ncols)
    assert kernel == fraction_nullspace(rows, ncols)
    assert _all(kernel, Fraction)


# integers, some beyond any machine word
integers = st.one_of(small, st.integers(min_value=10**30, max_value=10**30 + 9)).map(Fraction)


@given(matrices(integers, 8, 8))
def test_integer_rows_give_the_rank_and_primitive_kernels(case):
    """On IntegerRows the kernel vectors are the reduced ones times a positive integer, gcd 1."""
    rows, ncols = case
    ints = IntegerRows([int(x) for x in row] for row in rows)
    assert rank(ints, ncols) == rref_rank(rows)
    kernel = nullspace(ints, ncols)
    assert _all(kernel, int)
    reduced = fraction_nullspace(rows, ncols)
    assert len(kernel) == len(reduced)
    for vec, unit in zip(kernel, reduced):
        free = max(i for i, x in enumerate(unit) if x)
        assert vec[free] > 0 and math.gcd(*vec) == 1
        assert [Fraction(x, vec[free]) for x in vec] == unit


# negative entries, entries beyond 2^64 and multiples of the prime, which vanish modulo it
residues = st.one_of(
    small,
    st.integers(min_value=-(2**70), max_value=2**70),
    small.map(lambda x: x * linalg.PRIME),
).map(Fraction)


@given(
    matrices(residues, 8, 8),
    st.sampled_from([2, 3, linalg.PRIME]),
    st.integers(min_value=0, max_value=8),
)
def test_rank_mod_matches_a_list_elimination_and_bounds_the_rank(case, prime, split):
    """Packed rows give the rank of an elimination on lists, never above the rank over Q.

    The echelon of the first rows, passed on as `base`, gives the rank of all of them.
    """
    rows, ncols = case
    ints = [[int(x) for x in row] for row in rows]
    with mock.patch.object(linalg, "PRIME", prime):
        got = rank_mod(ints, ncols)
        joined = echelon_mod(ints[split:], ncols, echelon_mod(ints[:split], ncols))
    assert got == mod_rank(ints, ncols, prime) == len(joined)
    assert got <= rref_rank(rows)


def test_rank_mod_of_one_column_and_of_zero_rows():
    assert rank_mod([[0], [-linalg.PRIME], [2**64 + 5]], 1) == 1
    assert rank_mod([[0], [linalg.PRIME * 2**70]], 1) == 0
    assert rank_mod([[0, 0, 0], [0, 0, 0]], 3) == 0
    assert rank_mod([], 3) == 0 and rank_mod([[], []], 0) == 0


@given(systems(rationals, 8, 8))
def test_solve_matches_fraction_elimination(case):
    rows, rhs, ncols, consistent = case
    x = solve(rows, rhs, ncols)
    assert x == fraction_solve(rows, rhs, ncols)
    if consistent:
        assert x is not None and _all([x], Fraction)


def test_inconsistent_and_empty_systems():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve(rows, [Fraction(1), Fraction(3)], 2) is None
    assert solve(rows, [Fraction(1), Fraction(2)], 2) == [1, 0]
    assert solve([], [], 3) == [0, 0, 0]
    assert rank([], 3) == 0 and rank([[], []], 0) == 0
    assert nullspace([], 2) == [[1, 0], [0, 1]]


def test_mixed_parameter_sets_are_refused():
    a = ScalarMode.params("n").symbol("n")
    b = ScalarMode.params("k").symbol("k")
    with pytest.raises(MixedModes):
        rank([[a, b]], 2)


# ---------------------------------------------------------------------------
# parameter mode against sympy
# ---------------------------------------------------------------------------

NAMES = ("n", "k")
MODE = ScalarMode.params(*NAMES)
PARAM_TEXTS = ["0", "1", "-2", "n", "k", "n*k - 1", "1/(n + k)", "(n - 2*k)/3",
               "k/(n - 1)", "n^2/(k + 2)", "-1/(2*k)"]
params = st.one_of(
    st.sampled_from([parse_scalar(t, MODE) for t in PARAM_TEXTS]),
    # a stray Fraction in a parameter row counts as a constant
    st.sampled_from([ZERO, Fraction(3, 2), Fraction(-5)]),
)


def _to_sympy(sympy, gens, x):
    if not isinstance(x, ParamScalar):
        return sympy.Rational(x.numerator, x.denominator)

    def poly(p):
        return sympy.Add(*(c * sympy.Mul(*(g**e for g, e in zip(gens, exps)))
                           for exps, c in p.items()))

    return poly(x.num) / poly(x.den)


@given(systems(params, 4, 4, min_size=1))
def test_parameter_mode_matches_sympy_rref(case):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows, rhs, ncols, consistent = case
    rows[0][0] = MODE.coerce(rows[0][0])  # at least one entry in parameter mode
    gens = sympy.symbols(NAMES)
    field = sympy.QQ.frac_field(*gens)
    augmented = [[_to_sympy(sympy, gens, x) for x in row + [b]] for row, b in zip(rows, rhs)]
    reduced, pivots = DomainMatrix.from_list_sympy(len(rows), ncols + 1, augmented) \
        .convert_to(field).rref()
    ref = reduced.to_Matrix()

    def same(ours, theirs) -> bool:
        difference = _to_sympy(sympy, gens, ours) - theirs
        return type(ours) is ParamScalar and sympy.cancel(difference) == 0

    pivots = list(pivots)
    inconsistent = ncols in pivots
    if inconsistent:
        pivots.remove(ncols)
    assert rank(rows, ncols) == len(pivots)

    kernel = nullspace(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    assert len(kernel) == len(free)
    for vec, f in zip(kernel, free):
        expected = [0] * ncols
        expected[f] = 1
        for r, pc in enumerate(pivots):
            expected[pc] = -ref[r, f]
        assert all(same(a, b) for a, b in zip(vec, expected))

    x = solve(rows, rhs, ncols)
    assert (x is None) == inconsistent
    if consistent:
        assert x is not None
    if x is not None:
        expected = [0] * ncols
        for r, pc in enumerate(pivots):
            expected[pc] = ref[r, ncols]
        assert all(same(a, b) for a, b in zip(x, expected))
