"""rank, echelon_mod, nullspace and solve against independent references.

Rational matrices are checked against the Fraction row reduction in
`helpers.py`, also as `IntegerRows` and as rows of rational functions that
are rational rows times a nonzero function each, in row orders that make
pivots arrive out of column order; modular ranks against a list
elimination there; matrices of rational functions against sympy's reduced
row echelon form over QQ(n, k) (test-only oracle, skipped without sympy).
Results must agree entry by entry and keep the scalar type of the mode.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fraction_nullspace, fraction_rref, fraction_solve, mod_rank, rref_rank
from lcscalc import linalg
from lcscalc.errors import MixedModes
from lcscalc.linalg import IntegerRows, echelon_mod, nullspace, rank, solve
from lcscalc.scalar import ParamScalar, ScalarMode, _Poly, parse_scalar

ZERO, ONE = Fraction(0), Fraction(1)

small = st.integers(min_value=-9, max_value=9)
rationals = st.one_of(
    st.just(ZERO),
    small.map(Fraction),
    st.builds(Fraction, small, st.integers(min_value=1, max_value=9)),
    # entries near 10^30 / 7^20, whose minors overflow any machine word
    st.builds(lambda a, b: Fraction(10**30 + a, 7**20 + b), small, small),
)


def _dot(row, x):
    return sum((a * b for a, b in zip(row, x)), start=0 * ONE)


def _product(a, b):
    return [[_dot(row, col) for col in zip(*b)] for row in a]


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
        rhs = [_dot(row, x) for row in rows]
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


@given(matrices(residues, 8, 8), st.sampled_from([2, 3, linalg.PRIME]))
def test_echelon_mod_rank_matches_a_list_elimination_and_bounds_the_rank(case, prime):
    """Packed rows give the rank of an elimination on lists, never above the rank over Q."""
    rows, ncols = case
    ints = [[int(x) for x in row] for row in rows]
    with mock.patch.object(linalg, "PRIME", prime):
        got = len(echelon_mod(ints, ncols))
    assert got == mod_rank(ints, ncols, prime)
    assert got <= rref_rank(rows)


def test_echelon_mod_rank_of_one_column_and_of_zero_rows():
    assert len(echelon_mod([[0], [-linalg.PRIME], [2**64 + 5]], 1)) == 1
    assert len(echelon_mod([[0], [linalg.PRIME * 2**70]], 1)) == 0
    assert len(echelon_mod([[0, 0, 0], [0, 0, 0]], 3)) == 0
    assert len(echelon_mod([], 3)) == 0 and len(echelon_mod([[], []], 0)) == 0


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
    assert solve([[]], [ONE], 0) is None
    assert solve([[], []], [ZERO, ZERO], 0) == []
    assert nullspace([[], []], 0) == [] and nullspace(IntegerRows(), 2) == [[1, 0], [0, 1]]
    assert rank(IntegerRows([[], []]), 0) == 0


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


# ---------------------------------------------------------------------------
# row order, inconsistent rows and division counts
# ---------------------------------------------------------------------------


@st.composite
def reordered_systems(draw):
    """A consistent system in a scrambled row order, perhaps with one inconsistent row.

    Some systems start with ncols rows of full column rank (unit lower
    triangular); kept in that order, every later row, the inconsistent one
    too, meets only the right-hand-side check.  Up to two rows are
    duplicated, the order is kept, reversed or shuffled, so pivots arrive
    out of column order, and the inconsistent row, a sum of rows with its
    right-hand side off by one, goes first, in the middle or last.
    """
    rows, ncols = draw(matrices(rationals, 5, 5))
    if draw(st.booleans()):
        rows = [
            [draw(rationals) if j < i else ONE if j == i else ZERO for j in range(ncols)]
            for i in range(ncols)
        ] + rows
    x = [draw(rationals) for _ in range(ncols)]
    system = [(row, _dot(row, x)) for row in rows]
    if system:
        system += [system[i] for i in draw(st.lists(st.integers(0, len(system) - 1), max_size=2))]
    order = draw(st.sampled_from(["kept", "reversed", "shuffled"]))
    if order == "reversed":
        system.reverse()
    elif order == "shuffled":
        system = draw(st.permutations(system))
    broken = draw(st.sampled_from([None, "first", "middle", "last"]))
    if broken is not None:
        picked = [pair for pair in system if draw(st.booleans())]
        row = [sum((r[j] for r, _ in picked), start=ZERO) for j in range(ncols)]
        b = sum((b for _, b in picked), start=ONE)
        at = {"first": 0, "middle": len(system) // 2, "last": len(system)}[broken]
        system.insert(at, (row, b))
    return [row for row, _ in system], [b for _, b in system], ncols, broken is None


SCALES = [parse_scalar(t, MODE) for t in ["n", "k + 1", "1/(n - k)", "(n*k - 2)/3", "-5"]]


@given(reordered_systems(), st.sampled_from(["fractions", "integers", "functions"]), st.data())
def test_elimination_matches_the_fraction_oracle_in_any_row_order(case, kind, data):
    """Pivots, kernels and solutions equal those of division in Q.

    Integer rows are the rational rows times their denominators' lcm and give
    primitive kernel vectors with a positive free entry; rows of rational
    functions are each rational row and its right-hand side times a nonzero
    function.  Scaling a row keeps the reduced row echelon form.
    """
    rows, rhs, ncols, consistent = case
    pivots = fraction_rref(rows, ncols)[1]
    kernel = fraction_nullspace(rows, ncols)
    solution = fraction_solve(rows, rhs, ncols)
    assert (solution is not None) == consistent
    if kind == "integers":
        scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
        ints = IntegerRows([int(x * m) for x in row] for row, m in zip(rows, scales))
        assert sorted(linalg._rref(ints, ncols)[1]) == pivots
        assert rank(ints, ncols) == len(pivots)
        got = nullspace(ints, ncols)
        assert _all(got, int) and len(got) == len(kernel)
        for vec, unit in zip(got, kernel):
            free = max(i for i, x in enumerate(unit) if x)
            assert vec[free] > 0 and math.gcd(*vec) == 1
            assert [Fraction(x, vec[free]) for x in vec] == unit
        return
    if kind == "functions" and rows:
        scales = [data.draw(st.sampled_from(SCALES)) for _ in rows]
        rows = [[s * x for x in row] for row, s in zip(rows, scales)]
        rhs = [s * b for b, s in zip(rhs, scales)]
    scalar = ParamScalar if kind == "functions" and rows else Fraction
    assert sorted(linalg._rref(rows, ncols)[1]) == pivots
    assert rank(rows, ncols) == len(pivots)
    got = nullspace(rows, ncols)
    assert got == kernel and _all(got, scalar)
    x = solve(rows, rhs, ncols)
    assert x == solution
    if x is not None:
        assert _all([x], scalar)


def test_rows_past_full_rank_cost_no_polynomial_division():
    """Consistent rows after the pivots are checked on the right-hand side alone.

    Only pivot rows are divided, so nine more rows, combinations of the first
    three, add no exact polynomial division to a 3 x 3 solve over Q(n, k).
    """
    n, k, one = MODE.symbol("n"), MODE.symbol("k"), MODE.one()
    rows = [[n, one, k], [one, k, n * k], [k, n, one]]
    rhs = [n, k, one]
    for a, b, c in [(1, 1, 0), (0, 1, 1), (1, 0, 1), (2, -1, 0), (0, 3, -1), (1, 1, 1),
                    (-1, 0, 2), (n, 0, 1), (1, k, -n)]:
        rows.append([a * x + b * y + c * z for x, y, z in zip(*rows[:3])])
        rhs.append(a * rhs[0] + b * rhs[1] + c * rhs[2])
    divisions = []
    floordiv = _Poly.__floordiv__

    def counted(self, other):
        divisions.append(other)
        return floordiv(self, other)

    with mock.patch.object(_Poly, "__floordiv__", counted):
        x = solve(rows[:3], rhs[:3], 3)
        square = len(divisions)
        assert solve(rows, rhs, 3) == x
    assert square > 0 and len(divisions) == 2 * square
    assert all(_dot(row, x) == b for row, b in zip(rows, rhs))
