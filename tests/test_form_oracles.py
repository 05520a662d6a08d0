"""wedge, interior and top_power against oracles that build no power of a form.

Hypothesis draws the number of generators N <= 8, the degrees (at most 4
each) and sparse terms, with rational or `ParamScalar` coefficients.  `wedge` is compared
with the shuffle formula and `interior` with pairing against frame fields
(`helpers.shuffle_wedge_value`, `helpers.interior_oracle`); both expected
sides are plain scalars, never a `Form`.  `top_power` is compared with the
volume coefficient of Omega^(N/2) by repeated wedging
(`helpers.top_power_by_wedging`) and with det(A), A the antisymmetric matrix
of Omega's coefficients: Pf(A)^2 = det(A).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import det, interior_oracle, shuffle_wedge_value, top_power_by_wedging
from lcscalc.cecomplex import Algebra
from lcscalc.exterior import Basis, Form, VectorField, interior
from lcscalc.lcs import top_power
from lcscalc.scalar import ParamScalar, ScalarMode

RATIONAL, PARAMS = ScalarMode.rational(), ScalarMode.params("t")


def _basis(n: int) -> Basis:
    return Basis(tuple(f"e{i + 1}" for i in range(n)))


@st.composite
def scalars(draw, mode, nonzero=False):
    c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
    if mode.is_param:
        c = draw(st.integers(-2, 2)) * mode.symbol("t") + c
    if nonzero and not c:
        c = Fraction(1) if mode is RATIONAL else mode.symbol("t")
    return c


@st.composite
def forms(draw, basis, mode, degree):
    monos = list(combinations(range(basis.dim), degree))
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5, unique=True))
    return Form(basis, degree, {m: draw(scalars(mode, nonzero=True)) for m in picked})


@st.composite
def operands(draw):
    """(mode, basis, (a, b)): N <= 8 generators, nonzero a and b with p, q <= 4 and p + q <= N.

    Degrees above 4 would make the oracles' determinants by permutation slow.
    """
    mode = draw(st.sampled_from([RATIONAL, PARAMS]))
    basis = _basis(draw(st.sampled_from(range(1, 9))))
    p = draw(st.integers(0, min(4, basis.dim)))
    q = draw(st.integers(0, min(4, basis.dim - p)))
    return mode, basis, (draw(forms(basis, mode, p)), draw(forms(basis, mode, q)))


@given(operands())
def test_wedge_matches_the_shuffle_formula(drawn):
    _, basis, (a, b) = drawn
    product = a.wedge(b)
    expected = {}
    for slots in basis.monomials(a.degree + b.degree):
        value = shuffle_wedge_value(a, b, slots)
        if value:
            expected[slots] = value
    assert product.terms == expected


@given(operands())
def test_wedge_graded_commutativity(drawn):
    _, _, (a, b) = drawn
    sign = -1 if a.degree * b.degree % 2 else 1
    assert a.wedge(b) == sign * b.wedge(a)


@given(st.data())
def test_interior_matches_pairing_and_is_an_antiderivation(data):
    mode, basis, (a, b) = data.draw(operands())
    v = VectorField(basis, tuple(data.draw(scalars(mode)) for _ in range(basis.dim)))
    assert interior(v, a).terms == interior_oracle(v, a)
    assert interior(v, b).terms == interior_oracle(v, b)
    sign = -1 if a.degree % 2 else 1
    lhs = interior(v, a.wedge(b))
    assert lhs == interior(v, a).wedge(b) + sign * a.wedge(interior(v, b))


# ---------------------------------------------------------------------------
# top power: (N/2)! Pf(A) against Omega^(N/2) and det(A)
# ---------------------------------------------------------------------------


def _abelian(n: int, mode: ScalarMode = RATIONAL) -> Algebra:
    basis = _basis(n)
    return Algebra(basis, [basis.zero(2)] * n, mode=mode)


def _dense_two_form(rng: random.Random, basis: Basis) -> Form:
    terms = {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for m in basis.monomials(2)}
    return Form(basis, 2, terms)


def _low_rank_two_form(rng: random.Random, basis: Basis) -> Form:
    """A sum of fewer than N/2 products of dense 1-forms: rank below N, so degenerate."""
    total = basis.zero(2)
    for _ in range(rng.randrange(basis.dim // 2)):
        alpha, beta = (
            Form(basis, 1, {(i,): Fraction(rng.randint(-3, 3)) for i in range(basis.dim)})
            for _ in range(2)
        )
        total = total + alpha.wedge(beta)
    return total


def _matrix(omega: Form, n: int) -> list[list[Fraction]]:
    a = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in omega.terms.items():
        a[i][j], a[j][i] = c, -c
    return a


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_top_power_matches_the_wedge_power(n):
    rng = random.Random(n)
    alg = _abelian(n)
    for make in (_dense_two_form, _dense_two_form, _low_rank_two_form):
        omega = make(rng, alg.basis)
        expected = top_power_by_wedging(omega, alg.one_scalar())
        got = top_power(alg, omega)
        assert got == expected and type(got) is Fraction
        if make is _low_rank_two_form:
            assert not got
    # a generator that Omega never meets makes A singular
    dense = _dense_two_form(rng, alg.basis).terms
    omega = Form(alg.basis, 2, {m: c for m, c in dense.items() if 0 not in m})
    assert top_power(alg, omega) == 0 == top_power_by_wedging(omega, alg.one_scalar())


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_top_power_squared_is_the_determinant(n):
    rng = random.Random(10 + n)
    alg = _abelian(n)
    for _ in range(3 if n < 8 else 1):
        omega = _dense_two_form(rng, alg.basis)
        assert top_power(alg, omega) ** 2 == factorial(n // 2) ** 2 * det(_matrix(omega, n))


def test_top_power_of_a_param_form_matches_the_wedge_power():
    rng = random.Random(3)
    alg = _abelian(6, PARAMS)
    t = PARAMS.symbol("t")
    omega = Form(alg.basis, 2, {
        m: rng.randint(-2, 2) * t + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for m in alg.basis.monomials(2)
    })
    got = top_power(alg, omega)
    assert got == top_power_by_wedging(omega, alg.one_scalar())
    assert type(got) is ParamScalar and not got.is_constant
