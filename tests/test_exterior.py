import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import F, V, interior_oracle, perm_sign, shuffle_wedge_value
from lcscalc.errors import BasisMismatch, DegreeMismatch
from lcscalc.exterior import Basis, Form, VectorField, frame_field, interior, wedge
from lcscalc.presets import acfm_rational
from lcscalc.scalar import ScalarMode

ALG = acfm_rational(1, 1, 1)
B = ALG.basis
ALPHA, BETA, GAMMA, ETA = (B.gen(i) for i in range(4))


def test_wedge_orders_ascending():
    assert ALPHA.wedge(BETA) == B.monomial_form((0, 1))


def test_wedge_graded_commutativity_on_generators():
    assert BETA.wedge(ALPHA) == -B.monomial_form((0, 1))


def test_wedge_volume():
    left = ALPHA.wedge(BETA)
    right = GAMMA.wedge(ETA)
    assert left.wedge(right) == B.volume()


def test_interior_examples():
    z = frame_field(B, 2)
    x = frame_field(B, 0)
    assert interior(z, BETA.wedge(GAMMA)) == -BETA
    assert interior(x, ALPHA.wedge(ETA)) == ETA
    assert interior(x, interior(x, F(ALG, "1 alpha^beta^gamma"))).is_zero()


def test_interior_matches_brute_force_pairing():
    v = V(ALG, 2, Fraction(-1, 2), 3, 1)
    for degree in range(5):
        for idx in combinations(range(4), degree):
            theta = B.monomial_form(idx, Fraction(3, 2))
            assert interior(v, theta).terms == interior_oracle(v, theta)


def test_form_addition_identity_and_cancellation():
    ae = ALPHA.wedge(ETA)
    assert ae + B.zero(2) == ae
    assert ae + B.zero(0) == ae  # zero is degree-polymorphic
    assert (ae - ae).is_zero()
    assert (ae - ae).terms == {}


def test_two_term_combination():
    combo = 2 * ALPHA.wedge(ETA) + 1 * BETA.wedge(GAMMA)
    assert combo == F(ALG, "2 alpha^eta + 1 beta^gamma")
    assert combo.coefficient((0, 3)) == 2
    assert combo.coefficient((1, 2)) == 1


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        ALPHA + ALPHA.wedge(BETA)


def test_basis_mismatch():
    other = Basis(("x", "y", "z", "w"))
    with pytest.raises(BasisMismatch):
        ALPHA.wedge(other.gen(0))


def test_monomial_counts():
    from math import comb

    for n in (4, 5):
        basis = Basis(tuple(f"e{i}" for i in range(n)))
        for degree in range(n + 1):
            monos = list(basis.monomials(degree))
            assert len(monos) == comb(n, degree)
            assert len(set(monos)) == len(monos)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def forms(draw, degree=None):
    if degree is None:
        degree = draw(st.integers(min_value=0, max_value=4))
    monos = list(combinations(range(4), degree))
    terms = {}
    for mono in monos:
        if draw(st.booleans()):
            terms[mono] = draw(coeffs)
    return Form(B, degree, terms)


@given(forms(), forms())
def test_wedge_graded_commutativity(a, b):
    sign = (-1) ** (a.degree * b.degree)
    assert a.wedge(b) == sign * b.wedge(a)


@given(forms(), forms(), forms())
def test_wedge_associativity(a, b, c):
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@given(forms(degree=1), forms(degree=2), forms(degree=2))
def test_wedge_bilinearity(a, b, c):
    assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)


@given(forms(), forms())
def test_interior_antiderivation(a, b):
    v = V(ALG, 1, -2, Fraction(1, 3), 1)
    lhs = interior(v, a.wedge(b))
    sign = -1 if a.degree % 2 else 1
    rhs = interior(v, a).wedge(b) + sign * a.wedge(interior(v, b))
    assert lhs == rhs


@given(forms(degree=3))
def test_interior_squares_to_zero(a):
    v = V(ALG, 2, 1, -1, Fraction(5, 2))
    assert interior(v, interior(v, a)).is_zero()


@given(forms(degree=2))
def test_serialization_roundtrip(a):
    from lcscalc.exterior import form_str
    from lcscalc.specfile import parse_form_expr

    assert parse_form_expr(form_str(a), B, ALG.mode) == a


# ---------------------------------------------------------------------------
# sign oracles: the expected side reads stored terms and is never a Form, so
# a wrong sign in the Form constructor cannot cancel out of the comparison
# ---------------------------------------------------------------------------


def _scalar(rng, mode, nonzero=False):
    while True:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if mode.is_param:
            c = rng.randint(-2, 2) * mode.symbol("t") + c
        if c or not nonzero:
            return c


def _dense_form(rng, basis, degree, mode):
    monos = combinations(range(basis.dim), degree)
    return Form(basis, degree, {m: _scalar(rng, mode, nonzero=True) for m in monos})


MODES = [ScalarMode.rational(), ScalarMode.params("t")]


@pytest.mark.parametrize("dim", [5, 6])
@pytest.mark.parametrize("mode", MODES, ids=["rational", "params"])
def test_wedge_matches_the_shuffle_formula(dim, mode):
    rng = random.Random(dim)
    basis = Basis(tuple(f"e{i}" for i in range(dim)))
    for p in range(dim + 1):
        for q in range(dim + 1 - p):
            a = _dense_form(rng, basis, p, mode)
            b = Form(basis, q, {m: _scalar(rng, mode) for m in basis.monomials(q)})
            product = a.wedge(b)
            assert product.degree == p + q or product.is_zero()
            for slots in basis.monomials(p + q):
                assert product.coefficient(slots) == shuffle_wedge_value(a, b, slots)


@pytest.mark.parametrize("mode", MODES, ids=["rational", "params"])
def test_interior_matches_pairing_on_dense_forms(mode):
    rng = random.Random(6)
    basis = Basis(tuple(f"e{i}" for i in range(6)))
    v = VectorField(basis, tuple(_scalar(rng, mode, nonzero=True) for _ in range(6)))
    for degree in range(7):
        theta = _dense_form(rng, basis, degree, mode)
        assert interior(v, theta).terms == interior_oracle(v, theta)


def _reference_terms(pairs) -> dict:
    """Sort each tuple with `sorted`, sign it by inversion count, then sum."""
    out: dict = {}
    for idx, c in pairs:
        if len(set(idx)) == len(idx):
            key = tuple(sorted(idx))
            out[key] = out.get(key, 0) + perm_sign(idx) * c
    return {key: c for key, c in out.items() if c}


@given(st.data())
def test_form_sorts_signs_and_sums_raw_pairs(data):
    basis = Basis(tuple(f"e{i}" for i in range(5)))
    degree = data.draw(st.integers(0, 5))
    index = st.lists(st.integers(0, 4), min_size=degree, max_size=degree).map(tuple)
    coeff = st.integers(-3, 3).map(Fraction)
    pairs = data.draw(st.lists(st.tuples(index, coeff), max_size=12))
    # cancel some terms with a permuted copy of opposite canonical sign
    cancelled = st.lists(st.sampled_from(pairs), max_size=4) if pairs else st.just([])
    for idx, c in data.draw(cancelled):
        perm = tuple(data.draw(st.permutations(idx)))
        pairs.append((perm, -perm_sign(idx) * perm_sign(perm) * c))
    expected = _reference_terms(pairs)
    assert Form(basis, degree, pairs).terms == expected
    assert Form(basis, degree, iter(pairs[::-1])).terms == expected
    as_dict: dict = {}
    for idx, c in pairs:
        as_dict[idx] = as_dict.get(idx, 0) + c
    assert Form(basis, degree, as_dict).terms == expected


def test_form_pairs_cancel_repeat_and_sign():
    basis = Basis(("a", "b", "c", "d"))
    cancelling = [((2, 0, 1), Fraction(3)), ((0, 1, 2), Fraction(-3))]
    assert Form(basis, 3, cancelling).is_zero()
    pairs = [((1, 0), 2), ((1, 0), 3), ((1, 1), 7), ((0, 1), 1), ((3, 2), 4)]
    assert Form(basis, 2, pairs).terms == {(0, 1): -4, (2, 3): -4}
