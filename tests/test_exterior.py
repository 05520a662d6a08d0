import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    HARD, SMALL, F, V, assert_integer_route, fraction_form_str, fraction_interior,
    fraction_scaled, fraction_sum, interior_oracle, perm_sign, rationals, rational_forms,
    shuffle_wedge_value,
)
from lcscalc.cecomplex import d
from lcscalc.errors import BasisMismatch, DegreeMismatch
from lcscalc.exterior import Basis, Form, VectorField, form_str, frame_field, interior, wedge
from lcscalc.presets import acfm_rational, acfm_symbolic
from lcscalc.scalar import ScalarMode
from lcscalc.specfile import parse_algebra_file

GOLDEN = Path(__file__).parent / "golden"

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


@given(st.data(), st.sampled_from([SMALL, HARD]))
def test_arithmetic_on_numerators_matches_the_fraction_formulas(data, dens):
    """+, -, unary -, c * Omega, interior and Form.over against Fraction dicts, cancelling too."""
    basis = Basis(tuple(f"e{i}" for i in range(5)))
    degree = data.draw(st.integers(0, basis.dim))
    a = data.draw(rational_forms(basis, degree, dens))
    drawn = data.draw(rational_forms(basis, degree, dens)).terms
    # b cancels some of a's terms in a + b
    cancel = data.draw(st.lists(st.sampled_from(sorted(a.terms)), unique=True)) if a.terms else []
    b = Form(basis, degree, {**drawn, **{m: -a.terms[m] for m in cancel}})
    scalars = st.integers(-3, 3) | rationals(dens) | st.just(Fraction(0))
    c, q = data.draw(scalars), data.draw(scalars)
    coeffs = tuple(data.draw(rationals(dens) | st.just(Fraction(0))) for _ in range(basis.dim))
    v = VectorField(basis, coeffs)
    A, B = a.terms, b.terms
    cases = [
        (a + b, fraction_sum(A, B)),
        (a - b, fraction_sum(A, fraction_scaled(-1, B))),
        (-a, fraction_scaled(-1, A)),
        (a - a, {}),
        (c * a, fraction_scaled(c, A)),
        (a * q, fraction_scaled(q, A)),
        (interior(v, a), fraction_interior(coeffs, A)),
    ]
    if a.terms:  # numerators over a negative den move their sign
        den = -data.draw(st.sampled_from(dens))
        nums = {m: data.draw(st.integers(-50, 50).filter(bool)) for m in a.terms}
        expected = {m: Fraction(n, den) for m, n in nums.items()}
        cases.append((Form.over(basis, degree, den, nums), expected))
    for result, expected in cases:
        assert_integer_route(result, expected)
    assert (a == b) == (A == B)
    assert (a + b == a) == (not B)


def test_forms_compare_and_hash_alike_across_representations_and_modes():
    """A value as numerators over den, as Form.canonical of Fractions and with constant
    ParamScalar coefficients; a twist in one finds the store registered for another."""
    alg, sym = acfm_rational(1, 2, 3), acfm_symbolic()
    basis = alg.basis
    terms = {(0,): Fraction(3, 4), (2,): Fraction(-5, 6)}
    rational = Form(basis, 1, {(0,): 9, (2,): -10}, den=12)
    canonical = Form.canonical(basis, 1, terms)
    params = Form(basis, 1, {m: sym.mode.from_fraction(c) for m, c in terms.items()})
    assert (rational.den, rational.nums) == (12, {(0,): 9, (2,): -10})
    assert params.den is None
    forms = (rational, canonical, params)
    for x in forms:
        for y in forms:
            assert x == y and hash(x) == hash(y)
    assert len(set(forms)) == 1
    # closed twists: -k gamma of the rational preset, gamma of the symbolic one
    twist = {(2,): Fraction(-2)}
    given_as = (
        Form(basis, 1, twist),
        Form.canonical(basis, 1, twist),
        Form(basis, 1, {m: sym.mode.from_fraction(c) for m, c in twist.items()}),
    )
    # a rational algebra refuses to register a symbolic twist, but finds its rational twin
    for algebra, registered in ((alg, given_as[:2]), (sym, given_as)):
        for first in registered:
            algebra._twisted.clear()
            store = algebra.twisted_complex(first)._store
            assert all(algebra.twisted_complex(x)._store is store for x in given_as)


def test_form_str_renders_integers_above_2000_bits():
    """Numerators and denominators of 2,100 bits print as `scalar_str` prints each Fraction."""
    basis = Basis(("a", "b", "c"))
    den, num = 3**1325, 2**2100 + 1
    form = Form.over(basis, 2, den, {(0, 1): num, (0, 2): -5 * 3**10 * num, (1, 2): 3**1325})
    assert den.bit_length() > 2000 and num.bit_length() > 2000
    text = form_str(form)
    assert text == fraction_form_str(basis.names, form.terms)
    assert str(Decimal(num)) in text and str(Decimal(3**1315)) in text
    assert text.endswith(" + 1 b^c")


def test_rational_route_builds_no_fraction_term_map(monkeypatch):
    """d, wedge, +, -, interior, == and form_str on rational forms never fill `terms`."""
    fills = []
    terms = Form.terms.fget

    def counted(self):
        if self._terms is None:
            fills.append(form_str(self))
        return terms(self)

    monkeypatch.setattr(Form, "terms", property(counted))
    alg = parse_algebra_file(str(GOLDEN / "h7xr_dense.alg"))
    a, b = (F(alg, text) for text in (GOLDEN / "h7xr_dense.forms").read_text().splitlines()[:2])
    theta = F(alg, "1/2 e1 - 3/7 e4 + 5 e8")
    v = V(alg, 1, Fraction(-2, 3), 0, 5, 0, 0, Fraction(1, 9), 2)
    results = [
        d(alg, a), d(alg, theta), a.wedge(b), theta.wedge(a), a + b, a - b, -a,
        3 * a, Fraction(-2, 5) * a, interior(v, a), interior(v, a.wedge(theta)),
    ]
    assert a == a + a.basis.zero(2) and a != b and not (a - a) == b
    assert all(form_str(r) for r in results)
    assert fills == []
    assert a.terms and a.terms and fills == [form_str(a)]
