"""d and wedge on forms with large coprime denominators, against the oracles.

d is compared with the Koszul formula (`helpers.koszul_d`) and wedge with
the shuffle formula (`helpers.shuffle_wedge_value`).  Coefficients have
denominators 7^20, 10^30 + 1 and 3^41; the structure constants have
denominators other than 1 (the preset with such constants, rewritten in a
dense frame).  Every rational result coefficient must be a `Fraction` in
lowest terms with the hash of its value, and every rational result's
(den, nums) must be in lowest terms.  Operands with a `ParamScalar`
coefficient give `ParamScalar` results, equal to the oracle's.  On random
forms, with small and with these denominators, d and wedge also match the
Fraction-dict formulas of `helpers` in terms, (den, nums) and text.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    HARD, SMALL, assert_integer_route, assert_lowest_terms, change_of_basis, fraction_d,
    fraction_wedge, koszul_d, random_invertible, rational_forms, shuffle_wedge_value,
)
from lcscalc.cecomplex import Algebra, d
from lcscalc.exterior import Basis, Form
from lcscalc.scalar import ParamScalar, ScalarMode

PARAMS = ScalarMode.params("t")


def _hard(rng: random.Random) -> Fraction:
    """A nonzero rational over one or two of the hard denominators."""
    den = rng.choice(HARD) * rng.choice((1,) + HARD)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**12), den)


def _form(rng: random.Random, basis: Basis, degree: int, coeff) -> Form:
    monos = list(combinations(range(basis.dim), degree))
    picked = rng.sample(monos, max(1, (len(monos) + 1) // 2))
    return Form(basis, degree, {m: coeff(rng) for m in picked})


def _param(rng: random.Random):
    return rng.randint(-2, 2) * PARAMS.symbol("t") + _hard(rng)


@cache
def _hard_algebra(seed: int) -> Algebra:
    """Preset x R^2 with k = 3/7^20 and n*lambda = 3^41/(10^30 + 1), in a dense frame."""
    basis = Basis(tuple(f"e{i + 1}" for i in range(6)))
    k, nlam = Fraction(3, 7**20), Fraction(3**41, 10**30 + 1)
    dgen = [
        Form(basis, 2, {(0, 2): -k}),
        Form(basis, 2, {(1, 2): k}),
        basis.zero(2),
        Form(basis, 2, {(0, 1): nlam}),
    ] + [basis.zero(2)] * 2
    alg = change_of_basis(Algebra(basis, dgen), random_invertible(random.Random(seed), 6))
    assert alg.check_d2().ok
    assert any(c.denominator > 1 for f in alg.dgen for c in f.terms.values())
    return alg


def _assert_canonical(result: Form, expected: dict, kind):
    """Same terms as the oracle, hash included, each of the given type.

    `kind` is one type, or a map from each monomial to its type.  A result
    of Fractions also has its (den, nums) in lowest terms.
    """
    if kind is Fraction:
        assert_lowest_terms(result)
    assert result.terms == expected
    for key, c in result.terms.items():
        assert type(c) is (kind[key] if isinstance(kind, dict) else kind)
        assert hash(c) == hash(expected[key])
        if kind is Fraction:
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
            assert hash(c) == hash(Fraction(c.numerator, c.denominator))


def _shuffle_terms(a: Form, b: Form) -> dict:
    slots = combinations(range(a.basis.dim), a.degree + b.degree)
    values = {s: shuffle_wedge_value(a, b, s) for s in slots}
    return {s: v for s, v in values.items() if v}


@pytest.mark.parametrize("seed", [1, 2])
def test_d_matches_koszul_with_hard_denominators(seed):
    rng = random.Random(seed)
    alg = _hard_algebra(seed)
    for degree in range(alg.dim + 1):
        theta = _form(rng, alg.basis, degree, _hard)
        _assert_canonical(d(alg, theta), koszul_d(alg, theta).terms, Fraction)


def test_d_of_a_param_form_on_a_rational_algebra():
    rng = random.Random(3)
    alg = _hard_algebra(3)
    for degree in range(1, alg.dim):
        theta = _form(rng, alg.basis, degree, _param)
        _assert_canonical(d(alg, theta), koszul_d(alg, theta).terms, ParamScalar)


def test_wedge_matches_shuffle_with_hard_denominators():
    rng = random.Random(4)
    basis = Basis(tuple(f"e{i + 1}" for i in range(5)))
    integral = lambda r: Fraction(r.randint(-9, 9) or 1)  # noqa: E731
    for p in range(basis.dim + 1):
        for q in range(basis.dim + 1 - p):
            a = _form(rng, basis, p, _hard)
            for b in (_form(rng, basis, q, _hard), _form(rng, basis, q, integral)):
                _assert_canonical(a.wedge(b), _shuffle_terms(a, b), Fraction)
                _assert_canonical(b.wedge(a), _shuffle_terms(b, a), Fraction)


def test_wedge_of_a_generator_and_a_param_form():
    """The Lee-system oracle wedges each `Basis.gen` (a Fraction 1) with the 2-form."""
    rng = random.Random(5)
    basis = Basis(tuple(f"e{i + 1}" for i in range(6)))
    omega = _form(rng, basis, 2, _param)
    mixed = Form(basis, 2, {(0, 1): _hard(rng), (2, 3): _param(rng), (1, 4): _hard(rng)})
    for i in range(basis.dim):
        gen = basis.gen(i)
        # each product has one term, so it keeps the type of the 2-form's coefficient
        kinds = {tuple(sorted((i,) + key)): type(c) for key, c in mixed.terms.items()}
        for two, kind in ((omega, ParamScalar), (mixed, kinds)):
            _assert_canonical(gen.wedge(two), _shuffle_terms(gen, two), kind)
            _assert_canonical(two.wedge(gen), _shuffle_terms(two, gen), kind)


@given(st.data(), st.sampled_from([SMALL, HARD]))
def test_d_and_wedge_on_numerators_match_the_fraction_formulas(data, dens):
    alg = _hard_algebra(1)
    p = data.draw(st.integers(0, alg.dim))
    q = data.draw(st.integers(0, alg.dim - p))
    a = data.draw(rational_forms(alg.basis, p, dens))
    b = data.draw(rational_forms(alg.basis, q, dens))
    assert_integer_route(d(alg, a), fraction_d(alg, a.terms))
    assert_integer_route(a.wedge(b), fraction_wedge(a.terms, b.terms))
    assert_integer_route(b.wedge(a), fraction_wedge(b.terms, a.terms))
