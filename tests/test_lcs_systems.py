"""The linear systems of a 2-form, read off its terms, against the Form route.

`lcs` assembles the matrices of w -> w ^ Omega, (X, mu) -> L_X(Omega) - mu *
Omega and X -> i(X) Omega straight from Omega's coefficients and the d
tables.  Each is compared here with `helpers.operator_matrix` over the
images built as Forms: g_i ^ Omega, i(X_i) d(Omega) + d(i(X_i) Omega) and
-Omega, and i(X_i) Omega.  The data are `helpers.random_good_algebra`
algebras (half of them in a dense frame) and random nondegenerate 2-forms
with mixed denominators, in rational and, where the map allows it,
parameter mode.  The integer Pfaffian of `top_power` is compared with the
volume coefficient of repeated wedging, and `is_unimodular`, which reads the
traces of ad X_i off the structure data, with the traces of the bracket
table of `helpers.oracle_brackets`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import oracle_brackets, operator_matrix, random_good_algebra, top_power_by_wedging
from lcscalc.cecomplex import Algebra, d, is_unimodular
from lcscalc.errors import MixedModes
from lcscalc.exterior import Basis, Form, frame_field, interior
from lcscalc.lcs import (
    LcsForm, _automorphism_rows, _contraction_rows, _wedge_rows, automorphism_algebra, top_power,
)
from lcscalc.scalar import ScalarMode
from lcscalc.specfile import parse_algebra_text

PARAMS = ScalarMode.params("k", "t")
DENOMINATORS = [1, 2, 3, 4, 5, 6, 7, 9, 12, 35, 97, 210]

seeds = st.integers(0, 10**6)


def _in_params(alg: Algebra, factor) -> Algebra:
    """The same structure data times a parameter-mode scalar; d*d stays zero."""
    return Algebra(alg.basis, [factor * f for f in alg.dgen], mode=PARAMS)


def _scalar(rng: random.Random, mode: ScalarMode):
    c = Fraction(rng.randint(-20, 20), rng.choice(DENOMINATORS))
    if mode.is_param:
        c = rng.randint(-2, 2) * mode.symbol("k") + rng.randint(-1, 1) * mode.symbol("t") + c
    return c


def _two_form(rng: random.Random, basis: Basis, mode: ScalarMode) -> Form:
    """A random 2-form with mixed denominators; dense about half of the time."""
    monos = list(basis.monomials(2))
    if rng.random() < 0.5:
        monos = rng.sample(monos, rng.randint(1, len(monos)))
    return Form(basis, 2, {m: _scalar(rng, mode) for m in monos})


def _nondegenerate(rng: random.Random, alg: Algebra) -> Form:
    while True:
        omega2 = _two_form(rng, alg.basis, alg.mode)
        if top_power(alg, omega2):
            return omega2


def _algebra(seed: int, sizes=(4, 6), params: bool = False) -> tuple[random.Random, Algebra]:
    rng = random.Random(seed)
    alg = random_good_algebra(rng, rng.choice(sizes))
    if params:
        alg = _in_params(alg, rng.choice([PARAMS.symbol("k"), PARAMS.symbol("t") - 2]))
    return rng, alg


@given(seeds, st.booleans())
def test_wedge_rows_are_the_matrix_of_wedging_with_omega(seed, params):
    rng, alg = _algebra(seed, params=params)
    omega2 = _nondegenerate(rng, alg)
    images = [alg.basis.gen(i).wedge(omega2) for i in range(alg.dim)]
    expected = operator_matrix(images, list(alg.basis.monomials(3)))
    assert _wedge_rows(alg, omega2) == expected


@given(seeds)
def test_automorphism_rows_are_cartan_over_forms(seed):
    rng, alg = _algebra(seed)
    omega2 = _nondegenerate(rng, alg)
    d_omega2 = d(alg, omega2)
    images = []
    for i in range(alg.dim):
        x = frame_field(alg.basis, i)
        images.append(interior(x, d_omega2) + d(alg, interior(x, omega2)))
    images.append(-omega2)
    expected = operator_matrix(images, list(alg.basis.monomials(2)))
    scale, rows = _automorphism_rows(alg, omega2)
    assert all(type(x) is int for row in rows for x in row)
    assert [[Fraction(x, scale) for x in row] for row in rows] == expected


def test_automorphism_rows_refuse_symbolic_data_in_a_rational_algebra():
    _, alg = _algebra(7)
    omega2 = PARAMS.symbol("k") * _nondegenerate(random.Random(7), alg)
    cert = LcsForm(omega2, alg.basis.zero(1), top_power(alg, omega2))
    with pytest.raises(MixedModes):
        automorphism_algebra(alg, cert)


@given(seeds, st.booleans())
def test_contraction_rows_are_the_matrix_of_interior(seed, params):
    rng, alg = _algebra(seed, sizes=(2, 4, 6), params=params)
    omega2 = _nondegenerate(rng, alg)
    images = [interior(frame_field(alg.basis, i), omega2) for i in range(alg.dim)]
    expected = operator_matrix(images, list(alg.basis.monomials(1)))
    assert _contraction_rows(alg, omega2) == expected


@given(seeds, st.sampled_from([2, 4, 6]))
def test_integer_top_power_matches_the_wedge_power(seed, n):
    rng = random.Random(seed)
    basis = Basis(tuple(f"e{i + 1}" for i in range(n)))
    alg = Algebra(basis, [basis.zero(2)] * n)
    omega2 = _two_form(rng, basis, alg.mode)
    got = top_power(alg, omega2)
    assert got == top_power_by_wedging(omega2, Fraction(1))
    assert type(got) is Fraction


def _unimodular_by_brackets(alg: Algebra) -> bool:
    table = oracle_brackets(alg)
    return all(
        not sum((table[i][j].coeffs[j] for j in range(alg.dim)), Fraction(0))
        for i in range(alg.dim)
    )


@given(seeds, st.booleans())
def test_unimodular_matches_the_bracket_traces(seed, params):
    _, alg = _algebra(seed, sizes=(2, 3, 4, 5, 6), params=params)
    assert is_unimodular(alg) == _unimodular_by_brackets(alg)


def test_unimodular_on_symbolic_traces():
    head = "params k t\ngenerators e1 e2 e3\nd e1 = k e1^e3\n"
    for line, unimodular in (
        ("d e2 = -k e2^e3", True),
        ("d e2 = k e2^e3", False),
        ("d e2 = (t - k) e2^e3", False),
    ):
        alg = parse_algebra_text(head + line + "\n")
        assert is_unimodular(alg) is unimodular is _unimodular_by_brackets(alg)
