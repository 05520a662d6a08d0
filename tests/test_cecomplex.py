import random
from fractions import Fraction

import pytest

from helpers import F, V, jacobi_by_fields, random_good_algebra, perturb_algebra
from lcscalc.cecomplex import (
    Algebra,
    brackets_from_d,
    check_d2,
    d,
    d_omega,
    is_unimodular,
    jacobi_check,
    lie_derivative,
)
from lcscalc.errors import DegreeMismatch, OmegaNotClosed
from lcscalc.exterior import Basis, Form, frame_field
from lcscalc.presets import acfm_rational, acfm_symbolic, twist_form
from lcscalc.specfile import parse_algebra_text


def so3_perturbed():
    """Three-generator data with one extra term so that d*d != 0."""
    basis = Basis(("e1", "e2", "e3"))
    dgen = [
        Form(basis, 2, {(1, 2): Fraction(1)}),
        Form(basis, 2, {(2, 0): Fraction(1)}),
        Form(basis, 2, {(0, 1): Fraction(1), (0, 2): Fraction(1)}),
    ]
    return Algebra(basis, dgen)


def test_d_on_generators_symbolic(acfm_sym):
    k = acfm_sym.mode.symbol("k")
    alpha, gamma = acfm_sym.basis.gen(0), acfm_sym.basis.gen(2)
    assert d(acfm_sym, alpha) == (-k) * alpha.wedge(gamma)
    assert d(acfm_sym, acfm_sym.basis.gen(2)).is_zero()


def test_d_antiderivation_example(acfm111):
    ae = F(acfm111, "1 alpha^eta")
    assert d(acfm111, ae) == F(acfm111, "-1 alpha^gamma^eta")


def test_d_of_constant(acfm111):
    assert d(acfm111, acfm111.basis.one()).is_zero()


def test_check_d2_passes(acfm111, torus4):
    assert check_d2(acfm111).ok
    assert check_d2(torus4).ok


def test_check_d2_counterexample():
    alg = so3_perturbed()
    result = check_d2(alg)
    assert not result.ok
    assert result.generator == "e1"
    # hand expansion: d(e2^e3) = -e2^(e1^e2 + e1^e3) = e1^e2^e3
    assert result.residual == alg.basis.volume()


def test_brackets_match_structure_table(acfm_sym):
    mode = acfm_sym.mode
    k, n, lam = mode.symbol("k"), mode.symbol("n"), mode.symbol("lambda")
    table = brackets_from_d(acfm_sym)
    basis = acfm_sym.basis
    X, Y, Z, T = (frame_field(basis, i) for i in range(4))
    assert table.frame_bracket(0, 2) == k * X
    assert table.frame_bracket(0, 1) == (-(n * lam)) * T
    assert table.frame_bracket(1, 2) == (-k) * Y
    for j in range(3):
        assert table.frame_bracket(j, 3).is_zero()
    for i in range(4):
        for j in range(4):
            assert table.frame_bracket(i, j) == -table.frame_bracket(j, i)


def test_brackets_abelian(torus4):
    table = brackets_from_d(torus4)
    for i in range(4):
        for j in range(4):
            assert table.frame_bracket(i, j).is_zero()


def test_jacobi(acfm111, torus4):
    assert jacobi_check(acfm111.brackets()).ok
    assert jacobi_check(torus4.brackets()).ok
    bad = jacobi_check(so3_perturbed().brackets())
    assert not bad.ok
    assert bad.triple is not None


def test_jacobi_sums_match_the_vector_field_route():
    # the first failing triple and its residual, in both scalar modes
    rng = random.Random(20261020)
    algebras = [
        acfm_symbolic(),
        so3_perturbed(),
        parse_algebra_text(
            "params t\ngenerators e1 e2 e3\n"
            "d e1 = 1 e2^e3\nd e2 = -1 e1^e3\nd e3 = 1 e1^e2 + t e1^e3\n"
        ),
    ]
    for _ in range(40):
        alg = random_good_algebra(rng, rng.randint(3, 5))
        algebras.append(perturb_algebra(rng, alg) if rng.random() < 0.5 else alg)
    failures = 0
    for alg in algebras:
        result = jacobi_check(brackets_from_d(alg))
        expected = jacobi_by_fields(alg)
        if expected is None:
            assert result.ok and result.triple is None
        else:
            failures += 1
            assert not result.ok and (result.triple, result.residual) == expected
    assert failures >= 10


def test_d_omega_examples(acfm111):
    w = twist_form(acfm111, -1)
    beta = acfm111.basis.gen(1)
    assert d_omega(acfm111, w, Fraction(1, 2) * beta) == F(acfm111, "1 beta^gamma")
    assert d_omega(acfm111, w, acfm111.basis.gen(0)).is_zero()
    assert d_omega(acfm111, w, acfm111.basis.gen(3)) == F(
        acfm111, "1 alpha^beta - 1 gamma^eta"
    )


def test_d_omega_requires_closed(acfm111):
    with pytest.raises(OmegaNotClosed):
        d_omega(acfm111, acfm111.basis.gen(3), acfm111.basis.gen(0))


def test_twist_of_another_degree_is_an_input_error(acfm111):
    with pytest.raises(DegreeMismatch):
        acfm111.require_closed(F(acfm111, "1 alpha^beta"))


def test_d_omega_squares_to_zero(acfm111):
    for sign in (1, -1):
        w = twist_form(acfm111, sign)
        for degree in range(5):
            for mono in acfm111.basis.monomials(degree):
                theta = acfm111.basis.monomial_form(mono)
                assert d_omega(acfm111, w, d_omega(acfm111, w, theta)).is_zero()


def test_d_omega_on_constants(acfm111):
    w = twist_form(acfm111, -1)
    c = acfm111.basis.one(Fraction(3))
    assert d_omega(acfm111, w, c) == 3 * w


def test_lie_derivative_examples(acfm111):
    z = frame_field(acfm111.basis, 2)
    x = frame_field(acfm111.basis, 0)
    alpha, gamma = acfm111.basis.gen(0), acfm111.basis.gen(2)
    assert lie_derivative(acfm111, z, alpha) == alpha  # k = 1
    assert lie_derivative(acfm111, x, gamma).is_zero()


def test_lie_derivative_is_derivation(acfm111):
    rng = random.Random(7)
    v = V(acfm111, 1, -2, 3, Fraction(1, 2))
    for _ in range(10):
        a = acfm111.basis.monomial_form(
            tuple(sorted(rng.sample(range(4), 2))), Fraction(rng.randint(-3, 3) or 1)
        )
        b = acfm111.basis.gen(rng.randrange(4))
        lhs = lie_derivative(acfm111, v, a.wedge(b))
        rhs = lie_derivative(acfm111, v, a).wedge(b) + a.wedge(
            lie_derivative(acfm111, v, b)
        )
        assert lhs == rhs


def test_lie_derivative_commutes_with_d(acfm111):
    v = V(acfm111, 2, 1, -1, 3)
    for mono in acfm111.basis.monomials(2):
        theta = acfm111.basis.monomial_form(mono)
        assert d(acfm111, lie_derivative(acfm111, v, theta)) == lie_derivative(
            acfm111, v, d(acfm111, theta)
        )


def test_unimodular(acfm111, torus4):
    assert is_unimodular(acfm111)
    assert is_unimodular(torus4)
    affine = parse_algebra_text("generators e1 e2\nd e1 = 1 e1^e2\n")
    assert not is_unimodular(affine)


def test_d2_iff_jacobi_randomized():
    rng = random.Random(20240607)
    passes = fails = 0
    for _ in range(60):
        n = rng.randint(3, 5)
        alg = random_good_algebra(rng, n)
        if rng.random() < 0.5:
            alg = perturb_algebra(rng, alg)
        ok_d2 = check_d2(alg).ok
        ok_jac = jacobi_check(brackets_from_d(alg)).ok
        assert ok_d2 == ok_jac
        passes += ok_d2
        fails += not ok_d2
    assert passes >= 10 and fails >= 10
