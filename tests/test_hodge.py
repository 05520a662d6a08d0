from fractions import Fraction
from itertools import combinations

import pytest

from helpers import F
from lcscalc.cecomplex import d_omega, is_unimodular
from lcscalc.errors import DegreeMismatch, InvalidMetric, MixedModes, ParamModeUnsupported
from lcscalc.exterior import Basis, Form
from lcscalc.hodge import (
    codiff,
    decomposition_dims,
    delta_omega,
    harmonic_space,
    inner,
    star,
    u_omega,
)
from lcscalc.presets import acfm_rational, acfm_symbolic, twist_form
from lcscalc.specfile import parse_algebra_text


def test_star_examples(acfm111):
    b = acfm111.basis
    assert star(acfm111, b.gen(0)) == F(acfm111, "1 beta^gamma^eta")
    # sign of the permutation (1,4,2,3) is +1 (two inversions)
    assert star(acfm111, F(acfm111, "1 alpha^eta")) == F(acfm111, "1 beta^gamma")
    assert star(acfm111, F(acfm111, "1 alpha^gamma")) == F(acfm111, "-1 beta^eta")
    assert star(acfm111, b.one()) == b.volume()
    assert star(acfm111, b.volume()) == b.one()


def test_star_defining_property(acfm111):
    # rho ^ star(nu) has volume coefficient <rho, nu> for all monomial pairs
    b = acfm111.basis
    top = tuple(range(4))
    for degree in range(5):
        monos = list(b.monomials(degree))
        for i in monos:
            for j in monos:
                rho, nu = b.monomial_form(i), b.monomial_form(j)
                coeff = rho.wedge(star(acfm111, nu)).coefficient(top) or Fraction(0)
                assert coeff == inner(acfm111, rho, nu)
                assert inner(acfm111, rho, nu) == (1 if i == j else 0)


def test_double_star_sign_law():
    for n in (4, 5):
        alg = parse_algebra_text(
            "generators " + " ".join(f"e{i}" for i in range(n)) + "\n"
        )
        for degree in range(n + 1):
            sign = (-1) ** (degree * (n - degree))
            for mono in alg.basis.monomials(degree):
                theta = alg.basis.monomial_form(mono)
                assert star(alg, star(alg, theta)) == sign * theta


def test_star_with_square_metric():
    alg = parse_algebra_text(
        "generators e1 e2\nmetric diag 4 (1/9)\n"
    )
    assert star(alg, alg.basis.gen(0)) == Fraction(1, 6) * alg.basis.gen(1)
    sign = (-1) ** (1 * 1)
    theta = alg.basis.gen(0)
    assert star(alg, star(alg, theta)) == sign * theta
    assert inner(alg, theta, theta) == Fraction(1, 4)


def test_star_skips_the_weights_of_the_identity_metric(acfm_sym, monkeypatch):
    """In parameter mode a weight of 1 would cost a ParamScalar product and gcd."""
    from lcscalc.scalar import ParamScalar

    k = acfm_sym.mode.symbol("k")
    forms = [
        Form(acfm_sym.basis, degree, {m: k for m in acfm_sym.basis.monomials(degree)})
        for degree in range(5)
    ]
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):

        def counted(*args, _fn=getattr(ParamScalar, name), **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ParamScalar, name, counted)
    images = [star(acfm_sym, theta) for theta in forms]
    assert not calls
    monkeypatch.undo()
    for theta, image in zip(forms, images):
        assert star(acfm_sym, image) == (-1) ** (theta.degree * (4 - theta.degree)) * theta


def test_non_square_metric_rejected():
    alg = parse_algebra_text("generators e1 e2\nmetric diag 2 1\n")
    with pytest.raises(InvalidMetric):
        star(alg, alg.basis.gen(0))


def test_codiff_examples(acfm111):
    assert codiff(acfm111, F(acfm111, "1 alpha^gamma^eta")) == F(acfm111, "-1 alpha^eta")
    assert codiff(acfm111, acfm111.basis.gen(0)).is_zero()
    assert codiff(acfm111, acfm111.basis.one(Fraction(5))).is_zero()


def test_u_omega_examples(acfm111):
    w = twist_form(acfm111, -1)
    assert u_omega(acfm111, w, F(acfm111, "1 alpha^gamma^eta")) == F(acfm111, "1 alpha^eta")
    assert u_omega(acfm111, w, acfm111.basis.gen(0)).is_zero()
    zero = acfm111.basis.zero(1)
    assert u_omega(acfm111, zero, F(acfm111, "1 alpha^gamma^eta")).is_zero()


def test_delta_omega_examples(acfm111):
    w = twist_form(acfm111, -1)
    assert delta_omega(acfm111, w, F(acfm111, "1 alpha^gamma^eta")).is_zero()
    assert delta_omega(acfm111, w, F(acfm111, "1 alpha^eta")).is_zero()
    zero = acfm111.basis.zero(1)
    for mono in acfm111.basis.monomials(2):
        theta = acfm111.basis.monomial_form(mono)
        assert delta_omega(acfm111, zero, theta) == codiff(acfm111, theta)


def test_delta_omega_squares_to_zero(acfm111):
    for sign in (1, -1):
        w = twist_form(acfm111, sign)
        for degree in range(5):
            for mono in acfm111.basis.monomials(degree):
                theta = acfm111.basis.monomial_form(mono)
                assert delta_omega(acfm111, w, delta_omega(acfm111, w, theta)).is_zero()


def test_inner_orthonormality(acfm111):
    alpha = acfm111.basis.gen(0)
    assert inner(acfm111, alpha, alpha) == 1
    assert inner(acfm111, F(acfm111, "1 alpha^eta"), F(acfm111, "1 beta^gamma")) == 0
    with pytest.raises(DegreeMismatch):
        inner(acfm111, alpha, F(acfm111, "1 alpha^eta"))


def test_adjointness_on_unimodular(acfm111):
    for sign_form in (acfm111.basis.zero(1), twist_form(acfm111, -1), twist_form(acfm111, 1)):
        for degree in range(4):
            for i in acfm111.basis.monomials(degree):
                for j in acfm111.basis.monomials(degree + 1):
                    rho = acfm111.basis.monomial_form(i)
                    nu = acfm111.basis.monomial_form(j)
                    lhs = inner(acfm111, d_omega(acfm111, sign_form, rho), nu)
                    rhs = inner(acfm111, rho, delta_omega(acfm111, sign_form, nu))
                    assert lhs == rhs


@pytest.mark.parametrize(
    "text",
    [
        "generators e1 e2\nd e1 = 1 e1^e2\n",
        "generators e1 e2 e3 e4\nd e1 = 1 e1^e4\nd e2 = -1 e2^e4\nd e3 = 2 e3^e4\n"
        "metric diag 4 1 (1/9) 9\n",
    ],
    ids=["aff1", "RxR3-metric"],
)
def test_adjointness_without_unimodularity(text):
    """<d_w a, b> = <a, delta_w b> on every monomial pair where the trace form is not zero."""
    alg = parse_algebra_text(text)
    assert not is_unimodular(alg)
    last = alg.basis.gen(alg.dim - 1)  # closed, so each multiple is a twist
    for w in (alg.basis.zero(1), last, -1 * last, 3 * last, -2 * last):
        for degree in range(alg.dim):
            for i in alg.basis.monomials(degree):
                for j in alg.basis.monomials(degree + 1):
                    rho = alg.basis.monomial_form(i)
                    nu = alg.basis.monomial_form(j)
                    lhs = inner(alg, d_omega(alg, w, rho), nu)
                    assert lhs == inner(alg, rho, delta_omega(alg, w, nu))
                    if w.is_zero():
                        assert lhs == inner(alg, rho, codiff(alg, nu))


def test_harmonic_space_examples(acfm111):
    w = twist_form(acfm111, -1)
    space = harmonic_space(acfm111, w, 2)
    assert F(acfm111, "1 alpha^eta") in space.basis
    wp = twist_form(acfm111, 1)
    space_p = harmonic_space(acfm111, wp, 2)
    assert F(acfm111, "1 beta^eta") in space_p.basis
    assert harmonic_space(acfm111, w, 0).dimension == 0


def test_harmonic_space_rejects_param_mode(acfm_sym):
    w = twist_form(acfm_sym, -1)
    with pytest.raises(ParamModeUnsupported):
        harmonic_space(acfm_sym, w, 2)


def test_rational_algebra_refuses_a_symbolic_twist(acfm111, acfm_sym):
    """The integer rows of a rational complex have no place for a symbol."""
    w = Form(acfm111.basis, 1, {(2,): acfm_sym.mode.symbol("k")})
    with pytest.raises(MixedModes):
        harmonic_space(acfm111, w, 2)


def test_decomposition_dims(acfm111, torus4):
    w = twist_form(acfm111, -1)
    assert decomposition_dims(acfm111, w, 0) == (0, 0, 1)
    for degree in range(5):
        from math import comb

        assert sum(decomposition_dims(acfm111, w, degree)) == comb(4, degree)
    assert decomposition_dims(torus4, torus4.basis.zero(1), 1) == (4, 0, 0)


def test_decomposition_orthogonality(acfm111):
    w = twist_form(acfm111, -1)
    for degree in range(5):
        harmonic = harmonic_space(acfm111, w, degree).basis
        exact = [
            d_omega(acfm111, w, acfm111.basis.monomial_form(m))
            for m in acfm111.basis.monomials(degree - 1)
        ] if degree > 0 else []
        coexact = [
            delta_omega(acfm111, w, acfm111.basis.monomial_form(m))
            for m in acfm111.basis.monomials(degree + 1)
        ] if degree < 4 else []
        for h in harmonic:
            for e in exact:
                assert inner(acfm111, h, e) == 0
            for c in coexact:
                assert inner(acfm111, h, c) == 0
        for e in exact:
            for c in coexact:
                assert inner(acfm111, e, c) == 0


def test_star_conjugates_harmonicity(acfm111):
    for sign in (1, -1):
        w = twist_form(acfm111, sign)
        neg = twist_form(acfm111, -sign)
        for degree in range(5):
            for theta in harmonic_space(acfm111, w, degree).basis:
                image = star(acfm111, theta)
                assert d_omega(acfm111, neg, image).is_zero()
                assert delta_omega(acfm111, neg, image).is_zero()
