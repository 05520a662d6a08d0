from fractions import Fraction
from pathlib import Path

import pytest

from helpers import F, V, fraction_nullspace
from lcscalc.cecomplex import d, d_omega, lie_derivative
from lcscalc.errors import (
    DegreeMismatch,
    Degenerate,
    LeeNotClosed,
    NoSolution,
    NotAutomorphism,
    ParamModeUnsupported,
    ZeroForm,
)
from lcscalc.cohomology import primitive
from lcscalc.exterior import evaluate_one_form, form_str, frame_field
from lcscalc.lcs import (
    automorphism_algebra,
    compare_classes,
    dual_field,
    exactness_via_lee,
    frobenius_integrable,
    involutive,
    is_lcs,
    lee_form,
    lee_homomorphism,
    restricted_gram,
    restricted_rank,
    top_power,
    verify_moser_family,
)
from lcscalc.presets import (
    acfm_rational,
    acfm_symbolic,
    exact_lcs,
    omega_s,
    omega_t,
    twist_form,
)
from lcscalc.scalar import parse_scalar, scalar_str
from lcscalc.specfile import parse_algebra_file, parse_algebra_text


@pytest.fixture
def symplectic_torus(torus4):
    return F(torus4, "1 e1^e2 + 1 e3^e4")


def test_top_power_symbolic():
    alg = acfm_symbolic(("t1", "t2", "t3", "s1", "s2", "s3"))
    m = alg.mode
    pf_t = top_power(alg, omega_t(alg, m.symbol("t1"), m.symbol("t2"), m.symbol("t3")))
    pf_s = top_power(alg, omega_s(alg, m.symbol("s1"), m.symbol("s2"), m.symbol("s3")))
    assert pf_t == parse_scalar("2*(t1*t2 - n*k*lambda*t3*t3)", m)
    assert pf_s == parse_scalar("-2*(s1*s2 - n*k*lambda*s3*s3)", m)


def test_top_power_degenerate_instance(acfm111):
    assert top_power(acfm111, omega_t(acfm111, 1, 1, 1)) == 0


def test_lee_form_families(acfm111):
    assert lee_form(acfm111, omega_t(acfm111, 2, 1, 0)) == F(acfm111, "-1 gamma")
    assert lee_form(acfm111, omega_s(acfm111, 1, 1, 0)) == F(acfm111, "1 gamma")


def test_lee_form_symplectic_is_zero(torus4, symplectic_torus):
    assert lee_form(torus4, symplectic_torus).is_zero()


def test_lee_form_symbolic():
    alg = acfm_symbolic(("t1", "t2", "t3"))
    m = alg.mode
    omega2 = omega_t(alg, m.symbol("t1"), m.symbol("t2"), m.symbol("t3"))
    assert lee_form(alg, omega2) == twist_form(alg, -1)


def test_lee_form_errors(acfm111):
    with pytest.raises(Degenerate):
        lee_form(acfm111, omega_t(acfm111, 1, 1, 1))
    # solvable but with a non-closed solution
    with pytest.raises(LeeNotClosed):
        lee_form(acfm111, F(acfm111, "1 alpha^eta + 1 gamma^eta + 1 beta^gamma"))


def test_top_power_needs_a_2_form(acfm111):
    for text in ("1 alpha", "1 alpha^beta^gamma", "2"):
        with pytest.raises(DegreeMismatch):
            top_power(acfm111, F(acfm111, text))
    assert top_power(acfm111, F(acfm111, "0")) == 0


def test_lee_form_no_solution_in_dim_six():
    alg = parse_algebra_text(
        "generators f1 f2 f3 f4 f5 f6\nd f1 = 1 f3^f5\n"
    )
    omega2 = F(alg, "1 f1^f2 + 1 f3^f4 + 1 f5^f6")
    assert top_power(alg, omega2) != 0
    with pytest.raises(NoSolution):
        lee_form(alg, omega2)


def test_is_lcs_certificate(acfm111):
    cert = is_lcs(acfm111, omega_t(acfm111, 2, 1, 0))
    assert cert.pfaffian == 4
    assert cert.lee == F(acfm111, "-1 gamma")
    assert d(acfm111, cert.omega_form) == -cert.lee.wedge(cert.omega_form)
    assert d_omega(acfm111, cert.lee, cert.omega_form).is_zero()


def test_scaling_invariance(acfm111):
    omega2 = omega_t(acfm111, 2, 1, 0)
    cert = is_lcs(acfm111, omega2)
    for c in (Fraction(3), Fraction(-1, 2)):
        scaled = is_lcs(acfm111, c * omega2)
        assert scaled.lee == cert.lee
        autos = automorphism_algebra(acfm111, cert)
        autos_scaled = automorphism_algebra(acfm111, scaled)
        assert [p for p, _ in autos.pairs] == [p for p, _ in autos_scaled.pairs]
        assert [m for _, m in autos.pairs] == [m for _, m in autos_scaled.pairs]


def test_automorphism_algebra_t_family(acfm111):
    cert = is_lcs(acfm111, omega_t(acfm111, 2, 1, 0))
    autos = automorphism_algebra(acfm111, cert)
    assert autos.dimension == 2
    k = Fraction(1)
    gamma_idx = 2
    for field, mu in autos.pairs:
        assert lie_derivative(acfm111, field, cert.omega_form) == mu * cert.omega_form
        assert mu == k * field.coeffs[gamma_idx]  # mu = k*gamma(X)
        assert field.coeffs[gamma_idx] == 0
        assert mu == 0


def test_automorphism_algebra_abelian(torus4, symplectic_torus):
    cert = is_lcs(torus4, symplectic_torus)
    autos = automorphism_algebra(torus4, cert)
    assert autos.dimension == 4
    assert all(mu == 0 for _, mu in autos.pairs)


def test_automorphism_algebra_param_mode_rejected():
    alg = acfm_symbolic()
    omega2 = omega_t(alg, alg.mode.one(), alg.mode.one(), alg.mode.zero())
    cert_pf = top_power(alg, omega2)
    assert cert_pf
    from lcscalc.lcs import LcsForm

    cert = LcsForm(omega2, twist_form(alg, -1), cert_pf)
    with pytest.raises(ParamModeUnsupported):
        automorphism_algebra(alg, cert)


def test_lee_homomorphism_trivial_on_t_family(acfm111):
    cert = is_lcs(acfm111, omega_t(acfm111, 2, 1, 0))
    autos = automorphism_algebra(acfm111, cert)
    for field, mu in autos.pairs:
        assert lee_homomorphism(acfm111, cert, field, mu) == 0


def test_lee_homomorphism_on_exact_form(acfm111):
    cert = is_lcs(acfm111, exact_lcs(acfm111, -1))
    eta = acfm111.basis.gen(3)
    field = dual_field(acfm111, cert, eta)
    mu = 1 - evaluate_one_form(cert.lee, field)
    assert lee_homomorphism(acfm111, cert, field, mu) == 1


def test_lee_homomorphism_linearity(acfm111):
    cert = is_lcs(acfm111, exact_lcs(acfm111, -1))
    autos = automorphism_algebra(acfm111, cert)
    (f1, m1), (f2, m2) = autos.pairs[0], autos.pairs[1]
    l1 = lee_homomorphism(acfm111, cert, f1, m1)
    l2 = lee_homomorphism(acfm111, cert, f2, m2)
    a, b = Fraction(2), Fraction(-3)
    combo_field = a * f1 + b * f2
    combo_mu = a * m1 + b * m2
    assert lee_homomorphism(acfm111, cert, combo_field, combo_mu) == a * l1 + b * l2


def test_lee_homomorphism_rejects_non_automorphism(acfm111):
    cert = is_lcs(acfm111, omega_t(acfm111, 2, 1, 0))
    x = frame_field(acfm111.basis, 0)
    with pytest.raises(NotAutomorphism):
        lee_homomorphism(acfm111, cert, x, Fraction(0))


def test_dual_field_examples(torus4, symplectic_torus, acfm111):
    cert = is_lcs(torus4, symplectic_torus)
    field = dual_field(torus4, cert, torus4.basis.gen(0))
    assert field.coeffs == (0, -1, 0, 0)
    assert dual_field(torus4, cert, torus4.basis.zero(1)).is_zero()

    cert_e = is_lcs(acfm111, exact_lcs(acfm111, -1))
    eta = acfm111.basis.gen(3)
    x = dual_field(acfm111, cert_e, eta)
    lhs = lie_derivative(acfm111, x, cert_e.omega_form)
    factor = 1 - evaluate_one_form(cert_e.lee, x)
    assert lhs == factor * cert_e.omega_form


def test_exactness_via_lee_agreement(acfm111, torus4, symplectic_torus):
    report = exactness_via_lee(acfm111, is_lcs(acfm111, omega_t(acfm111, 2, 1, 0)))
    assert not report.exact
    assert all(v == 0 for v in report.lee_values)

    report = exactness_via_lee(acfm111, is_lcs(acfm111, exact_lcs(acfm111, -1)))
    assert report.exact
    assert any(abs(v) == 1 for v in report.lee_values)

    report = exactness_via_lee(torus4, is_lcs(torus4, symplectic_torus))
    assert not report.exact  # d = 0, so the image is trivial
    assert all(v == 0 for v in report.lee_values)


def test_compare_classes_separates_exact_from_nonexact(acfm111):
    a = is_lcs(acfm111, omega_t(acfm111, 2, 1, 0))
    b = is_lcs(acfm111, exact_lcs(acfm111, -1))
    comparison = compare_classes(acfm111, a, b)
    assert comparison.comparable
    assert not comparison.cohomologous
    assert comparison.conformally_distinct
    c = is_lcs(acfm111, omega_s(acfm111, 1, 1, 0))
    cross = compare_classes(acfm111, a, c)
    assert not cross.comparable
    assert cross.cohomologous is None


@pytest.mark.parametrize(
    "ta, tb, cohomologous",
    [((2, 1, 0), (2, 3, 0), True), ((2, 1, 0), (3, 1, 0), False), ((0, 1, 1), (0, 2, 1), True)],
)
def test_compare_classes_on_a_shared_lee_form(acfm111, ta, tb, cohomologous):
    """t-family classes are t1 times [alpha^eta]: equal iff t1 is, exact iff t1 = 0."""
    a = is_lcs(acfm111, omega_t(acfm111, *ta))
    b = is_lcs(acfm111, omega_t(acfm111, *tb))
    comparison = compare_classes(acfm111, a, b)
    assert comparison.comparable
    assert comparison.cohomologous is cohomologous
    assert (comparison.exact_a, comparison.exact_b) == (ta[0] == 0, tb[0] == 0)


def test_verify_moser_family_pass(acfm111):
    family = [
        omega_t(acfm111, 2, Fraction(1) + t, 0)
        for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    ]
    report = verify_moser_family(acfm111, family)
    assert report.ok
    assert report.lee == F(acfm111, "-1 gamma")
    assert report.members[0].difference_primitive.is_zero()
    assert all(m.pfaffian != 0 for m in report.members)
    for member, omega2 in zip(report.members, family):
        prim = member.difference_primitive
        assert d_omega(acfm111, report.lee, prim) == omega2 - family[0]


def test_verify_moser_family_crossing_pfaffian_sign(acfm111):
    # sampled points stay nondegenerate even though the path between them
    # crosses the degeneracy locus
    family = [omega_t(acfm111, 2, 1, 0), omega_t(acfm111, 2, 1, 2)]
    report = verify_moser_family(acfm111, family)
    assert report.ok
    assert report.members[0].pfaffian == 4
    assert report.members[1].pfaffian == -4


def test_verify_moser_family_degenerate_member(acfm111):
    family = [omega_t(acfm111, 1, 4, t3) for t3 in (0, 1, 2, 3)]
    report = verify_moser_family(acfm111, family)
    assert not report.ok
    assert report.failed_index == 2  # 1*4 = t3^2 exactly at t3 = 2
    assert "Degenerate" in report.reason


def test_verify_moser_family_singleton(acfm111):
    report = verify_moser_family(acfm111, [omega_t(acfm111, 2, 1, 0)])
    assert report.ok


def test_frobenius_integrability(acfm111):
    alpha, beta, gamma, eta = (acfm111.basis.gen(i) for i in range(4))
    assert frobenius_integrable(acfm111, alpha)
    assert frobenius_integrable(acfm111, beta)
    assert frobenius_integrable(acfm111, gamma)
    assert not frobenius_integrable(acfm111, eta)
    assert eta.wedge(d(acfm111, eta)) == F(acfm111, "1 alpha^beta^eta")
    with pytest.raises(ZeroForm):
        frobenius_integrable(acfm111, acfm111.basis.zero(1))


def test_involutive_pairs(acfm111):
    for pair in (("beta", "gamma"), ("alpha", "eta"), ("beta", "eta"), ("gamma", "eta")):
        assert involutive(acfm111, pair).ok
    result = involutive(acfm111, ("alpha", "beta"))
    assert not result.ok
    assert result.pair == (0, 1)
    assert result.bracket == -1 * frame_field(acfm111.basis, 3)  # -n*lambda T


def test_restricted_rank(acfm111):
    ae = F(acfm111, "1 alpha^eta")
    assert restricted_rank(acfm111, ae, ("alpha", "eta")) == 2
    assert restricted_rank(acfm111, ae, ("alpha", "beta", "eta")) == 2
    assert restricted_rank(acfm111, ae, ("alpha",)) == 0
    gram = restricted_gram(acfm111, ae, ("alpha", "beta", "eta"))
    kernel = fraction_nullspace(gram, 3)
    assert len(kernel) == 1
    assert kernel[0] == [0, 1, 0]  # spanned by the beta-dual direction


def test_restricted_rank_refuses_symbolic_coefficients():
    # the rank of t1 alpha^eta on alpha, eta is 2 for t1 != 0 and 0 at t1 = 0
    alg = acfm_symbolic(("t1",))
    form = F(alg, "t1 alpha^eta + 1 beta^gamma")
    with pytest.raises(ParamModeUnsupported, match="restricted rank"):
        restricted_rank(alg, form, ("alpha", "eta"))
    assert restricted_gram(alg, form, ("alpha", "eta"))[0][1] == parse_scalar("t1", alg.mode)


# the preset in the symbols n k lambda t1 t2 t3, rewritten in the dense sign
# frame f = M e with rows (1,-1,1,-1), (-1,-1,1,-1), (-1,-1,-1,1), (1,-1,-1,-1)
DENSE_SYMBOLIC_PRESET = """\
params n k lambda t1 t2 t3
generators e1 e2 e3 e4
d e1 = (-1/4*k + 1/4*lambda*n) e1^e2 + (-1/4*k + 1/4*lambda*n) e1^e3 + (-1/4*lambda*n) e2^e3 + (-1/4*k) e2^e4 + (-1/4*k) e3^e4
d e2 = (1/4*k + 1/4*lambda*n) e1^e2 + (-1/4*k + 1/4*lambda*n) e1^e3 + (-1/2*k) e1^e4 + (-1/4*lambda*n) e2^e3 + (1/4*k) e2^e4 + (-1/4*k) e3^e4
d e3 = (1/4*k - 1/4*lambda*n) e1^e2 + (-1/4*k - 1/4*lambda*n) e1^e3 + (-1/2*k) e1^e4 + (1/4*lambda*n) e2^e3 + (1/4*k) e2^e4 + (-1/4*k) e3^e4
d e4 = (-1/4*k + 1/4*lambda*n) e1^e2 + (-1/4*k + 1/4*lambda*n) e1^e3 + (-1/4*lambda*n) e2^e3 + (-1/4*k) e2^e4 + (-1/4*k) e3^e4
"""


def test_symbolic_certificate_text_in_a_dense_frame():
    """Parameter-mode is_lcs and primitive, pinned to their exact text.

    Omega_t in the frame has Lee form -k gamma; with t1 = 0 it is d_w-exact.
    The CLI refuses parameter mode before its first solve, so this is the
    byte-level check of a symbolic elimination.
    """
    alg = parse_algebra_text(DENSE_SYMBOLIC_PRESET)
    omega = F(alg, "(1/4*k*t3 - 1/4*lambda*n*t3) e1^e2 "
                   "+ (-1/4*k*t3 - 1/4*lambda*n*t3 + 1/4*t1 + 1/4*t2) e1^e3 "
                   "+ (-1/4*t1 + 1/4*t2) e1^e4 + (1/4*lambda*n*t3 - 1/4*t1) e2^e3 "
                   "+ (1/4*k*t3 + 1/4*t1) e2^e4 + (-1/4*k*t3 + 1/4*t2) e3^e4")
    exact = F(alg, "(1/4*k*t3 - 1/4*lambda*n*t3) e1^e2 "
                   "+ (-1/4*k*t3 - 1/4*lambda*n*t3 + 1/4*t2) e1^e3 + (1/4*t2) e1^e4 "
                   "+ (1/4*lambda*n*t3) e2^e3 + (1/4*k*t3) e2^e4 + (-1/4*k*t3 + 1/4*t2) e3^e4")
    cert = is_lcs(alg, omega)
    assert scalar_str(cert.pfaffian) == "(-t1*t2 + n*k*lambda*t3^2)/(4)"
    assert form_str(cert.lee) == "(-k)/(2) e1 + (k)/(2) e4"
    prim = primitive(alg, cert.lee, exact)
    assert prim.exact
    assert form_str(prim.primitive) == (
        "(-t2 - 2*k*t3)/(4*k) e1 + (-t2 + 2*k*t3)/(4*k) e3"
    )


@pytest.mark.parametrize(
    "form, target, pfaffian, lee, prim_text",
    [
        (
            "1/3*k alpha^eta + 1/2*lambda beta^gamma",
            "1/2*lambda beta^gamma",
            "(k*lambda)/(3)",
            "-k gamma",
            "(lambda)/(4*k) beta",
        ),
        (
            "(k+1)/3 alpha^eta + 2/k beta^gamma + 1/5*lambda alpha^beta - 1/5*k gamma^eta",
            "2/k beta^gamma + 1/5*lambda alpha^beta - 1/5*k gamma^eta",
            "(100 + 100*k - 6*k^2*lambda)/(75*k)",
            "-k gamma",
            "(1)/(k^2) beta + 1/5 eta",
        ),
    ],
)
def test_symbolic_certificate_text_on_the_params_preset(form, target, pfaffian, lee, prim_text):
    """Parameter-mode is_lcs and primitive on tests/golden/params.alg, pinned
    to their exact text: constant denominators from parsed coefficients and a
    polynomial denominator left by the solve."""
    alg = parse_algebra_file(str(Path(__file__).parent / "golden" / "params.alg"))
    cert = is_lcs(alg, F(alg, form))
    assert scalar_str(cert.pfaffian) == pfaffian
    assert form_str(cert.lee) == lee
    prim = primitive(alg, cert.lee, F(alg, target))
    assert prim.exact
    assert form_str(prim.primitive) == prim_text
