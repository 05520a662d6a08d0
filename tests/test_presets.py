import dataclasses
import random
from fractions import Fraction

import pytest

from helpers import F
from lcscalc.cecomplex import check_d2, d
from lcscalc.cohomology import primitive
from lcscalc import presets
from lcscalc.errors import Degenerate, InvalidParams, MathError
from lcscalc.lcs import is_lcs, top_power
from lcscalc.presets import (
    FAMILY_SYMBOLS,
    THEOREM1_GRID,
    AcfmParams,
    acfm,
    acfm_rational,
    acfm_symbolic,
    exact_lcs,
    family_pfaffian,
    omega_s,
    omega_t,
    theorem1,
    twist_form,
)
from lcscalc.scalar import ScalarMode, parse_scalar
from lcscalc.specfile import parse_algebra_text


def test_rational_structure(acfm111):
    assert d(acfm111, acfm111.basis.gen(3)) == F(acfm111, "1 alpha^beta")
    assert check_d2(acfm111).ok
    assert all(g == 1 for g in acfm111.metric)


def test_symbolic_structure(acfm_sym):
    k = acfm_sym.mode.symbol("k")
    alpha, gamma = acfm_sym.basis.gen(0), acfm_sym.basis.gen(2)
    assert d(acfm_sym, alpha) == (-k) * alpha.wedge(gamma)


def test_invalid_params():
    with pytest.raises(InvalidParams):
        acfm_rational(0, 1, 1)
    with pytest.raises(InvalidParams):
        acfm_rational(1, 0, 1)
    with pytest.raises(InvalidParams):
        acfm_rational(1, 1, 0)
    with pytest.raises(InvalidParams):
        acfm_rational(Fraction(1, 2), 1, 1)  # n must be an integer


def test_omega_t_display(acfm111):
    assert omega_t(acfm111, 2, 1, 0) == F(acfm111, "2 alpha^eta + 1 beta^gamma")
    assert omega_s(acfm111, 1, 1, 0) == F(acfm111, "1 beta^eta + 1 alpha^gamma")


def test_omega_t_decomposition(acfm111):
    # t-family minus its class representative is exact with a known primitive
    w = twist_form(acfm111, -1)
    t1, t2, t3 = Fraction(3), Fraction(2), Fraction(5)
    omega2 = omega_t(acfm111, t1, t2, t3)
    head = t1 * F(acfm111, "1 alpha^eta")
    cert = primitive(acfm111, w, omega2 - head)
    assert cert.exact
    k = Fraction(1)
    expected = (t2 / (2 * k)) * acfm111.basis.gen(1) + t3 * acfm111.basis.gen(3)
    assert cert.primitive == expected


def test_omega_s_decomposition(acfm111):
    w = twist_form(acfm111, 1)
    s1, s2, s3 = Fraction(2), Fraction(3), Fraction(1)
    omega2 = omega_s(acfm111, s1, s2, s3)
    head = s1 * F(acfm111, "1 beta^eta")
    cert = primitive(acfm111, w, omega2 - head)
    assert cert.exact
    k = Fraction(1)
    expected = (-s2 / (2 * k)) * acfm111.basis.gen(0) + s3 * acfm111.basis.gen(3)
    assert cert.primitive == expected


def test_exact_lcs_values(acfm111):
    assert exact_lcs(acfm111, -1) == F(acfm111, "1 alpha^beta - 1 gamma^eta")
    assert exact_lcs(acfm111, 1) == F(acfm111, "1 alpha^beta + 1 gamma^eta")
    assert top_power(acfm111, exact_lcs(acfm111, -1)) == -2
    assert top_power(acfm111, exact_lcs(acfm111, 1)) == top_power(
        acfm111, omega_s(acfm111, 0, 0, 1)
    )


def test_exact_forms_match_family_instances(acfm111):
    assert exact_lcs(acfm111, -1) == omega_t(acfm111, 0, 0, 1)
    assert exact_lcs(acfm111, 1) == omega_s(acfm111, 0, 0, 1)


def test_lee_forms_over_instances():
    for n, k, lam in ((1, 1, 1), (2, Fraction(1, 2), 3), (-1, 2, Fraction(1, 3))):
        alg = acfm_rational(n, k, lam)
        cert_t = is_lcs(alg, omega_t(alg, 2, 1, 0))
        assert cert_t.lee == (-Fraction(k)) * alg.basis.gen(2)
        cert_s = is_lcs(alg, omega_s(alg, 1, 1, 0))
        assert cert_s.lee == Fraction(k) * alg.basis.gen(2)


def test_conformal_kaehler_instance():
    # the metric-compatible instance: first family at (n*lambda/k, 1, 0)
    for n, k, lam in ((1, 1, 1), (2, Fraction(1, 2), 3)):
        alg = acfm_rational(n, k, lam)
        t1 = Fraction(n) * Fraction(lam) / Fraction(k)
        cert = is_lcs(alg, omega_t(alg, t1, 1, 0))
        assert cert.lee == (-Fraction(k)) * alg.basis.gen(2)
        assert cert.pfaffian == 2 * t1


NOT_PRESET = [
    "generators a\n",
    "generators a b c\nd a = 1 b^c\n",
    # the preset's names, but d alpha and d beta disagree on k
    "generators alpha beta gamma eta\n"
    "d alpha = -1 alpha^gamma\nd beta = 2 beta^gamma\nd eta = 1 alpha^beta\n",
]


@pytest.mark.parametrize("text", NOT_PRESET, ids=["one", "three", "wrong-k"])
@pytest.mark.parametrize(
    "helper",
    [
        lambda alg: omega_t(alg, 1, 1, 1),
        lambda alg: omega_s(alg, 1, 1, 1),
        lambda alg: twist_form(alg, 1),
        lambda alg: exact_lcs(alg, -1),
    ],
    ids=["omega_t", "omega_s", "twist_form", "exact_lcs"],
)
def test_helpers_refuse_algebras_without_the_preset_structure(text, helper):
    alg = parse_algebra_text(text)
    with pytest.raises(InvalidParams, match="algebra does not carry the preset structure data"):
        helper(alg)


def test_param_mode_n_symbolic():
    mode = ScalarMode.params("n", "k", "lambda")
    alg = acfm(AcfmParams(mode.symbol("n"), mode.symbol("k"), mode.symbol("lambda")), mode)
    assert check_d2(alg).ok


# Top powers by hand: Omega^2 = 2 Pf(Omega) alpha^beta^gamma^eta, with
# Pf = a01 a23 - a02 a13 + a03 a12 on the coefficients a_ij of e_i^e_j.
# t family: a03 = t1, a12 = t2, a01 = n*lambda*t3, a23 = -k*t3.
# s family: a13 = s1, a02 = s2, a01 = n*lambda*s3, a23 = k*s3.
PFAFFIANS = {
    "t": "2*(t1*t2 - n*k*lambda*t3^2)",
    "s": "2*(n*k*lambda*s3^2 - s1*s2)",
}


@pytest.mark.parametrize("family", ["t", "s"])
def test_family_pfaffian_symbolic(family):
    mode = ScalarMode.params("n", "k", "lambda", *FAMILY_SYMBOLS)
    assert family_pfaffian(family) == parse_scalar(PFAFFIANS[family], mode)


@pytest.mark.parametrize("family", ["t", "s"])
def test_family_pfaffian_numeric(family):
    mode = ScalarMode.params(*FAMILY_SYMBOLS)
    expected = PFAFFIANS[family].replace("n*k*lambda", "(2*3*5)")
    value = family_pfaffian(family, AcfmParams(Fraction(2), Fraction(3), Fraction(5)))
    assert value == parse_scalar(expected, mode)


def test_family_pfaffian_rejects_unknown_families_and_params():
    with pytest.raises(InvalidParams):
        family_pfaffian("u")
    with pytest.raises(InvalidParams):
        family_pfaffian("t", AcfmParams(Fraction(1), Fraction(0), Fraction(1)))


# (1, 1, 2) makes the grid point (2, 1, 1) degenerate: c1*c2 = n*k*lambda*c3^2
@pytest.mark.parametrize("n,k,lam", [(1, 2, 3), (1, 1, 2)])
def test_theorem1_certifies_both_families(n, k, lam):
    results = theorem1(n, k, lam)
    alg = acfm_rational(n, k, lam)
    assert [r.family for r in results] == ["t", "s"]
    for r, sign, rep in zip(results, (-1, 1), ("1 alpha^eta", "1 beta^eta")):
        assert r.lee == twist_form(alg, sign)
        assert r.representative == F(alg, rep)
        assert r.pfaffian == family_pfaffian(r.family, AcfmParams(n, k, lam))
        # the grid points where the hand-computed Pfaffian is nonzero
        sampled = [c1 * c2 - n * k * lam * c3**2 for c1, c2, c3 in THEOREM1_GRID]
        assert r.instances_checked == sum(1 for pf in sampled if pf)
    assert results[0].instances_checked == (12 if (n, k, lam) == (1, 2, 3) else 11)


def _coefficient_draws(seed: int, count: int) -> list[tuple[Fraction, ...]]:
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        for _ in range(count)
    ]


@pytest.mark.parametrize("n,k,lam", [(1, 2, 3), (1, 1, 2), (2, Fraction(-3, 2), 1)])
def test_theorem1_against_the_route_member_by_member(n, k, lam):
    """is_lcs and primitive on each sampled member, independent of theorem1's linear certificate.

    Every nondegenerate member has the family's twist as its Lee form and
    form - c1 * representative exact, and its own class is zero exactly when
    c1 = 0; the grid points counted are those with a nonzero top power.
    """
    alg = acfm_rational(n, k, lam)
    draws = _coefficient_draws(7, 24) + [(Fraction(0), Fraction(2), Fraction(1))]
    for result, build in zip(theorem1(n, k, lam), (omega_t, omega_s)):
        rep, twist = result.representative, result.lee
        nondegenerate = 0
        for i, coeffs in enumerate(draws + list(THEOREM1_GRID)):
            form = build(alg, *coeffs)
            if not top_power(alg, form):
                with pytest.raises(Degenerate):
                    is_lcs(alg, form)
                continue
            assert is_lcs(alg, form).lee == twist
            assert primitive(alg, twist, form - coeffs[0] * rep).exact
            assert primitive(alg, twist, form).exact == (coeffs[0] == 0)
            nondegenerate += i >= len(draws)
        assert result.instances_checked == nondegenerate


def test_theorem1_raises_on_a_wrong_lee_form(monkeypatch):
    """Each family set against the other's twist, for which its representative is not closed."""
    real = presets._twist
    monkeypatch.setattr(presets, "_twist", lambda alg, k, sign: real(alg, k, -sign))
    with pytest.raises(MathError, match="family t: unexpected Lee form"):
        theorem1(1, 2, 3)


SPANNING = {"rep": (1, 0, 0), "second": (0, 1, 0), "exact": (0, 0, 1)}


@pytest.mark.parametrize("unit", SPANNING.values(), ids=SPANNING.keys())
def test_theorem1_raises_on_a_spanning_form_that_is_not_closed(monkeypatch, unit):
    """alpha^beta, which d_w does not close for either twist, added to one spanning form."""
    real = presets._family

    def bent(alg, data, family, *coeffs):
        form = real(alg, data, family, *coeffs)
        return form + alg.basis.monomial_form((0, 1)) if coeffs == unit else form

    monkeypatch.setattr(presets, "_family", bent)
    with pytest.raises(MathError, match="family t: unexpected Lee form"):
        theorem1(1, 2, 3)


@pytest.mark.parametrize("unit", SPANNING.values(), ids=SPANNING.keys())
def test_theorem1_raises_when_one_spanning_form_has_the_wrong_class(monkeypatch, unit):
    """The representative reported exact, or the second form or exact part reported not exact."""
    real = presets.primitive

    def reported(alg, w, form):
        cert = real(alg, w, form)
        if form == omega_t(alg, *unit):
            return dataclasses.replace(cert, exact=not cert.exact)
        return cert

    monkeypatch.setattr(presets, "primitive", reported)
    with pytest.raises(MathError, match="family t: unexpected class coordinates"):
        theorem1(1, 2, 3)


def test_theorem1_raises_on_a_nondegenerate_member_with_no_representative_part(monkeypatch):
    # c1 = 0 with Pf = -2 n k lambda c3^2 != 0: an exact class, not a nonzero one
    monkeypatch.setattr(presets, "THEOREM1_GRID", ((Fraction(0), Fraction(1), Fraction(1)),))
    with pytest.raises(MathError, match="family t: unexpected class coordinates"):
        theorem1(1, 2, 3)


def test_theorem1_raises_on_wrong_class_coordinates(monkeypatch):
    """Every class reported exact (the representative's is not), then every class
    reported not exact (each difference form - c1 * representative is)."""
    real = presets.primitive
    for exact in (True, False):

        def reported(alg, w, form, exact=exact):
            return dataclasses.replace(real(alg, w, form), exact=exact)

        monkeypatch.setattr(presets, "primitive", reported)
        with pytest.raises(MathError, match="family t: unexpected class coordinates"):
            theorem1(1, 2, 3)
