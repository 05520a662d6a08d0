import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import F, fraction_nullspace, koszul_twisted_matrix
from lcscalc.cecomplex import d_omega
from lcscalc.cohomology import (
    betti,
    class_coords,
    cohomology_report,
    primitive,
)
from lcscalc.errors import CrossCheckError, NotClosed, OmegaNotClosed, ParamModeUnsupported
from lcscalc.hodge import HarmonicSpace, TwistedComplex, harmonic_space, inner
from lcscalc.presets import acfm_rational, exact_lcs, omega_t, twist_form
from lcscalc.specfile import parse_algebra_file, parse_algebra_text

NONUNIMODULAR = Path(__file__).parent / "golden" / "nonunimodular.alg"


def test_betti_boundary_degrees(acfm111):
    w = twist_form(acfm111, -1)
    assert betti(acfm111, w, 0) == 0
    assert betti(acfm111, w, 4) == 0


def test_betti_middle_degrees(acfm111):
    w = twist_form(acfm111, -1)
    values = [betti(acfm111, w, degree) for degree in range(5)]
    assert values == [0, 1, 2, 1, 0]
    assert all(v >= 1 for v in values[1:4])


def test_betti_matches_harmonic_dimension(acfm111):
    for sign in (1, -1):
        w = twist_form(acfm111, sign)
        for degree in range(5):
            assert betti(acfm111, w, degree) == harmonic_space(
                acfm111, w, degree
            ).dimension


def test_betti_requires_closed_and_rational(acfm111, acfm_sym):
    with pytest.raises(OmegaNotClosed):
        betti(acfm111, acfm111.basis.gen(0), 1)
    with pytest.raises(ParamModeUnsupported):
        betti(acfm_sym, twist_form(acfm_sym, -1), 1)


def test_untwisted_torus_dims(torus4):
    zero = torus4.basis.zero(1)
    report = cohomology_report(torus4, zero)
    assert report.dims == (1, 4, 6, 4, 1)


def test_primitive_examples(acfm111):
    w = twist_form(acfm111, -1)
    cert = primitive(acfm111, w, F(acfm111, "1 beta^gamma"))
    assert cert.exact
    assert cert.primitive == F(acfm111, "1/2 beta")

    cert = primitive(acfm111, w, exact_lcs(acfm111, -1))
    assert cert.exact
    assert cert.primitive == acfm111.basis.gen(3)

    cert = primitive(acfm111, w, F(acfm111, "1 alpha^eta"))
    assert not cert.exact
    assert any(cert.coords)


def test_primitive_rejects_non_closed(acfm111):
    w = twist_form(acfm111, -1)
    with pytest.raises(NotClosed):
        primitive(acfm111, w, acfm111.basis.gen(1))


def test_class_coords_examples(acfm111):
    w = twist_form(acfm111, -1)
    rep = F(acfm111, "1 alpha^eta")
    rep_coords = class_coords(acfm111, w, rep)
    omega = omega_t(acfm111, 2, 1, 0)
    assert class_coords(acfm111, w, omega) == tuple(2 * c for c in rep_coords)
    assert class_coords(acfm111, w, exact_lcs(acfm111, -1)) == (0, 0)
    # a harmonic form projects to itself: unit coordinate on its own direction
    space = harmonic_space(acfm111, w, 2)
    position = space.basis.index(rep)
    expected = tuple(
        Fraction(1) if i == position else Fraction(0) for i in range(space.dimension)
    )
    assert rep_coords == expected


@pytest.mark.parametrize(
    "omega, theta, expected",
    [
        ("-1 e3", "2 e1^e3", ()),
        ("-1 e3", "2 e2^e3", ()),
        ("0", "-2 e1^e2^e3", ()),
        ("1 e3", "2 e3", (0, 0)),
    ],
)
def test_class_coords_of_an_exact_form_are_zero(omega, theta, expected):
    """One zero per harmonic dimension, also off unimodular data.

    delta_w is the metric adjoint of d_w, so an exact form is orthogonal to
    every harmonic form.
    """
    alg = parse_algebra_file(str(NONUNIMODULAR))
    w, form = F(alg, omega), F(alg, theta)
    assert primitive(alg, w, form).exact
    assert class_coords(alg, w, form) == expected
    assert all(inner(alg, form, h) == 0 for h in harmonic_space(alg, w, form.degree).basis)


def test_primitive_refuses_a_residue_that_is_not_exact(monkeypatch):
    """A harmonic space that misses the class leaves a residue that is not exact.

    The harmonic 2-form is e2^e4; in its place e1^e2 + e3^e4 = d e3 takes
    all of theta but e2^e4, which is not exact.
    """
    alg = parse_algebra_text("generators e1 e2 e3 e4\nd e1 = 1 e1^e4\nd e3 = 1 e1^e2 + 1 e3^e4\n")
    theta = F(alg, "1 e1^e2 + 1 e3^e4 + 1 e2^e4")
    zero = alg.basis.zero(1)
    assert harmonic_space(alg, zero, 2).basis == (F(alg, "1 e2^e4"),)
    wrong = HarmonicSpace(2, (F(alg, "1 e1^e2 + 1 e3^e4"),), zero)
    monkeypatch.setattr(TwistedComplex, "harmonic", lambda self, degree: wrong)
    with pytest.raises(CrossCheckError, match="projection residue is not exact"):
        primitive(alg, zero, theta)


def test_a_kernel_that_loses_a_vector_fails_the_report(acfm111, monkeypatch):
    """betti and harmonic both read ker d_1: one vector short, the ranks and bases disagree."""
    kernel = TwistedComplex.kernel
    monkeypatch.setattr(
        TwistedComplex, "kernel", lambda cx, l: kernel(cx, l)[:-1] if l == 1 else kernel(cx, l)
    )
    with pytest.raises(CrossCheckError, match="rank and harmonic dimensions disagree"):
        cohomology_report(acfm111, acfm111.basis.zero(1))


def test_class_coords_linearity(acfm111):
    w = twist_form(acfm111, -1)
    theta = omega_t(acfm111, 3, 2, 1)
    for c in (Fraction(2), Fraction(-1, 3)):
        scaled = class_coords(acfm111, w, c * theta)
        assert scaled == tuple(c * x for x in class_coords(acfm111, w, theta))


def _random_closed_two_forms(alg, omega, count, seed):
    """Deterministic sample of the kernel of the Koszul matrix of d_w."""
    from lcscalc.exterior import Form

    monos = list(alg.basis.monomials(2))
    rows = koszul_twisted_matrix(alg, omega, 2)
    kernel = fraction_nullspace(rows, len(monos))
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in kernel]
        total = alg.basis.zero(2)
        for c, vec in zip(coeffs, kernel):
            piece = {m: c * x for m, x in zip(monos, vec) if c * x}
            total = total + Form(alg.basis, 2, piece)
        if not total.is_zero():
            out.append(total)
    return out


def test_certificates_verify_on_random_closed_forms(acfm111):
    w = twist_form(acfm111, -1)
    space = harmonic_space(acfm111, w, 2)
    for theta in _random_closed_two_forms(acfm111, w, 15, seed=11):
        cert = primitive(acfm111, w, theta)
        if cert.exact:
            assert d_omega(acfm111, w, cert.primitive) == theta
        else:
            assert any(cert.coords)
            residue = theta
            for c, h in zip(cert.coords, space.basis):
                residue = residue - c * h
            again = primitive(acfm111, w, residue)
            assert again.exact


def test_report_agreement(acfm111):
    for sign in (1, -1):
        w = twist_form(acfm111, sign)
        report = cohomology_report(acfm111, w)
        assert report.dims == (0, 1, 2, 1, 0)
        for degree, space in enumerate(report.harmonic_bases):
            assert space.dimension == report.dims[degree]
