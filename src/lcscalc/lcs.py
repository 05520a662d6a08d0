"""Locally conformal symplectic analysis on the invariant complex.

A 2-form is certified by recovering the unique 1-form w with
d(Omega) = -w ^ Omega (unique once the top wedge power is nonzero), checking
that w is closed, and recording the top-power coefficient.  On top of the
certificate the module computes infinitesimal automorphisms, the extended
Lee homomorphism l(X) = mu_X + w(X), exactness cross-checks, deformation
family verification, and the foliation-style checks (integrability,
involutivity, restricted rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .cecomplex import Algebra, d, d_omega, lie_derivative
from .cohomology import ExactnessCertificate, primitive
from .errors import (
    BasisMismatch, CrossCheckError, Degenerate, DegreeMismatch, InvalidParams, LeeNotClosed,
    NoSolution, NotAutomorphism, OddDimension, ZeroForm,
)
from .exterior import Form, VectorField, evaluate_one_form, frame_field, interior
from .linalg import nullspace, operator_matrix, rank, solve
from .scalar import Scalar


@dataclass(frozen=True)
class LcsForm:
    """Certified conformally closed nondegenerate 2-form."""

    omega_form: Form
    lee: Form
    pfaffian: Scalar


@dataclass(frozen=True)
class AutomorphismAlgebra:
    """Basis of pairs (X, mu) with L_X(Omega) = mu * Omega exactly."""

    pairs: tuple[tuple[VectorField, Scalar], ...]

    @property
    def dimension(self) -> int:
        return len(self.pairs)


def top_power(alg: Algebra, omega2: Form) -> Scalar:
    """Volume coefficient of Omega^(N/2), (N/2)! Pf(A); nonzero means nondegenerate.

    A holds Omega's coefficients, A_ij = Omega_ij for i < j.  The Pfaffian on
    an ascending index tuple S expands along its first row, memoized on S per
    call: Pf(S) = sum_m (-1)^(m-1) A_{s_0 s_m} Pf(S - {s_0, s_m}).
    """
    if alg.dim % 2:
        raise OddDimension(f"top power needs an even number of generators, got {alg.dim}")
    if omega2.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    if not omega2.is_zero() and omega2.degree != 2:
        raise DegreeMismatch("top power needs a 2-form")
    a, zero, memo = omega2.terms, alg.zero_scalar(), {(): alg.one_scalar()}

    def pf(rest: tuple[int, ...]) -> Scalar:
        value = memo.get(rest)
        if value is None:
            value = zero
            for m in range(1, len(rest)):
                c = a.get((rest[0], rest[m]))
                sub = c and pf(rest[1:m] + rest[m + 1 :])
                if sub:
                    value = value + c * sub if m % 2 else value - c * sub
            memo[rest] = value
        return value

    value = factorial(alg.dim // 2) * pf(tuple(range(alg.dim)))
    return value if value else zero


def lee_form(alg: Algebra, omega2: Form) -> Form:
    """The unique 1-form w with d(Omega) = -w ^ Omega, verified closed."""
    alg.require_valid()
    return is_lcs(alg, omega2).lee


def is_lcs(alg: Algebra, omega2: Form) -> LcsForm:
    """Certify nondegeneracy, recover the Lee form, check it closed and closing.

    -d(Omega) from the solve is reused to check d(Omega) + w ^ Omega = 0.
    """
    pf = top_power(alg, omega2)
    if not pf:
        raise Degenerate("top wedge power vanishes")
    alg.require_valid()
    gens = [alg.basis.gen(i) for i in range(alg.dim)]
    images = [g.wedge(omega2) for g in gens]
    target = list(alg.basis.monomials(3))
    rows = operator_matrix(images, target)
    rhs_form = -d(alg, omega2)
    rhs = [rhs_form.coefficient(m) for m in target]
    sol = solve(rows, rhs, alg.dim)
    if sol is None:
        raise NoSolution("no 1-form solves d(Omega) = -w ^ Omega")
    lee = Form(alg.basis, 1, zip(alg.basis.monomials(1), sol))
    dlee = d(alg, lee)
    if not dlee.is_zero():
        raise LeeNotClosed(f"solution {lee} is not closed: d = {dlee}")
    if lee.wedge(omega2) != rhs_form:
        raise CrossCheckError("certified Lee form does not close the 2-form")
    return LcsForm(omega2, lee, pf)


def automorphism_algebra(alg: Algebra, lcs: LcsForm) -> AutomorphismAlgebra:
    """Solve L_X(Omega) = mu * Omega jointly in (X, mu)."""
    alg.require_valid()
    alg.require_rational("automorphism algebra computation")
    omega2 = lcs.omega_form
    # L_X(Omega) by Cartan's formula, with d(Omega) computed once for all X
    d_omega2 = d(alg, omega2)
    fields = [frame_field(alg.basis, i) for i in range(alg.dim)]
    images = [interior(x, d_omega2) + d(alg, interior(x, omega2)) for x in fields]
    images.append(-omega2)  # column for the unknown mu
    target = list(alg.basis.monomials(2))
    rows = operator_matrix(images, target)
    vectors = nullspace(rows, alg.dim + 1)
    pairs = []
    for vec in vectors:
        field = VectorField(alg.basis, tuple(vec[: alg.dim]))
        pairs.append((field, vec[alg.dim]))
    return AutomorphismAlgebra(tuple(pairs))


def lee_homomorphism(alg: Algebra, lcs: LcsForm, field: VectorField, mu: Scalar) -> Scalar:
    """l(X) = mu_X + w(X) for a verified automorphism pair.

    Also certifies d_w(i_X Omega) = l(X) * Omega, the identity behind the
    exactness criterion.
    """
    if lie_derivative(alg, field, lcs.omega_form) != mu * lcs.omega_form:
        raise NotAutomorphism("pair does not satisfy L_X(Omega) = mu * Omega")
    value = mu + evaluate_one_form(lcs.lee, field)
    contraction = interior(field, lcs.omega_form)
    if d_omega(alg, lcs.lee, contraction) != value * lcs.omega_form:
        raise CrossCheckError("twisted differential of the contraction is not l(X) * Omega")
    return value


def dual_field(alg: Algebra, lcs: LcsForm, theta: Form) -> VectorField:
    """The unique X with i(X) Omega = theta, re-verified after solving."""
    if not theta.is_zero() and theta.degree != 1:
        raise DegreeMismatch("dual field needs a 1-form")
    images = [
        interior(frame_field(alg.basis, i), lcs.omega_form) for i in range(alg.dim)
    ]
    target = list(alg.basis.monomials(1))
    rows = operator_matrix(images, target)
    rhs = [theta.coefficient(m) for m in target]
    sol = solve(rows, rhs, alg.dim)
    if sol is None:
        raise Degenerate("contraction with the 2-form is not invertible")
    field = VectorField(alg.basis, tuple(sol))
    if interior(field, lcs.omega_form) != theta:
        raise CrossCheckError("dual field verification failed")
    return field


@dataclass(frozen=True)
class LeeExactnessReport:
    """Both routes to exactness: a primitive and the Lee homomorphism."""

    certificate: ExactnessCertificate
    automorphisms: AutomorphismAlgebra
    lee_values: tuple[Scalar, ...]
    exact: bool


def exactness_via_lee(alg: Algebra, lcs: LcsForm) -> LeeExactnessReport:
    """Cross-check: exactness holds iff some automorphism has l(X) != 0."""
    alg.require_rational("exactness cross-check")
    certificate = primitive(alg, lcs.lee, lcs.omega_form)
    autos = automorphism_algebra(alg, lcs)
    values = tuple(
        lee_homomorphism(alg, lcs, field, mu) for field, mu in autos.pairs
    )
    via_l = any(v for v in values)
    if via_l != certificate.exact:
        raise CrossCheckError(
            "primitive certificate and Lee homomorphism disagree on exactness"
        )
    return LeeExactnessReport(certificate, autos, values, certificate.exact)


@dataclass(frozen=True)
class MoserMember:
    pfaffian: Scalar
    lee: Form
    difference_primitive: Form | None


@dataclass(frozen=True)
class MoserReport:
    """Per-member hypotheses of the fixed-Lee deformation criterion."""

    ok: bool
    lee: Form | None
    members: tuple[MoserMember, ...]
    failed_index: int | None = None
    reason: str | None = None


def verify_moser_family(alg: Algebra, family: list[Form]) -> MoserReport:
    """Check a family shares one Lee form with exact member differences.

    Hypotheses are checked in order (membership, shared Lee form, exact
    differences) and the first violation is reported with its index.
    """
    alg.require_rational("family verification")
    if not family:
        raise InvalidParams("family must be nonempty")
    members: list[MoserMember] = []
    certified: list[LcsForm] = []
    for i, omega2 in enumerate(family):
        try:
            cert = is_lcs(alg, omega2)
        except (Degenerate, NoSolution, LeeNotClosed) as exc:
            return MoserReport(
                False,
                certified[0].lee if certified else None,
                tuple(members),
                failed_index=i,
                reason=f"{type(exc).__name__}: {exc}",
            )
        certified.append(cert)
        members.append(MoserMember(cert.pfaffian, cert.lee, None))
    lee = certified[0].lee
    for i, cert in enumerate(certified):
        if cert.lee != lee:
            return MoserReport(
                False, lee, tuple(members), failed_index=i,
                reason=f"Lee form differs: {cert.lee} vs {lee}",
            )
    final: list[MoserMember] = []
    for i, cert in enumerate(certified):
        diff = cert.omega_form - certified[0].omega_form
        certificate = primitive(alg, lee, diff)
        if not certificate.exact:
            return MoserReport(
                False, lee, tuple(members), failed_index=i,
                reason="difference from the first member is not exact",
            )
        final.append(MoserMember(cert.pfaffian, cert.lee, certificate.primitive))
    return MoserReport(True, lee, tuple(final))


# ---------------------------------------------------------------------------
# class comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassComparison:
    """Comparison of two certified forms sharing (or not) a Lee form.

    Exactness of the twisted class is invariant under constant conformal
    rescaling, so differing exactness flags separate the two forms even
    across conformal changes; nothing further is decided.
    """

    comparable: bool
    exact_a: bool
    exact_b: bool
    cohomologous: bool | None = None

    @property
    def conformally_distinct(self) -> bool:
        return self.exact_a != self.exact_b


def compare_classes(alg: Algebra, a: LcsForm, b: LcsForm) -> ClassComparison:
    ca = primitive(alg, a.lee, a.omega_form)
    cb = primitive(alg, b.lee, b.omega_form)
    if a.lee != b.lee:
        return ClassComparison(False, ca.exact, cb.exact)
    return ClassComparison(True, ca.exact, cb.exact, cohomologous=ca.coords == cb.coords)


# ---------------------------------------------------------------------------
# foliation-style checks
# ---------------------------------------------------------------------------


def frobenius_integrable(alg: Algebra, rho: Form) -> bool:
    """True iff rho ^ d(rho) = 0 for a nonzero 1-form."""
    if rho.is_zero():
        raise ZeroForm("integrability needs a nonzero 1-form")
    return rho.wedge(d(alg, rho)).is_zero()


@dataclass(frozen=True)
class InvolutivityResult:
    ok: bool
    pair: tuple[int, int] | None = None
    bracket: VectorField | None = None


def _field_indices(alg: Algebra, fields) -> list[int]:
    out = []
    for f in fields:
        out.append(alg.basis.index(f) if isinstance(f, str) else int(f))
    if len(set(out)) != len(out):
        raise InvalidParams("frame fields must be distinct")
    return out


def involutive(alg: Algebra, fields) -> InvolutivityResult:
    """Check all pairwise frame brackets stay in the chosen span."""
    alg.require_valid()
    idx = _field_indices(alg, fields)
    allowed = set(idx)
    table = alg.brackets()
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = idx[a], idx[b]
            br = table.frame_bracket(i, j)
            if any(c for m, c in enumerate(br.coeffs) if m not in allowed):
                return InvolutivityResult(False, (i, j), br)
    return InvolutivityResult(True)


def restricted_gram(alg: Algebra, omega2: Form, fields) -> list[list]:
    """Antisymmetric pairing table Omega(X_i, X_j) over chosen frame fields."""
    idx = _field_indices(alg, fields)
    gram = []
    for i in idx:
        contracted = interior(frame_field(alg.basis, i), omega2)
        row = []
        for j in idx:
            value = evaluate_one_form(contracted, frame_field(alg.basis, j))
            row.append(value if value else alg.zero_scalar())
        gram.append(row)
    return gram


def restricted_rank(alg: Algebra, omega2: Form, fields) -> int:
    alg.require_rational("restricted rank")
    gram = restricted_gram(alg, omega2, fields)
    return rank(gram, len(gram))
