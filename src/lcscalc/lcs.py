"""Locally conformal symplectic analysis on the invariant complex.

A 2-form is certified by recovering the unique 1-form w with
d(Omega) = -w ^ Omega (unique once the top wedge power is nonzero), checking
that w is closed, and recording the top-power coefficient.  On top of the
certificate the module computes infinitesimal automorphisms, the extended
Lee homomorphism l(X) = mu_X + w(X), exactness cross-checks, deformation
family verification, and the foliation-style checks (integrability,
involutivity, restricted rank).

The Lee form and the dual field come from the inverse B of Omega's
coefficient matrix A, with no elimination: B is the Pfaffian adjugate, read
off the memoized first-row expansion that gives the top power
(`_pfaffians`, `_inverse_image`).  The automorphism system
(X, mu) -> L_X(Omega) - mu * Omega is read off Omega's terms, combined in
integer numerators with the matrices D_1 and D_2 of d that the d_w
matrices copy (`Algebra.d_matrix`).  The certificates stay on the Form
route: w ^ Omega = -d(Omega) and d(w) = 0 for the Lee form, L_X(Omega) and
d_w(i_X Omega) for each automorphism pair, i(X) Omega for a dual field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from operator import mul
from typing import Callable

from .cecomplex import Algebra, d, d_omega, lie_derivative
from .cohomology import ExactnessCertificate, primitive
from .errors import (
    BasisMismatch, CrossCheckError, Degenerate, DegreeMismatch, InvalidParams, LeeNotClosed,
    MixedModes, NoSolution, NotAutomorphism, OddDimension, ZeroForm,
)
from .exterior import (
    Form, VectorField, evaluate_one_form, frame_field, interior,
)
from .linalg import nullspace, rank
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


def _pfaffians(alg: Algebra, omega2: Form) -> tuple[Callable, int]:
    """(pf, m): Pfaffians of the principal submatrices of Omega's matrix A.

    A holds Omega's coefficients, A_ij = Omega_ij for i < j.  pf(S) is the
    Pfaffian of A on an ascending index tuple S, expanded along its first
    row and memoized on S: Pf(S) = sum_j (-1)^(j-1) A_{s_0 s_j} Pf(S - {s_0, s_j}).
    For a rational algebra and form it expands on Omega's integer numerators
    over m, its denominator; Pf is homogeneous of degree |S|/2,
    so the Pfaffian of A on S is pf(S) / m^(|S|/2).  Otherwise m is 1 and pf
    expands on the scalars.
    """
    if alg.dim % 2:
        raise OddDimension(f"top power needs an even number of generators, got {alg.dim}")
    if omega2.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    if not omega2.is_zero() and omega2.degree != 2:
        raise DegreeMismatch("top power needs a 2-form")
    if alg.mode.is_param or not omega2.den:
        a, m, zero, one = omega2.terms, 1, alg.zero_scalar(), alg.one_scalar()
    else:
        a, m, zero, one = omega2.nums, omega2.den, 0, 1
    memo = {(): one, **a}  # Pf(i, j) = A_ij

    def pf(rest: tuple[int, ...]) -> Scalar:
        value = memo.get(rest)
        if value is None:
            value = zero
            for j in range(1, len(rest)):
                c = a.get((rest[0], rest[j]))
                sub = c and pf(rest[1:j] + rest[j + 1 :])
                if sub:
                    value = value + c * sub if j % 2 else value - c * sub
            memo[rest] = value
        return value

    return pf, m


def _ratio(num, den) -> Scalar:
    """num / den exactly: one Fraction for ints (den is an int then), else scalar division."""
    if isinstance(num, int):
        return Fraction(num, den)
    return num if den == 1 else num / den


def top_power(alg: Algebra, omega2: Form) -> Scalar:
    """Volume coefficient of Omega^(N/2), (N/2)! Pf(A); nonzero means nondegenerate.

    Pf(A) is the first-row expansion of `_pfaffians`, on Omega's integer
    numerators over m for rational data, so the value is one
    Fraction((N/2)! Pf, m^(N/2)).  `is_lcs` and `dual_field` read the
    inverse of A off the same expansion's memo.
    """
    return _volume(alg, *_pfaffians(alg, omega2))


def _volume(alg: Algebra, pf: Callable, m: int) -> Scalar:
    n = alg.dim // 2
    return _ratio(factorial(n) * pf(tuple(range(alg.dim))), m**n)


def lee_form(alg: Algebra, omega2: Form) -> Form:
    """The unique 1-form w with d(Omega) = -w ^ Omega, verified closed."""
    alg.require_valid()
    return is_lcs(alg, omega2).lee


def _inverse_image(alg: Algebra, pf: Callable, m: int, form: Form, spread) -> tuple[dict, Scalar]:
    """(numerators, den): a linear image of `form` under B = A^-1 is {a: numerators[a] / den}.

    B_bc = (-1)^(b+c) Pf(A - {b, c}) / Pf(A) for b < c and B_cb = -B_bc: the
    adjugate of A over det(A) = Pf(A)^2, read off the memo of `pf`
    (`_pfaffians`), on whose numerators Pf(A - {b, c}) / Pf(A) carries one
    factor m.  Entry a sums B_bc * t over the (a, b, c) that `spread(idx)`
    yields for each term t at idx of `form`.  A rational form enters as its
    integer numerators over its den; the numerators returned are the
    nonzero ones, ints for rational data.
    """
    full = tuple(range(alg.dim))

    def entry(b: int, c: int) -> Scalar:  # B_bc times Pf(A) / m
        if b > c:
            return -entry(c, b)
        value = pf(full[:b] + full[b + 1 : c] + full[c + 1 :])
        return -value if (b + c) % 2 else value

    den, terms = (form.den, form.nums.items()) if form.den else (1, form.terms.items())
    sums: dict = {}
    for idx, t in terms:
        for a, b, c in spread(idx):
            if e := entry(b, c):
                prev = sums.get(a)
                sums[a] = e * t if prev is None else prev + e * t
    return {a: s if m == 1 else m * s for a, s in sums.items() if s}, pf(full) * den


def _automorphism_rows(alg: Algebra, omega2: Form) -> tuple[int, list[list[int]]]:
    """(L, rows): L times the matrix of (X, mu) -> L_X(Omega) - mu * Omega, in ints.

    By Cartan's formula column i, the image of X_i, is
    i(e_i)(d Omega) + sum_j (i(e_i) Omega)_j d e_j, and the column of mu is
    -Omega.  d e_j is column j of D_1 and d Omega is D_2 times Omega's
    coefficients (`Algebra.d_matrix`); with Omega as integer numerators a
    over m and D_l over D, every entry is an integer numerator over L = m * D.
    """
    m, den = omega2.den, alg.d_den
    if m is None or den is None:
        raise MixedModes(
            "a form or structure data with symbolic coefficients needs a parameter-mode algebra"
        )
    a, n, monomials = omega2.nums, alg.dim, alg.basis.monomials
    contraction = [[0] * n for _ in range(n)]  # row i: i(e_i) Omega
    for (i, j), c in a.items():
        contraction[i][j], contraction[j][i] = c, -c
    rows = [[sum(map(mul, row, ci)) for ci in contraction] for row in alg.d_matrix(1)]
    row_of = {key: row for key, row in zip(monomials(2), rows)}
    vec = [a.get(idx, 0) for idx in monomials(2)]
    for (p, q, r), row in zip(monomials(3), alg.d_matrix(2)):
        if c := sum(map(mul, row, vec)):  # (d Omega)_pqr
            row_of[q, r][p] += c
            row_of[p, r][q] -= c
            row_of[p, q][r] += c
    for key, row in row_of.items():
        row.append(-a.get(key, 0) * den)
    return m * den, rows


def _lee_spread(idx: tuple[int, ...]) -> tuple:
    """A term at p < q < r feeds w_p with B_qr, w_q with B_rp and w_r with B_pq."""
    p, q, r = idx
    return (p, q, r), (q, r, p), (r, p, q)


def is_lcs(alg: Algebra, omega2: Form) -> LcsForm:
    """Certify nondegeneracy, recover the Lee form, check it closed and closing.

    For N = 2n >= 4 generators w -> w ^ Omega is injective and contracting
    w ^ Omega with B = A^-1 gives -(n-1) w, so the only candidate is
    w_a = (1/(n-1)) sum_{b<c} B_bc d(Omega)_abc (`_inverse_image`): a term t
    of d(Omega) at p < q < r adds B_qr t to w_p, -B_pr t to w_q and B_pq t
    to w_r.  The Pfaffian memo of the top power supplies B.  With N = 2 every
    1-form solves the system and w = 0.  w ^ Omega = -d(Omega) decides
    whether a solution exists at all, and d(w) = 0 whether it is closed.
    The first check runs on w's numerators over their common denominator, so
    in parameter mode no sum in it takes a polynomial gcd with the Pfaffian;
    for rational data the Lee form is those int numerators over it.
    """
    pf, m = _pfaffians(alg, omega2)
    volume = _volume(alg, pf, m)
    if not volume:
        raise Degenerate("top wedge power vanishes")
    alg.require_valid()
    d_omega2 = d(alg, omega2)
    numerators, den = _inverse_image(alg, pf, m, d_omega2, _lee_spread)
    den = (alg.dim // 2 - 1) * den  # w = numerators / den
    keyed = {(a,): s for a, s in numerators.items()}
    if isinstance(den, int):  # with N = 2 there are no numerators and den is 0
        scaled, lee = Form.over(alg.basis, 1, 1, keyed), Form.over(alg.basis, 1, den or 1, keyed)
    else:
        scaled = Form(alg.basis, 1, keyed)
        lee = Form(alg.basis, 1, {a: _ratio(s, den) for a, s in keyed.items()})
    if scaled.wedge(omega2) != -(den * d_omega2):
        raise NoSolution("no 1-form solves d(Omega) = -w ^ Omega")
    dlee = d(alg, lee)
    if not dlee.is_zero():
        raise LeeNotClosed(f"solution {lee} is not closed: d = {dlee}")
    return LcsForm(omega2, lee, volume)


def automorphism_algebra(alg: Algebra, lcs: LcsForm) -> AutomorphismAlgebra:
    """Solve L_X(Omega) = mu * Omega jointly in (X, mu).

    The matrix is read off Omega's terms and D_1, D_2
    (`_automorphism_rows`).  Each row is divided by its content; scaling a
    row keeps the kernel, which `nullspace` returns with a unit entry at
    each free column.
    """
    alg.require_valid()
    alg.require_rational("automorphism algebra computation")
    rows = []
    for row in _automorphism_rows(alg, lcs.omega_form)[1]:
        g = gcd(*row)
        rows.append([x // g for x in row] if g > 1 else row)
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
    """The unique X with i(X) Omega = theta, X = -B theta for B = A^-1, re-verified.

    i(X) Omega has coefficients -A X, so X_b = sum_c B_cb theta_c
    (`_inverse_image`).  As in `is_lcs`, i(X) Omega = theta is checked on X's
    numerators over their common denominator.
    """
    if not theta.is_zero() and theta.degree != 1:
        raise DegreeMismatch("dual field needs a 1-form")
    pf, m = _pfaffians(alg, lcs.omega_form)
    if not pf(tuple(range(alg.dim))):
        raise Degenerate("contraction with the 2-form is not invertible")

    def spread(idx: tuple[int, ...]) -> list:  # a term at c feeds every X_b with B_cb
        return [(b, idx[0], b) for b in range(alg.dim) if b != idx[0]]

    numerators, den = _inverse_image(alg, pf, m, theta, spread)
    scaled = VectorField(alg.basis, tuple(numerators.get(b, 0) for b in range(alg.dim)))
    if interior(scaled, lcs.omega_form) != den * theta:
        raise CrossCheckError("dual field verification failed")
    coeffs = (_ratio(numerators[b], den) if b in numerators else 0 for b in range(alg.dim))
    return VectorField(alg.basis, tuple(coeffs))


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
