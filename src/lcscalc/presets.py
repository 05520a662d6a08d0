"""Built-in construction of the 4-dimensional solvable example algebra.

The `acfm` preset uses generators (alpha, beta, gamma, eta) with

    d alpha = -k alpha^gamma,   d beta = k beta^gamma,
    d gamma = 0,                d eta  = n*lambda alpha^beta,

the identity metric, and nonzero parameters n (an integer), k and lambda.
The named 2-form families and the exact twisted forms are assembled through
the public algebra operations, never hard-coded, so every identity they
satisfy is recomputed by the calculus itself.  `theorem1` certifies the
Lee forms and twisted classes of both families on a sampled grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cecomplex import Algebra, d_omega
from .cohomology import class_coords
from .errors import CrossCheckError, InvalidParams, MathError
from .exterior import Basis, Form
from .lcs import is_lcs, top_power
from .scalar import ParamScalar, Scalar, ScalarMode

ACFM_GENERATORS = ("alpha", "beta", "gamma", "eta")
ACFM_SYMBOLS = ("n", "k", "lambda")


@dataclass(frozen=True)
class AcfmParams:
    """Bundle parameters n, k, lambda; all three must be nonzero."""

    n: Scalar
    k: Scalar
    lam: Scalar


def _check_nonzero(name: str, value: Scalar):
    if not value:
        raise InvalidParams(f"parameter {name} must be nonzero")


def acfm(params: AcfmParams, mode: ScalarMode | None = None) -> Algebra:
    """Construct the preset algebra; structure data is validated (d*d = 0)."""
    if mode is None:
        mode = ScalarMode.rational()
    n = mode.coerce(params.n)
    k = mode.coerce(params.k)
    lam = mode.coerce(params.lam)
    for name, value in (("n", n), ("k", k), ("lambda", lam)):
        _check_nonzero(name, value)
    if not mode.is_param:
        if Fraction(n).denominator != 1:
            raise InvalidParams("parameter n must be a nonzero integer")
    basis = Basis(ACFM_GENERATORS)
    a, b, g, e = range(4)
    dgen = [
        Form(basis, 2, {(a, g): -k}),
        Form(basis, 2, {(b, g): k}),
        basis.zero(2),
        Form(basis, 2, {(a, b): n * lam}),
    ]
    alg = Algebra(basis, dgen, mode=mode)
    alg.require_valid()
    return alg


def acfm_rational(n, k, lam) -> Algebra:
    """Rational-coefficient preset from plain numbers."""
    return acfm(AcfmParams(Fraction(n), Fraction(k), Fraction(lam)))


def acfm_symbolic(extra_symbols: tuple[str, ...] = ()) -> Algebra:
    """Preset with n, k, lambda (plus any extra names) as formal symbols."""
    mode = ScalarMode.params(*ACFM_SYMBOLS, *extra_symbols)
    params = AcfmParams(mode.symbol("n"), mode.symbol("k"), mode.symbol("lambda"))
    return acfm(params, mode)


def _is_acfm_shaped(alg: Algebra) -> bool:
    if alg.basis.names != ACFM_GENERATORS:
        return False
    k = preset_k(alg)
    nlam = preset_n_lambda(alg)
    basis = alg.basis
    expected = [
        Form(basis, 2, {(0, 2): -k}),
        Form(basis, 2, {(1, 2): k}),
        basis.zero(2),
        Form(basis, 2, {(0, 1): nlam}),
    ]
    return list(alg.dgen) == expected


def preset_k(alg: Algebra) -> Scalar:
    """Recover k from the structure data (coefficient of d alpha)."""
    c = alg.dgen[0].coefficient((0, 2))
    return -c if c else alg.zero_scalar()


def preset_n_lambda(alg: Algebra) -> Scalar:
    """Recover the product n*lambda from the structure data (d eta)."""
    c = alg.dgen[3].coefficient((0, 1))
    return c if c else alg.zero_scalar()


def _require_preset(alg: Algebra):
    if not _is_acfm_shaped(alg):
        raise InvalidParams("algebra does not carry the preset structure data")


def omega_t(alg: Algebra, t1, t2, t3) -> Form:
    """t1 alpha^eta + t2 beta^gamma + t3 (n*lambda alpha^beta - k gamma^eta)."""
    _require_preset(alg)
    basis = alg.basis
    k = preset_k(alg)
    nlam = preset_n_lambda(alg)
    return (
        t1 * Form(basis, 2, {(0, 3): alg.one_scalar()})
        + t2 * Form(basis, 2, {(1, 2): alg.one_scalar()})
        + t3 * Form(basis, 2, {(0, 1): nlam, (2, 3): -k})
    )


def omega_s(alg: Algebra, s1, s2, s3) -> Form:
    """s1 beta^eta + s2 alpha^gamma + s3 (n*lambda alpha^beta + k gamma^eta)."""
    _require_preset(alg)
    basis = alg.basis
    k = preset_k(alg)
    nlam = preset_n_lambda(alg)
    return (
        s1 * Form(basis, 2, {(1, 3): alg.one_scalar()})
        + s2 * Form(basis, 2, {(0, 2): alg.one_scalar()})
        + s3 * Form(basis, 2, {(0, 1): nlam, (2, 3): k})
    )


def twist_form(alg: Algebra, sign: int) -> Form:
    """The closed twist sign*k*gamma used by the two families."""
    _require_preset(alg)
    if sign not in (1, -1):
        raise InvalidParams("sign must be +1 or -1")
    k = preset_k(alg)
    coeff = k if sign > 0 else -k
    return Form(alg.basis, 1, {(2,): coeff})


def exact_lcs(alg: Algebra, sign: int) -> Form:
    """The twisted differential of eta for the twist sign*k*gamma.

    Computed through the complex and checked against the expected expansion
    n*lambda alpha^beta + sign*k gamma^eta.
    """
    _require_preset(alg)
    omega = twist_form(alg, sign)
    eta = alg.basis.gen(3)
    result = d_omega(alg, omega, eta)
    k = preset_k(alg)
    nlam = preset_n_lambda(alg)
    coeff = k if sign > 0 else -k
    expected = Form(alg.basis, 2, {(0, 1): nlam, (2, 3): coeff})
    if result != expected:
        raise CrossCheckError("twisted differential of eta has unexpected value")
    return result


# form maker, twist sign and class representative of each 2-form family
FAMILIES = {"t": (omega_t, -1, (0, 3)), "s": (omega_s, 1, (1, 3))}
FAMILY_SYMBOLS = ("t1", "t2", "t3", "s1", "s2", "s3")

# coefficient triples (c1, c2, c3) at which `theorem1` samples each family
THEOREM1_GRID = (
    (Fraction(1), Fraction(1), Fraction(0)),
    (Fraction(2), Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(2), Fraction(0)),
    (Fraction(3), Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(3), Fraction(0)),
    (Fraction(2), Fraction(3), Fraction(0)),
    (Fraction(1, 2), Fraction(3), Fraction(0)),
    (Fraction(2), Fraction(1), Fraction(1)),
    (Fraction(5), Fraction(2), Fraction(1)),
    (Fraction(7), Fraction(1), Fraction(2)),
    (Fraction(2), Fraction(5), Fraction(3)),
    (Fraction(-2), Fraction(-1), Fraction(0)),
)


def family_pfaffian(family: str, params: AcfmParams | None = None) -> Scalar:
    """Top power of the t or s family with formal coefficients t1..s3.

    Without `params`, n, k and lambda are formal symbols as well.
    """
    if family not in FAMILIES:
        raise InvalidParams(f"unknown family {family!r}; expected 't' or 's'")
    maker = FAMILIES[family][0]
    if params is None:
        alg = acfm_symbolic(FAMILY_SYMBOLS)
    else:
        alg = acfm(params, ScalarMode.params(*FAMILY_SYMBOLS))
    coeffs = (alg.mode.symbol(f"{family}{i}") for i in (1, 2, 3))
    return top_power(alg, maker(alg, *coeffs))


@dataclass(frozen=True)
class Theorem1Family:
    """What `theorem1` certified for one family on a rational preset."""

    family: str
    pfaffian: Scalar  # `family_pfaffian` at the preset's n, k, lambda
    lee: Form  # the Lee form shared by every nondegenerate member
    representative: Form  # each class is c1 times the class of this form
    instances_checked: int  # nondegenerate grid points, each a nonzero class


def theorem1(n, k, lam) -> tuple[Theorem1Family, Theorem1Family]:
    """Certify the t and s families of the preset with these parameters.

    At every nondegenerate point of THEOREM1_GRID the Lee form must be the
    family's twist and the class coordinates c1 times the representative's,
    not all zero; otherwise MathError is raised.
    """
    params = AcfmParams(Fraction(n), Fraction(k), Fraction(lam))
    alg = acfm(params)
    results = []
    for family, (maker, twist_sign, harmonic_rep) in FAMILIES.items():
        pfaffian = family_pfaffian(family, params)
        twist = twist_form(alg, twist_sign)
        rep = alg.basis.monomial_form(harmonic_rep)
        rep_coords = class_coords(alg, twist, rep)
        checked = 0
        for c1, c2, c3 in THEOREM1_GRID:
            form = maker(alg, c1, c2, c3)
            if not top_power(alg, form):
                continue
            cert = is_lcs(alg, form)
            if cert.lee != twist:
                raise MathError(f"family {family}: unexpected Lee form {cert.lee}")
            coords = class_coords(alg, twist, form)
            if coords != tuple(c1 * c for c in rep_coords) or not any(coords):
                raise MathError(f"family {family}: unexpected class coordinates")
            checked += 1
        results.append(Theorem1Family(family, pfaffian, twist, rep, checked))
    return tuple(results)
