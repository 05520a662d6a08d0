"""Built-in construction of the 4-dimensional solvable example algebra.

The `acfm` preset uses generators (alpha, beta, gamma, eta) with

    d alpha = -k alpha^gamma,   d beta = k beta^gamma,
    d gamma = 0,                d eta  = n*lambda alpha^beta,

the identity metric, and nonzero parameters n (an integer), k and lambda.
The helpers that take an algebra first check that it has this structure.
The t and s families of 2-forms,

    c1 e_rep + c2 e_second + c3 (n*lambda alpha^beta + sign*k gamma^eta),

are built from one table, `FAMILIES`; their exact part (c3 = 1 alone) is
what `exact_lcs` checks against the twisted differential of eta.
`theorem1` certifies the Lee forms (the twists sign*k*gamma) and twisted
classes of every nondegenerate member of both families by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cecomplex import Algebra, d_omega
from .cohomology import primitive
from .errors import CrossCheckError, InvalidParams, MathError
from .exterior import Basis, Form
from .lcs import top_power
from .scalar import Scalar, ScalarMode

ACFM_GENERATORS = ("alpha", "beta", "gamma", "eta")
ACFM_SYMBOLS = ("n", "k", "lambda")


@dataclass(frozen=True)
class AcfmParams:
    """Bundle parameters n, k, lambda; all three must be nonzero."""

    n: Scalar
    k: Scalar
    lam: Scalar


# per family: e_rep (its class represents the family's), e_second, sign
FAMILIES = {"t": ((0, 3), (1, 2), -1), "s": ((1, 3), (0, 2), 1)}


def _structure(basis: Basis, k: Scalar, nlam: Scalar) -> list[Form]:
    """d alpha, d beta, d gamma, d eta for the given k and n*lambda."""
    return [
        Form(basis, 2, {(0, 2): -k}),
        Form(basis, 2, {(1, 2): k}),
        basis.zero(2),
        Form(basis, 2, {(0, 1): nlam}),
    ]


def acfm(params: AcfmParams, mode: ScalarMode | None = None) -> Algebra:
    """Construct the preset algebra; structure data is validated (d*d = 0)."""
    if mode is None:
        mode = ScalarMode.rational()
    n = mode.coerce(params.n)
    k = mode.coerce(params.k)
    lam = mode.coerce(params.lam)
    for name, value in (("n", n), ("k", k), ("lambda", lam)):
        if not value:
            raise InvalidParams(f"parameter {name} must be nonzero")
    if not mode.is_param and Fraction(n).denominator != 1:
        raise InvalidParams("parameter n must be a nonzero integer")
    basis = Basis(ACFM_GENERATORS)
    alg = Algebra(basis, _structure(basis, k, n * lam), mode=mode)
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


def _preset_data(alg: Algebra) -> tuple[Scalar, Scalar]:
    """k and n*lambda, read off structure data that has the preset's shape."""
    if alg.basis.names == ACFM_GENERATORS:
        k = -alg.dgen[0].coefficient((0, 2))
        nlam = alg.dgen[3].coefficient((0, 1))
        if list(alg.dgen) == _structure(alg.basis, k, nlam):
            return k, nlam
    raise InvalidParams("algebra does not carry the preset structure data")


def _family(alg: Algebra, data: tuple[Scalar, Scalar], family: str, c1, c2, c3) -> Form:
    """c1 rep + c2 second + c3 (n*lambda alpha^beta + sign*k gamma^eta), data = (k, n*lambda)."""
    k, nlam = data
    rep, second, sign = FAMILIES[family]
    one, signed_k = alg.one_scalar(), (k if sign > 0 else -k)
    terms = [(rep, c1 * one), (second, c2 * one)]
    terms += [((0, 1), c3 * nlam), ((2, 3), c3 * signed_k)]
    return Form(alg.basis, 2, terms)


def omega_t(alg: Algebra, t1, t2, t3) -> Form:
    """t1 alpha^eta + t2 beta^gamma + t3 (n*lambda alpha^beta - k gamma^eta)."""
    return _family(alg, _preset_data(alg), "t", t1, t2, t3)


def omega_s(alg: Algebra, s1, s2, s3) -> Form:
    """s1 beta^eta + s2 alpha^gamma + s3 (n*lambda alpha^beta + k gamma^eta)."""
    return _family(alg, _preset_data(alg), "s", s1, s2, s3)


def _twist(alg: Algebra, k: Scalar, sign: int) -> Form:
    if sign not in (1, -1):
        raise InvalidParams("sign must be +1 or -1")
    return Form(alg.basis, 1, {(2,): k if sign > 0 else -k})


def twist_form(alg: Algebra, sign: int) -> Form:
    """The closed twist sign*k*gamma used by the two families."""
    return _twist(alg, _preset_data(alg)[0], sign)


def exact_lcs(alg: Algebra, sign: int) -> Form:
    """The twisted differential of eta for the twist sign*k*gamma.

    Computed through the complex and checked against the exact part of the
    family with this twist, n*lambda alpha^beta + sign*k gamma^eta.
    """
    data = _preset_data(alg)
    omega = _twist(alg, data[0], sign)
    result = d_omega(alg, omega, alg.basis.gen(3))
    family = next(name for name, (*_, s) in FAMILIES.items() if s == sign)
    if result != _family(alg, data, family, 0, 0, 1):
        raise CrossCheckError("twisted differential of eta has unexpected value")
    return result


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


def family_pfaffians(families, params: AcfmParams | None = None) -> dict[str, Scalar]:
    """Top power of each named t or s family with formal coefficients t1..s3.

    Without `params`, n, k and lambda are formal symbols as well.  One
    parameter-mode preset serves every family asked for.
    """
    for family in families:
        if family not in FAMILIES:
            raise InvalidParams(f"unknown family {family!r}; expected 't' or 's'")
    if params is None:
        alg = acfm_symbolic(FAMILY_SYMBOLS)
    else:
        alg = acfm(params, ScalarMode.params(*FAMILY_SYMBOLS))
    data = _preset_data(alg)
    out = {}
    for family in families:
        coeffs = (alg.mode.symbol(f"{family}{i}") for i in (1, 2, 3))
        out[family] = top_power(alg, _family(alg, data, family, *coeffs))
    return out


def family_pfaffian(family: str, params: AcfmParams | None = None) -> Scalar:
    """Top power of the t or s family: one entry of `family_pfaffians`."""
    return family_pfaffians((family,), params)[family]


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

    A family spans rep, second and its exact part (`_family` at the unit
    triples), and d_w is linear: d_w = 0 on the three gives every member
    d(Omega) = -w ^ Omega for the closed twist w, which is its Lee form once
    Pf != 0 (N = 4, so w -> w ^ Omega is injective).  The verified
    primitives of second and the exact part give one of Omega - c1 rep, and
    rep is not exact: every member with Pf != 0 has the class c1 [rep].
    THEOREM1_GRID only counts such members; a failed check, or a counted
    member with c1 = 0 (a zero class), raises MathError.
    """
    params = AcfmParams(Fraction(n), Fraction(k), Fraction(lam))
    return _theorem1(acfm(params), params)


def _theorem1(alg: Algebra, params: AcfmParams) -> tuple[Theorem1Family, Theorem1Family]:
    """`theorem1` on `alg`, the rational preset `acfm(params)` built once by the caller."""
    data = _preset_data(alg)
    pfaffians = family_pfaffians(FAMILIES, params)
    results = []
    for family, (*_, twist_sign) in FAMILIES.items():
        twist = _twist(alg, data[0], twist_sign)
        rep, *rest = (_family(alg, data, family, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        if any(not d_omega(alg, twist, x).is_zero() for x in (rep, *rest)):
            raise MathError(f"family {family}: unexpected Lee form")
        grid = [c[0] for c in THEOREM1_GRID if top_power(alg, _family(alg, data, family, *c))]
        exact = [primitive(alg, twist, x).exact for x in (rep, *rest)]
        if exact != [False, True, True] or not all(grid):
            raise MathError(f"family {family}: unexpected class coordinates")
        results.append(Theorem1Family(family, pfaffians[family], twist, rep, len(grid)))
    return tuple(results)
