"""Differential structure of an invariant complex given by structure data.

An `Algebra` holds d of every degree-1 generator as a 2-form.  The
differential extends as an antiderivation; frame-field brackets are derived
from the pairing (d e)(X_i, X_j) = -e([X_i, X_j]); the twisted differential
adds wedging with a closed 1-form.  Degree-0 elements are constants, so
their untwisted differential vanishes and d_w(c) = c*w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING

from .errors import (
    BasisMismatch,
    DegreeMismatch,
    InvalidMetric,
    OmegaNotClosed,
    ParamModeUnsupported,
    StructureError,
)
from .exterior import Basis, Form, VectorField, frame_field, interior
from .scalar import ParamScalar, Scalar, ScalarMode

if TYPE_CHECKING:
    from .hodge import TwistedComplex


@dataclass(frozen=True)
class D2Result:
    ok: bool
    generator: str | None = None
    residual: Form | None = None


@dataclass(frozen=True)
class JacobiResult:
    ok: bool
    triple: tuple[int, int, int] | None = None
    residual: VectorField | None = None


class BracketTable:
    """Antisymmetric table of frame-field brackets, bilinear extension."""

    def __init__(self, basis: Basis, table: tuple[tuple[VectorField, ...], ...]):
        self.basis = basis
        self.table = table

    def frame_bracket(self, i: int, j: int) -> VectorField:
        return self.table[i][j]

    def bracket(self, u: VectorField, v: VectorField) -> VectorField:
        out = VectorField(self.basis, tuple(Fraction(0) for _ in self.basis.names))
        for i, ci in enumerate(u.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(v.coeffs):
                if not cj:
                    continue
                out = out + (ci * cj) * self.table[i][j]
        return out


def _sqrt_fraction(q: Fraction) -> Fraction | None:
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class Algebra:
    """Invariant complex data: basis, d on generators, diagonal metric, mode.

    Instances are immutable after construction; derived data (d*d check,
    bracket table, metric weights, the d table of each degree, and one
    store per closed twist for the matrices and reductions of its complex)
    is memoized, and recomputation is idempotent so concurrent reads are
    safe.
    """

    def __init__(
        self,
        basis: Basis,
        dgen: list[Form] | tuple[Form, ...],
        metric: list[Scalar] | tuple[Scalar, ...] | None = None,
        mode: ScalarMode | None = None,
    ):
        if mode is None:
            mode = ScalarMode.rational()
        dgen = tuple(dgen)
        if len(dgen) != basis.dim:
            raise ValueError("need one structure 2-form per generator")
        for g, f in zip(basis.names, dgen):
            if f.basis != basis:
                raise BasisMismatch(f"structure form for {g} uses a different basis")
            if not f.is_zero() and f.degree != 2:
                raise ValueError(f"d {g} must be a 2-form")
        if metric is None:
            metric = tuple(mode.one() for _ in basis.names)
        else:
            metric = tuple(mode.coerce(g) for g in metric)
        for g in metric:
            q = g.as_fraction() if isinstance(g, ParamScalar) else g
            if q is None:
                raise InvalidMetric("metric entries must be constant scalars")
            if q <= 0:
                raise InvalidMetric("metric entries must be positive")
        self.basis = basis
        self.dgen = dgen
        self.metric = metric
        self.identity_metric = all(g == 1 for g in metric)
        self.mode = mode
        self._d2: D2Result | None = None
        self._brackets: BracketTable | None = None
        self._weights: tuple[Scalar, ...] | None = None
        self._d_tables: dict[int, dict] = {}
        self._twisted: dict[Form, dict] = {}

    @property
    def dim(self) -> int:
        return self.basis.dim

    def zero_scalar(self) -> Scalar:
        return self.mode.zero()

    def one_scalar(self) -> Scalar:
        return self.mode.one()

    def check_d2(self) -> D2Result:
        """Verify d(d g) = 0 for every generator (memoized)."""
        if self._d2 is None:
            result = D2Result(True)
            for name, dg in zip(self.basis.names, self.dgen):
                res = d(self, dg)
                if not res.is_zero():
                    result = D2Result(False, name, res)
                    break
            self._d2 = result
        return self._d2

    def require_valid(self):
        res = self.check_d2()
        if not res.ok:
            raise StructureError(
                f"d*d != 0 on generator {res.generator}: residual {res.residual}"
            )

    def require_closed(self, omega: Form):
        """Check a twist is a closed 1-form; a closed twist gets its store."""
        if omega.basis != self.basis:
            raise BasisMismatch("twist form over a different basis")
        if not omega.is_zero() and omega.degree != 1:
            raise DegreeMismatch("twist must be a 1-form")
        if omega in self._twisted:
            return
        dw = d(self, omega)
        if not dw.is_zero():
            raise OmegaNotClosed(f"twist {omega} is not closed: d = {dw}")
        self._twisted[omega] = {}

    def require_rational(self, what: str):
        if self.mode.is_param:
            raise ParamModeUnsupported(
                f"{what} needs exact ranks; instantiate the parameters first"
            )

    def brackets(self) -> BracketTable:
        if self._brackets is None:
            self._brackets = brackets_from_d(self)
        return self._brackets

    def metric_weights(self) -> tuple[Scalar, ...]:
        """Rational square roots of the metric entries, in the algebra's mode."""
        if self._weights is None:
            weights = []
            for name, g in zip(self.basis.names, self.metric):
                r = _sqrt_fraction(g.as_fraction() if isinstance(g, ParamScalar) else g)
                if r is None:
                    raise InvalidMetric(
                        f"metric entry for {name} must be the square of a rational "
                        "for exact Hodge duality"
                    )
                weights.append(self.mode.from_fraction(r))
            self._weights = tuple(weights)
        return self._weights

    def d_table(self, degree: int) -> dict[tuple[int, ...], dict]:
        """d of each degree-l monomial, in lex order, as canonical terms.

        Maps each ascending index tuple to the `terms` of its d, built once
        per degree by `d` itself, so d stays the one derivative.
        """
        table = self._d_tables.get(degree)
        if table is None:
            table = {
                m: d(self, self.basis.monomial_form(m)).terms
                for m in self.basis.monomials(degree)
            }
            self._d_tables[degree] = table
        return table

    def twisted_complex(self, omega: Form) -> TwistedComplex:
        """The complex of d_w and delta_w for a closed twist.

        Both checks are memoized, so only the first call for a twist does
        work; later calls reuse the matrices and reductions already made.
        """
        from .hodge import TwistedComplex

        self.require_valid()
        self.require_closed(omega)
        return TwistedComplex(self, omega, self._twisted[omega])


def d(alg: Algebra, a: Form) -> Form:
    """Exterior differential extended from the generators as an antiderivation.

    On a monomial, d e_I = sum_m (-1)^m (d e_{I_m}) ^ e_{I without I_m}; each
    piece is a raw pair `(head + rest, coefficient)`, so only the result is a Form.
    For odd m the head is reversed, and the sort sign of Form supplies (-1)^m.
    """
    if a.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    if a.degree == 0 or a.is_zero() or a.degree >= alg.dim:
        return alg.basis.zero(min(a.degree + 1, alg.dim))

    def pairs():
        for idx, c in a.terms.items():
            for m, i in enumerate(idx):
                rest = idx[:m] + idx[m + 1 :]
                # heads are ascending pairs: d of a generator is a 2-form
                for head, h in alg.dgen[i].terms.items():
                    if head[0] not in rest and head[1] not in rest:
                        yield (head[::-1] if m % 2 else head) + rest, c * h

    return Form(alg.basis, a.degree + 1, pairs())


def check_d2(alg: Algebra) -> D2Result:
    return alg.check_d2()


def brackets_from_d(alg: Algebra) -> BracketTable:
    """Frame brackets from structure data.

    If d e^k = sum_{i<j} A^k_ij e^i^e^j then [X_i, X_j] = -sum_k A^k_ij X_k.
    """
    n = alg.dim
    zero = alg.zero_scalar()
    coeffs = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for k, dg in enumerate(alg.dgen):
        for (i, j), a in dg.terms.items():
            coeffs[i][j][k] = -a
            coeffs[j][i][k] = a
    table = tuple(
        tuple(VectorField(alg.basis, tuple(coeffs[i][j])) for j in range(n))
        for i in range(n)
    )
    return BracketTable(alg.basis, table)


def jacobi_check(table: BracketTable) -> JacobiResult:
    """Cyclic Jacobi sum over all frame triples; reports the first failure."""
    n = table.basis.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = (
                    table.bracket(frame_field(table.basis, i), table.frame_bracket(j, k))
                    + table.bracket(frame_field(table.basis, j), table.frame_bracket(k, i))
                    + table.bracket(frame_field(table.basis, k), table.frame_bracket(i, j))
                )
                if not total.is_zero():
                    return JacobiResult(False, (i, j, k), total)
    return JacobiResult(True)


def d_omega(alg: Algebra, omega: Form, a: Form) -> Form:
    """Twisted differential d_w(a) = d(a) + w ^ a for a closed 1-form w."""
    alg.require_closed(omega)
    if a.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    return d(alg, a) + omega.wedge(a)


def lie_derivative(alg: Algebra, v: VectorField, a: Form) -> Form:
    """Lie derivative of an invariant form along an invariant field (Cartan)."""
    if v.basis != alg.basis:
        raise BasisMismatch("vector field over a different basis")
    return interior(v, d(alg, a)) + d(alg, interior(v, a))


def is_unimodular(alg: Algebra) -> bool:
    """True when every adjoint map of the derived bracket table is traceless."""
    alg.require_valid()
    table = alg.brackets()
    n = alg.dim
    for i in range(n):
        trace = alg.zero_scalar()
        for j in range(n):
            trace = trace + table.frame_bracket(i, j).coeffs[j]
        if trace:
            return False
    return True
