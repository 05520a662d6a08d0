"""Differential structure of an invariant complex given by structure data.

An `Algebra` holds d of every degree-1 generator as a 2-form.  The
differential extends as an antiderivation, once per degree, into D_l, the
matrix of the untwisted d leaving degree l (`Algebra.d_matrix`), built in
one pass over the monomials as bitmasks.  For rational structure data it
holds integer numerators over one denominator D.  Every reader of d shares
it: `d` reads its columns, so `check_d2` and `require_closed` read it too,
and the d_w matrices of `hodge` and the automorphism system of `lcs` copy
its rows.
Frame-field brackets are derived from the pairing
(d e)(X_i, X_j) = -e([X_i, X_j]); the twisted differential adds wedging
with a closed 1-form.  Degree-0 elements are constants, so their untwisted
differential vanishes and d_w(c) = c*w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm
from typing import TYPE_CHECKING

from .errors import (
    BasisMismatch, DegreeMismatch, InvalidMetric, MixedModes, OmegaNotClosed,
    ParamModeUnsupported, StructureError,
)
from .exterior import (
    Basis, Form, VectorField, interior, mask_index,
)
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
    """Antisymmetric table of frame-field brackets [X_i, X_j]."""

    def __init__(self, basis: Basis, table: tuple[tuple[VectorField, ...], ...]):
        self.basis = basis
        self.table = table

    def frame_bracket(self, i: int, j: int) -> VectorField:
        return self.table[i][j]


def _sqrt_fraction(q: Fraction) -> Fraction | None:
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class Algebra:
    """Invariant complex data: basis, d on generators, diagonal metric, mode.

    Instances are immutable after construction; derived data (d*d check,
    bracket table, metric weights, trace form, the matrix D_l of d and its
    column view for each degree, and one store per closed twist for the matrices and reductions of its
    complex) is memoized, and recomputation is idempotent so concurrent
    reads are safe.
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
        self._weights: tuple[Fraction, ...] | None = None
        self._trace: Form | None = None
        # rational structure data as integer numerators over one denominator
        den = self.d_den = lcm(*[f.den for f in dgen]) if all(f.den for f in dgen) else None
        self._heads = [
            [(h, c * (den // f.den)) for h, c in f.nums.items()] if den else f.terms.items()
            for f in dgen
        ]
        self._d_rows: dict[int, list[list]] = {}
        self._d_columns: dict[int, dict] = {}
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
        """Check a twist is a closed 1-form; w and tau - w get their stores.

        The trace form tau is closed on valid structure data, and only the
        complex of a valid algebra reads a store.
        """
        if omega.basis != self.basis:
            raise BasisMismatch("twist form over a different basis")
        if not omega.is_zero() and omega.degree != 1:
            raise DegreeMismatch("twist must be a 1-form")
        if omega in self._twisted:
            return
        if not self.mode.is_param and not omega.den:
            raise MixedModes("a twist with symbolic coefficients needs a parameter-mode algebra")
        dw = d(self, omega)
        if not dw.is_zero():
            raise OmegaNotClosed(f"twist {omega} is not closed: d = {dw}")
        self._twisted[omega] = {}
        self._twisted.setdefault(self.trace_form() - omega, {})  # d(tau - w) = -d(w)

    def require_rational(self, what: str):
        if self.mode.is_param:
            raise ParamModeUnsupported(
                f"{what} needs exact ranks; instantiate the parameters first"
            )

    def brackets(self) -> BracketTable:
        if self._brackets is None:
            self._brackets = brackets_from_d(self)
        return self._brackets

    def metric_weights(self) -> tuple[Fraction, ...]:
        """Rational square roots of the metric entries, as Fractions in either mode."""
        if self._weights is None:
            weights = []
            for name, g in zip(self.basis.names, self.metric):
                r = _sqrt_fraction(g.as_fraction() if isinstance(g, ParamScalar) else g)
                if r is None:
                    raise InvalidMetric(
                        f"metric entry for {name} must be the square of a rational "
                        "for exact Hodge duality"
                    )
                weights.append(r)
            self._weights = tuple(weights)
        return self._weights

    def trace_form(self) -> Form:
        """tau = sum_i tr(ad X_i) e^i, zero exactly on unimodular data.

        With A^k_ab the coefficient of e_a ^ e_b in d e_k (a < b), the bracket
        [X_a, X_b] = -sum_k A^k_ab X_k gives
        tr ad X_i = sum_{k<i} A^k_ki - sum_{k>i} A^k_ik, read off the structure
        data (integer numerators over `d_den` when rational) without a
        bracket table.
        """
        if self._trace is None:
            traces = [0] * self.dim
            for k, heads in enumerate(self._heads):
                for (a, b), c in heads:
                    if a == k:
                        traces[b] += c
                    elif b == k:
                        traces[a] -= c
            terms = {(i,): t for i, t in enumerate(traces) if t}
            if self.d_den:
                self._trace = Form.over(self.basis, 1, self.d_den, terms)
            else:
                self._trace = Form.canonical(self.basis, 1, terms)
        return self._trace

    def d_matrix(self, degree: int) -> list[list]:
        """D_l, the rows of the untwisted d leaving a degree (`_d_matrix`), built once."""
        rows = self._d_rows.get(degree)
        if rows is None:
            rows = self._d_rows[degree] = _d_matrix(self, degree)
        return rows

    def d_columns(self, degree: int) -> dict[tuple[int, ...], list[tuple]]:
        """Column I of D_l as its nonzero (row, entry) pairs, for each monomial I; derived once."""
        columns = self._d_columns.get(degree)
        if columns is None:
            nonzero = ([(r, x) for r, x in enumerate(col) if x] for col in zip(*self.d_matrix(degree)))
            columns = self._d_columns[degree] = dict(zip(self.basis.monomials(degree), nonzero))
        return columns

    def twisted_complex(self, omega: Form) -> TwistedComplex:
        """The complex of d_w and delta_w for a closed twist.

        Both checks are memoized, so only the first call for a twist does
        work; later calls reuse the matrices and reductions already made.
        """
        from .hodge import TwistedComplex

        self.require_valid()
        self.require_closed(omega)
        return TwistedComplex(self, omega, self._twisted[omega])


def _d_matrix(alg: Algebra, degree: int) -> list[list]:
    """D_l: row r is the degree-(l+1) monomial at lex position r, column j the degree-l one.

    Monomials are bitmasks, bit i for generator i (`mask_index`).  Column I
    is d e_I = sum_m (-1)^m (d e_{I_m}) ^ e_R with R = I without I_m: a head
    (a, b) of d e_{I_m} that misses R lands in row R + {a, b} with sign
    (-1)^(m + |R in [0, a)| + |R in [0, b)|), and as a is not in R the two
    counts add up to |R in (a, b)| modulo 2.  For rational structure data
    the entries are integer numerators over `d_den`, else the scalars; an
    entry stores its first contribution and adds only the later ones.
    """
    n = alg.dim
    heads = [[(1 << a | 1 << b, (1 << b) - (2 << a), h) for (a, b), h in hs] for hs in alg._heads]
    row_at = mask_index(n, degree + 1)
    rows = [[0] * comb(n, degree) for _ in row_at]
    for j, (mask, idx) in enumerate(zip(mask_index(n, degree), alg.basis.monomials(degree))):
        for m, i in enumerate(idx):
            rest = mask ^ (1 << i)
            for ab, between, h in heads[i]:
                if not rest & ab:
                    row = rows[row_at[rest | ab]]
                    v = -h if (m + (rest & between).bit_count()) & 1 else h
                    x = row[j]
                    row[j] = x + v if x else v
    return rows


def d(alg: Algebra, a: Form) -> Form:
    """Exterior differential: D_l times the coefficients of a, read by column.

    Each term c e_I of a adds c times the nonzero entries of column I
    (`Algebra.d_columns`).  A rational form's integer numerators over its
    den meet integer D_l over D as ints, and the result is their sums over
    den * D.  Other coefficients keep their own arithmetic.
    """
    if a.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    if a.degree == 0 or a.is_zero() or a.degree >= alg.dim:
        return alg.basis.zero(min(a.degree + 1, alg.dim))
    columns, den = alg.d_columns(a.degree), alg.d_den
    rational = den and a.den
    pairs = a.nums.items() if rational else [(i, c / den if den else c) for i, c in a.terms.items()]
    out: dict = {}
    for idx, c in pairs:
        for r, t in columns[idx]:
            prev = out.get(r)
            out[r] = c * t if prev is None else prev + c * t
    keys = alg.basis.monomials(a.degree + 1)
    terms = {keys[r]: v for r, v in out.items() if v}
    if rational:
        return Form.over(alg.basis, a.degree + 1, a.den * den, terms)
    return Form.canonical(alg.basis, a.degree + 1, terms)


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
    """Cyclic Jacobi sums over all frame triples; reports the first failure.

    With [X_a, X_b] = sum_m c^m_ab X_m, component l of [X_a, [X_b, X_c]] is
    sum_m c^m_bc c^l_am, so each triple sums these products over its three
    cyclic orders on the coefficient tuples; the residual field is built
    only for a failing triple.
    """
    n = table.basis.dim
    c = [[v.coeffs for v in row] for row in table.table]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [None] * n
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    outer = c[a]
                    for m, x in enumerate(c[b][e]):
                        if x:
                            for l, y in enumerate(outer[m]):
                                if y:
                                    t = total[l]
                                    total[l] = x * y if t is None else t + x * y
                if any(total):
                    residual = tuple(0 if t is None else t for t in total)
                    return JacobiResult(False, (i, j, k), VectorField(table.basis, residual))
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
    """True when every adjoint map ad X_i is traceless: the trace form is zero."""
    alg.require_valid()
    return alg.trace_form().is_zero()
