"""Hodge duality for the invariant complex: star, codifferential, twists.

Sign conventions, with N the number of generators and l the input degree:

* star on a monomial e_I is sign(I, I^c) e_{I^c}, the permutation sign of
  the concatenated tuple relative to ascending order, times the metric
  weight prod_{i in I^c} w_i / prod_{i in I} w_i (1 for the identity metric);
* codifferential: delta = (-1)^(N*l + N + 1) * d * on degree l;
* twist contraction: U_w(theta) = (-1)^(N*l + N) * (w ^ * theta);
* delta_w = delta + U_w = (-1)^(N*l + N + 1) * (d - w ^) *, one conjugation.

The matrices of d_w and delta_w are read off the d table that `d` reads
(`Algebra.d_monomial`) without building a form.  The star of a monomial is
one signed, weighted monomial, so column I of delta_w is the entry of
e_{I^c} minus w ^ e_{I^c}, re-indexed by complements: delta_w comes from
its definition, never from the matrix of d_w.  Under a metric each
monomial's weight is computed once per matrix.

The diagonal metric lists the coefficients g_i of g = sum g_i (e^i)^2.  For
the star to stay exact each g_i must be the square of a rational; the
identity metric always qualifies.  The inner product is computed directly
from the metric weights and never needs square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .cecomplex import Algebra, d
from .errors import BasisMismatch, DegreeMismatch
from .exterior import Form
from .linalg import nullspace, rank
from .scalar import Scalar, ring_rows


def _star_entry(alg: Algebra, idx: tuple[int, ...]):
    """The star on e_I as (I^c, sign of (I, I^c), weight or None if it is 1)."""
    comp = tuple(i for i in range(alg.dim) if i not in idx)
    # I_m - m indices of I^c lie below I_m (m counted from 0): the inversions
    sign = -1 if (sum(idx) - len(idx) * (len(idx) - 1) // 2) % 2 else 1
    if alg.identity_metric:
        return comp, sign, None
    weights = alg.metric_weights()
    return comp, sign, prod(weights[i] for i in comp) / prod(weights[i] for i in idx)


def star(alg: Algebra, a: Form) -> Form:
    """Hodge star for the diagonal metric and the ascending orientation."""
    if a.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    out: dict = {}
    for idx, c in a.terms.items():
        comp, sign, weight = _star_entry(alg, idx)
        if weight is not None:
            c = c * weight
        out[comp] = c if sign > 0 else -c
    return Form(alg.basis, alg.dim - a.degree, out)


def _conjugate(alg: Algebra, a: Form, op, p: int) -> Form:
    """(-1)^(N*l + N + p) * star(op(star a)) on a degree-l form; 0 on degree 0."""
    if a.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    if a.degree == 0 or a.is_zero():
        return alg.basis.zero(max(a.degree - 1, 0))
    n = alg.dim
    result = star(alg, op(star(alg, a)))
    return -result if (n * a.degree + n + p) % 2 else result


def codiff(alg: Algebra, a: Form) -> Form:
    """Codifferential; degree 0 maps to 0 by definition."""
    return _conjugate(alg, a, lambda b: d(alg, b), 1)


def u_omega(alg: Algebra, omega: Form, a: Form) -> Form:
    """Metric adjoint of wedging with the 1-form omega."""
    if omega.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    return _conjugate(alg, a, omega.wedge, 0)


def delta_omega(alg: Algebra, omega: Form, a: Form) -> Form:
    """delta + U_w, as one conjugation of d - w^ by the star."""
    if omega.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    return _conjugate(alg, a, lambda b: d(alg, b) - omega.wedge(b), 1)


def inner(alg: Algebra, rho: Form, nu: Form) -> Scalar:
    """Inner product with unit total volume; monomials are orthogonal."""
    if rho.basis != alg.basis or nu.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    if rho.is_zero() or nu.is_zero():
        return alg.zero_scalar()
    if rho.degree != nu.degree:
        raise DegreeMismatch(
            f"inner product needs equal degrees, got {rho.degree} and {nu.degree}"
        )
    total = alg.zero_scalar()
    for idx, c in rho.terms.items():
        other = nu.terms.get(idx)
        if other is None:
            continue
        term = c * other
        for i in idx:
            term = term / alg.metric[i]
        total = total + term
    return total


@dataclass(frozen=True)
class HarmonicSpace:
    """Basis of the forms killed by both d_w and delta_w in one degree."""

    degree: int
    basis: tuple[Form, ...]
    omega: Form

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _d_plus(alg: Algebra, idx: tuple[int, ...], omega: Form, sign: int) -> dict:
    """d e_I + sign * (w ^ e_I) as terms."""
    out = alg.d_monomial(idx)
    for (i,), c in omega.terms.items():
        if i not in idx:
            p = sum(x < i for x in idx)  # e_i moves past the p indices of I below i
            key = idx[:p] + (i,) + idx[p:]
            c = c if (p % 2 == 0) == (sign > 0) else -c
            out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _fill(alg: Algebra, columns: list[dict], degree: int) -> list[list]:
    """The matrix whose column j holds the terms columns[j] of degree l."""
    zero = alg.zero_scalar()
    rows = {m: [zero] * len(columns) for m in alg.basis.monomials(degree)}
    for j, column in enumerate(columns):
        for m, c in column.items():
            rows[m][j] = c
    return list(rows.values())


def twisted_matrix(alg: Algebra, omega: Form, degree: int) -> list[list]:
    """Matrix of d_w from degree l to l+1 in the monomial bases."""
    if not 0 <= degree < alg.dim:
        return []
    alg.require_closed(omega)
    columns = [_d_plus(alg, idx, omega, 1) for idx in alg.basis.monomials(degree)]
    return _fill(alg, columns, degree + 1)


def cotwisted_matrix(alg: Algebra, omega: Form, degree: int) -> list[list]:
    """Matrix of delta_w from degree l to l-1 in the monomial bases.

    Column I is (-1)^(N*l + N + 1) * star((d - w^) star e_I): the star of
    e_I is a multiple of e_{I^c}, and the star of each term e_J of
    (d - w^) e_{I^c} a multiple of e_{J^c}.
    """
    n = alg.dim
    if not 1 <= degree <= n:
        return []
    alg.require_closed(omega)
    flip = -1 if (n * degree + n + 1) % 2 else 1
    stars = {j: _star_entry(alg, j) for j in alg.basis.monomials(n - degree + 1)}
    columns = []
    for idx in alg.basis.monomials(degree):
        comp, sign, weight = _star_entry(alg, idx)
        column = {}
        for j, c in _d_plus(alg, comp, omega, -1).items():
            k, sign_j, weight_j = stars[j]
            if weight is not None:
                c = c * (weight * weight_j)
            column[k] = c if flip * sign * sign_j > 0 else -c
        columns.append(column)
    return _fill(alg, columns, degree - 1)


class TwistedComplex:
    """d_w and delta_w of one algebra and closed twist, filled in lazily.

    Per degree it holds the two matrices, the kernel of d_w (whose size
    gives the rank), the rank of delta_w and the harmonic basis; each is
    computed at most once.  Obtain one from `Algebra.twisted_complex`, which
    checks the structure data and the twist once per twist and hands every
    complex of that twist the same store.  The store refers back to neither
    the algebra nor the complex, so dropping the algebra frees it at once.
    Both matrices are read off the algebra's d table.  delta_w is
    (-1)^(N*l + N + 1) * star (d - w^) star there, assembled from its
    definition and never from d_w, so the harmonic dimensions stay an
    independent check on the ranks.  Matrices are available in parameter
    mode; ranks are not.
    """

    def __init__(self, alg: Algebra, omega: Form, store: dict):
        self.alg = alg
        self.omega = omega
        self._store = store

    def _once(self, key: tuple[str, int], make):
        """The value stored under (kind, degree), from make() on first use."""
        if key not in self._store:
            self._store[key] = make()
        return self._store[key]

    def size(self, degree: int) -> int:
        """Number of monomials of a degree (0 outside 0..N)."""
        return comb(self.alg.dim, degree) if degree >= 0 else 0

    def d_matrix(self, degree: int) -> list[list]:
        return self._once(("d", degree), lambda: twisted_matrix(self.alg, self.omega, degree))

    def delta_matrix(self, degree: int) -> list[list]:
        return self._once(
            ("delta", degree), lambda: cotwisted_matrix(self.alg, self.omega, degree)
        )

    def kernel(self, degree: int) -> list[list]:
        """Reduced kernel basis of d_w: a unit entry at each free column."""
        self.alg.require_rational("twisted cohomology")
        zero, one = self.alg.zero_scalar(), self.alg.one_scalar()
        return self._once(
            ("kernel", degree),
            lambda: nullspace(self.d_matrix(degree), self.size(degree), zero, one),
        )

    def d_rank(self, degree: int) -> int:
        """Rank of d_w leaving a degree (0 below degree 0)."""
        if degree < 0:
            return 0
        return self.size(degree) - len(self.kernel(degree))

    def delta_rank(self, degree: int) -> int:
        """Rank of delta_w leaving a degree (0 outside 1..N)."""
        self.alg.require_rational("twisted cohomology")
        n = self.size(degree)
        return self._once(
            ("delta_rank", degree), lambda: rank(self.delta_matrix(degree), n) if n else 0
        )

    def betti(self, degree: int) -> int:
        """dim ker d_w - dim im d_w in one degree."""
        return len(self.kernel(degree)) - self.d_rank(degree - 1)

    def harmonic(self, degree: int) -> HarmonicSpace:
        """Kernel of delta_w inside the kernel K of d_w, as K*c.

        c runs over the reduced kernel basis of delta_w*K.  A reduced kernel
        basis depends only on the subspace (its unit entries sit where the
        basis vectors end), so K*c is the reduced kernel basis of the
        stacked matrix [d_w; delta_w].
        """
        return self._once(("harmonic", degree), lambda: self._harmonic(degree))

    def _harmonic(self, degree: int) -> HarmonicSpace:
        """K*c in Python ints.

        Scaling the rows of delta_w keeps its kernel.  With K_j scaled by
        b_j, the lcm of its denominators (b_j then sits at its free column,
        its last nonzero entry), and c by m, the reduced kernel vector at
        the free column f of c is the integer K*c divided by m * b_f.
        """
        kernel = self.kernel(degree)
        delta = self.delta_matrix(degree)
        vectors = kernel
        if kernel and delta:
            rows, ints = ring_rows(delta)[0], ring_rows(kernel)[0]
            support = [[i for i, x in enumerate(k) if x] for k in ints]
            image = [
                [sum(row[i] * k[i] for i in s) for k, s in zip(ints, support)] for row in rows
            ]
            coords = nullspace(image, len(kernel), Fraction(0), Fraction(1))
            vectors = []
            for c in ring_rows(coords)[0]:
                f = max(j for j, x in enumerate(c) if x)
                scale = c[f] * ints[f][support[f][-1]]
                vec = [0] * self.size(degree)
                for cj, k, s in zip(c, ints, support):
                    if cj:
                        for i in s:
                            vec[i] += cj * k[i]
                vectors.append([Fraction(x, scale) for x in vec])
        monos = list(self.alg.basis.monomials(degree))
        basis_forms = tuple(
            Form(self.alg.basis, degree, zip(monos, vec)) for vec in vectors
        )
        return HarmonicSpace(degree, basis_forms, self.omega)

    def decomposition(self, degree: int) -> tuple[int, int, int]:
        """Dimensions of the harmonic, twisted-exact and twisted-coexact parts."""
        return (
            self.harmonic(degree).dimension,
            self.d_rank(degree - 1),
            self.delta_rank(degree + 1),
        )


def harmonic_space(alg: Algebra, omega: Form, degree: int) -> HarmonicSpace:
    """Exact kernel intersection of d_w and delta_w in one degree."""
    return alg.twisted_complex(omega).harmonic(degree)


def decomposition_dims(alg: Algebra, omega: Form, degree: int) -> tuple[int, int, int]:
    """Dimensions of the harmonic, twisted-exact and twisted-coexact parts."""
    return alg.twisted_complex(omega).decomposition(degree)
