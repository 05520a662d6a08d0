"""Hodge duality for the invariant complex: star, codifferential, twists.

Sign conventions, with N the number of generators and l the input degree:

* star on a monomial e_I is sign(I, I^c) e_{I^c}, the permutation sign of
  the concatenated tuple relative to ascending order, times a metric weight;
* codifferential: delta = (-1)^(N*l + N + 1) * d * on degree l;
* twist contraction: U_w(theta) = (-1)^(N*l + N) * (w ^ * theta);
* delta_w = delta + U_w = (-1)^(N*l + N + 1) * (d - w ^) *, one conjugation.

The diagonal metric lists the coefficients g_i of g = sum g_i (e^i)^2.  For
the star to stay exact each g_i must be the square of a rational; the
identity metric always qualifies.  The inner product is computed directly
from the metric weights and never needs square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cecomplex import Algebra, d, d_omega
from .errors import BasisMismatch, DegreeMismatch
from .exterior import Form, _sort_sign
from .linalg import nullspace, operator_matrix, rank
from .scalar import Scalar


def star(alg: Algebra, a: Form) -> Form:
    """Hodge star for the diagonal metric and the ascending orientation."""
    if a.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    n = alg.dim
    weights = alg.metric_weights()
    out: dict = {}
    for idx, c in a.terms.items():
        comp = tuple(i for i in range(n) if i not in idx)
        sign = _sort_sign(idx + comp)[1]
        coeff = c
        for i in comp:
            coeff = coeff * weights[i]
        for i in idx:
            coeff = coeff / weights[i]
        out[comp] = coeff if sign > 0 else -coeff
    return Form(alg.basis, n - a.degree, out)


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


def _matrix(alg: Algebra, op, degree: int, step: int) -> list[list]:
    """Matrix of op from degree l to l+step in the monomial bases.

    Empty when l+step lies outside 0..N.
    """
    if not 0 <= degree + step <= alg.dim:
        return []
    images = [op(alg.basis.monomial_form(m)) for m in alg.basis.monomials(degree)]
    target = list(alg.basis.monomials(degree + step))
    return operator_matrix(images, target, alg.zero_scalar())


def twisted_matrix(alg: Algebra, omega: Form, degree: int) -> list[list]:
    """Matrix of d_w from degree l to l+1 in the monomial bases."""
    return _matrix(alg, lambda a: d_omega(alg, omega, a), degree, 1)


def cotwisted_matrix(alg: Algebra, omega: Form, degree: int) -> list[list]:
    """Matrix of delta_w from degree l to l-1 in the monomial bases."""
    return _matrix(alg, lambda a: delta_omega(alg, omega, a), degree, -1)


class TwistedComplex:
    """d_w and delta_w of one algebra and closed twist, filled in lazily.

    Per degree it holds the two matrices, the kernel of d_w (whose size
    gives the rank), the rank of delta_w and the harmonic basis; each is
    computed at most once.  Obtain one from `Algebra.twisted_complex`, which
    checks the structure data and the twist once per twist and hands every
    complex of that twist the same store.  The store refers back to neither
    the algebra nor the complex, so dropping the algebra frees it at once.
    delta_w is assembled from its definition, never from d_w, so the
    harmonic dimensions stay an independent check on the ranks.  Matrices
    are available in parameter mode; ranks are not.
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
        zero = self.alg.zero_scalar()
        kernel = self.kernel(degree)
        delta = self.delta_matrix(degree)
        vectors = kernel
        if kernel and delta:
            support = [[i for i, x in enumerate(k) if x] for k in kernel]
            image = [
                [sum((row[i] * k[i] for i in s), zero) for k, s in zip(kernel, support)]
                for row in delta
            ]
            coords = nullspace(image, len(kernel), zero, self.alg.one_scalar())
            vectors = []
            for c in coords:
                vec = [zero] * self.size(degree)
                for cj, k, s in zip(c, kernel, support):
                    if cj:
                        for i in s:
                            vec[i] = vec[i] + cj * k[i]
                vectors.append(vec)
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
