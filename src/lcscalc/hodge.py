"""Hodge duality for the invariant complex: star, codifferential, twists.

Sign conventions, with N the number of generators and l the input degree:

* star on a monomial e_I is sign(I, I^c) e_{I^c}, the permutation sign of
  the concatenated tuple relative to ascending order, times a metric weight;
* codifferential: delta = (-1)^(N*l + N + 1) * d * on degree l;
* twist contraction: U_w(theta) = (-1)^(N*l + N) * (w ^ * theta);
* delta_w = delta + U_w.

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


def codiff(alg: Algebra, a: Form) -> Form:
    """Codifferential; degree 0 maps to 0 by definition."""
    if a.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    if a.degree == 0 or a.is_zero():
        return alg.basis.zero(0)
    n, l = alg.dim, a.degree
    result = star(alg, d(alg, star(alg, a)))
    if (n * l + n + 1) % 2:
        result = -result
    return result


def u_omega(alg: Algebra, omega: Form, a: Form) -> Form:
    """Metric adjoint of wedging with the 1-form omega."""
    if a.basis != alg.basis or omega.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    if a.degree == 0 or a.is_zero() or omega.is_zero():
        return alg.basis.zero(max(a.degree - 1, 0))
    n, l = alg.dim, a.degree
    result = star(alg, omega.wedge(star(alg, a)))
    if (n * l + n) % 2:
        result = -result
    return result


def delta_omega(alg: Algebra, omega: Form, a: Form) -> Form:
    return codiff(alg, a) + u_omega(alg, omega, a)


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


def twisted_matrix(alg: Algebra, omega: Form, degree: int) -> list[list]:
    """Matrix of d_w from degree l to l+1 in the monomial bases."""
    if degree >= alg.dim:
        return []
    images = [
        d_omega(alg, omega, alg.basis.monomial_form(m))
        for m in alg.basis.monomials(degree)
    ]
    target = list(alg.basis.monomials(degree + 1))
    return operator_matrix(images, target, alg.zero_scalar())


def cotwisted_matrix(alg: Algebra, omega: Form, degree: int) -> list[list]:
    """Matrix of delta_w from degree l to l-1 in the monomial bases."""
    if degree <= 0:
        return []
    images = [
        delta_omega(alg, omega, alg.basis.monomial_form(m))
        for m in alg.basis.monomials(degree)
    ]
    target = list(alg.basis.monomials(degree - 1))
    return operator_matrix(images, target, alg.zero_scalar())


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

    def __init__(self, alg: Algebra, omega: Form, store: dict[str, dict]):
        self.alg = alg
        self.omega = omega
        self._d: dict[int, list[list]] = store.setdefault("d", {})
        self._delta: dict[int, list[list]] = store.setdefault("delta", {})
        self._kernel: dict[int, list[list]] = store.setdefault("kernel", {})
        self._delta_rank: dict[int, int] = store.setdefault("delta_rank", {})
        self._harmonic: dict[int, HarmonicSpace] = store.setdefault("harmonic", {})

    def size(self, degree: int) -> int:
        """Number of monomials of a degree (0 outside 0..N)."""
        return comb(self.alg.dim, degree) if degree >= 0 else 0

    def d_matrix(self, degree: int) -> list[list]:
        if degree not in self._d:
            self._d[degree] = twisted_matrix(self.alg, self.omega, degree)
        return self._d[degree]

    def delta_matrix(self, degree: int) -> list[list]:
        if degree not in self._delta:
            self._delta[degree] = cotwisted_matrix(self.alg, self.omega, degree)
        return self._delta[degree]

    def kernel(self, degree: int) -> list[list]:
        """Reduced kernel basis of d_w: a unit entry at each free column."""
        if degree not in self._kernel:
            self.alg.require_rational("twisted cohomology")
            self._kernel[degree] = nullspace(
                self.d_matrix(degree),
                self.size(degree),
                self.alg.zero_scalar(),
                self.alg.one_scalar(),
            )
        return self._kernel[degree]

    def d_rank(self, degree: int) -> int:
        """Rank of d_w leaving a degree (0 below degree 0)."""
        if degree < 0:
            return 0
        return self.size(degree) - len(self.kernel(degree))

    def delta_rank(self, degree: int) -> int:
        """Rank of delta_w leaving a degree (0 outside 1..N)."""
        if degree not in self._delta_rank:
            self.alg.require_rational("twisted cohomology")
            n = self.size(degree)
            self._delta_rank[degree] = rank(self.delta_matrix(degree), n) if n else 0
        return self._delta_rank[degree]

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
        if degree not in self._harmonic:
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
                Form(self.alg.basis, degree, zip(monos, vec))
                for vec in vectors
            )
            self._harmonic[degree] = HarmonicSpace(degree, basis_forms, self.omega)
        return self._harmonic[degree]

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
