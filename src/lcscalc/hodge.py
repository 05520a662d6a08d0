"""Hodge duality for the invariant complex: star, codifferential, twists.

Sign conventions, with N the number of generators and l the input degree:

* star on a monomial e_I is sign(I, I^c) e_{I^c}, the permutation sign of
  the concatenated tuple relative to ascending order, times the metric
  weight prod_{i in I^c} w_i / prod_{i in I} w_i (1 for the identity metric);
* codifferential: delta = (-1)^(N*l + N + 1) * (d + tau ^) * on degree l,
  tau = sum_i tr(ad X_i) e^i the trace form (`Algebra.trace_form`), which
  is zero on unimodular data.  d of an (N-1)-form a is -tau ^ a, so delta
  is the metric adjoint of d on every algebra;
* twist contraction: U_w(theta) = (-1)^(N*l + N) * (w ^ * theta);
* delta_w = delta + U_w = (-1)^(N*l + N + 1) * (d + (tau - w) ^) *, one
  conjugation, the metric adjoint of d_w.

The matrix of d_w is D_l + W_l, assembled without building a form
(`_assemble`): D_l is the untwisted d that `d` reads (`Algebra.d_matrix`),
built once per algebra and degree and shared by every twist, and W_l is
the sparse wedge with w, at most N - l entries per column.  The star of a
monomial is one signed, weighted monomial and d + (tau - w)^ = d_{tau-w}, so
delta_w on degree l is d_{tau-w} leaving degree N - l read through the star:
entry (J, I) is (-1)^(N*l + N + 1) * sign(J^c, J) * sign(I, I^c) * g_J / g_I
times entry (J^c, I^c), g_X = prod_{i in X} g_i, and complements reverse the
lex order.

For rational data each matrix is held as primitive integer rows: L times
the operator, L the lcm of D_l's denominator D and the twist's
denominators, each row divided by its content.  Ranks, kernels and
primitives are computed on these rows in Python ints; no scalar copy of a
matrix is made.

A complex whose every cohomology group vanishes (a nilpotent algebra with a
nonzero closed twist, by Dixmier) is certified acyclic from ranks modulo
the prime `linalg.PRIME` < 2^24, without a kernel past degree 1.  d and w
are checked to give d_w o d_w = 0, so the exact ranks r_l of d_w leaving
degree l satisfy r_{l-1} + r_l <= C(N, l), and a rank modulo p is at most
the rank over Q.  The attempt is gated on H^0_w = H^1_w = 0, read off the
exact kernels of d_0 and d_1, which gives r_0 = 1 and r_1 = N - 1; modular
ranks with r_{l-1} + r_l = C(N, l) in every degree l >= 2 are then the
exact ranks, and every H^l_w is zero.  The rows are reduced
packed, one Python int per row with a 64-bit slot per column that no
carry crosses for N <= MAX_GENERATORS (`linalg.echelon_mod`).  The
harmonic spaces come from the same ranks on both sides of the orthogonal
decomposition Lambda^l = H_l + im d_w + im delta_w: H_l is zero when
r_{l-1} and the rank of delta_w leaving l + 1, an exact rank of the
complex of tau - w and not of this one, add up to C(N, l).  A sum that
falls short, through nonzero cohomology or a prime that divides a pivot,
leaves the complex or the degree to the exact route, so no output depends
on the prime.

The diagonal metric lists the coefficients g_i of g = sum g_i (e^i)^2.  For
the star to stay exact each g_i must be the square of a rational; the
identity metric always qualifies.  The inner product is computed directly
from the metric weights and never needs square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm, prod

from .cecomplex import Algebra, d, d_omega
from .errors import BasisMismatch, CrossCheckError, DegreeMismatch
from .exterior import Form, mask_index
from .linalg import IntegerRows, echelon_mod, nullspace, rank, solve
from .scalar import Scalar, _fraction_row


def _star_sign(idx: tuple[int, ...]) -> int:
    """sign(I, I^c): I_m - m indices of I^c lie below I_m (m counted from 0)."""
    return -1 if (sum(idx) - len(idx) * (len(idx) - 1) // 2) % 2 else 1


def star(alg: Algebra, a: Form) -> Form:
    """Hodge star for the diagonal metric and the ascending orientation."""
    if a.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    weights = None if alg.identity_metric else alg.metric_weights()
    out: dict = {}
    for idx, c in a.terms.items():
        comp = tuple(i for i in range(alg.dim) if i not in idx)
        if weights:
            c = c * (prod(weights[i] for i in comp) / prod(weights[i] for i in idx))
        out[comp] = c if _star_sign(idx) > 0 else -c
    return Form.canonical(alg.basis, alg.dim - a.degree, out)


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
    """Codifferential, delta_w for w = 0; degree 0 maps to 0 by definition."""
    return delta_omega(alg, alg.basis.zero(1), a)


def u_omega(alg: Algebra, omega: Form, a: Form) -> Form:
    """Metric adjoint of wedging with the 1-form omega."""
    if omega.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    return _conjugate(alg, a, omega.wedge, 0)


def delta_omega(alg: Algebra, omega: Form, a: Form) -> Form:
    """delta + U_w, as one conjugation of d + (tau - w)^ by the star."""
    if omega.basis != alg.basis:
        raise BasisMismatch("form over a different basis")
    twist = alg.trace_form() - omega
    return _conjugate(alg, a, lambda b: d(alg, b) + twist.wedge(b), 1)


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
    total, others = alg.zero_scalar(), nu.terms
    for idx, c in rho.terms.items():
        other = others.get(idx)
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


def _assemble(alg: Algebra, omega: Form, degree: int):
    """Rows of d_w leaving a degree, their contents and L.

    d_w = D_l + W_l: the rows of D_l (`Algebra.d_matrix`), shared by every
    twist, plus W_l, which puts (-1)^|I in [0, i)| c at row I + {i} of
    column I for each twist term c e_i with i not in I.  With integer D_l
    the rows are L times the operator, L = lcm(D, the twist's
    denominators), each divided by its content: primitive `IntegerRows`,
    row r of the matrix being rows[r] * contents[r] / L.  Otherwise the
    rows hold the scalars, and the contents and L are None.
    """
    if degree < 0 or degree >= alg.dim:
        return IntegerRows(), None, None
    den = alg.d_den
    if den:  # `Algebra.require_closed` gives a rational algebra a rational twist
        m = omega.den
        scale = lcm(den, m)
        twist = [(i, c * (scale // m)) for (i,), c in omega.nums.items()]
    else:
        scale, twist = None, [(i, c) for (i,), c in omega.terms.items()]
    dscale = scale // den if scale else 1
    rows = [[x * dscale for x in row] if dscale > 1 else row[:] for row in alg.d_matrix(degree)]
    if twist:
        row_at = mask_index(alg.dim, degree + 1)
        for j, mask in enumerate(mask_index(alg.dim, degree)):
            for i, c in twist:
                if not mask >> i & 1:
                    row = rows[row_at[mask | 1 << i]]
                    v = -c if (mask & ((1 << i) - 1)).bit_count() & 1 else c
                    x = row[j]
                    row[j] = x + v if x else v
    if not scale:
        return rows, None, None
    contents = [gcd(*row) or 1 for row in rows]
    rows = IntegerRows([x // g for x in row] if g > 1 else row for row, g in zip(rows, contents))
    return rows, contents, scale


class TwistedComplex:
    """d_w and delta_w of one algebra and closed twist, filled in lazily.

    Per degree it holds the rows of d_w from `_assemble`, its kernel or
    rank, and the harmonic basis; each is computed at most once.  Obtain one
    from `Algebra.twisted_complex`, which checks the structure data and the
    twist once per twist and hands every complex of that twist the same
    store.  The store refers back to neither the algebra nor the complex, so
    dropping the algebra frees it at once.  delta_w's rows and ranks are
    d_{tau-w}'s, from the complex of tau - w (this store when 2w = tau),
    read through the star.  So the harmonic dimensions set ker d_w in degree
    l against d_{tau-w} in degree N - l: twisted Poincare-Hodge duality,
    still a check on the ranks.  Primitives are solved in parameter mode
    too; ranks, kernels and harmonic bases are not.

    Acyclic complexes skip the kernels (`_acyclic`).  The attempt is gated
    on H^0_w = H^1_w = 0 exactly, read off the kernels of d_0 and d_1 that
    `betti` needs anyway, so a complex with cohomology in low degrees does
    no modular work; `betti` makes the attempt and `delta_rank` makes it
    for the complex of tau - w once this one is certified, so delta_w's
    ranks are never read off d_w's.  `d_rank` and `harmonic` only read a
    certificate already made; `harmonic` reads delta_w's ranks through
    `delta_rank`.
    """

    def __init__(self, alg: Algebra, omega: Form, store: dict):
        self.alg = alg
        self.omega = omega
        self._store = store

    def _once(self, key: tuple, make):
        """The value stored under (kind, degree) or (kind,), from make() on first use."""
        if key not in self._store:
            self._store[key] = make()
        return self._store[key]

    @cached_property
    def _mirror(self) -> TwistedComplex:
        """The complex of tau - w, whose d_{tau-w} is delta_w read through the star."""
        if not self.alg.identity_metric:
            self.alg.metric_weights()  # the star is exact for square metric entries only
        return self.alg.twisted_complex(self.alg.trace_form() - self.omega)

    def size(self, degree: int) -> int:
        """Number of monomials of a degree (0 outside 0..N)."""
        return comb(self.alg.dim, degree) if degree >= 0 else 0

    def rows(self, degree: int, step: int):
        """Rows, contents and L of d_w (step 1) or delta_w (step -1) leaving a degree.

        delta_w's are d_{tau-w}'s read through the star, without its metric factor g_J / g_I.
        """
        if step > 0:
            return self._once(("rows", degree), lambda: _assemble(self.alg, self.omega, degree))
        n, monomials = self.alg.dim, self.alg.basis.monomials
        rows, contents, scale = self._mirror.rows(n - degree, 1)
        flip = -1 if (n * degree + n + 1) % 2 else 1
        columns = [_star_sign(idx) for idx in monomials(degree)]  # sign(I, I^c)
        # row J is d_{tau-w}'s row J^c, in reverse order, times flip * sign(J^c, J)
        signed = [
            [x if s * t > 0 else -x for x, t in zip(reversed(row), columns)]
            for row, s in zip(rows, [flip * _star_sign(m) for m in monomials(n - degree + 1)])
        ][::-1]
        return type(rows)(signed), contents and contents[::-1], scale

    def preimage(self, theta: Form) -> Form | None:
        """The x with d_w x = theta and free variables zero, or None if there is none.

        Row r of d_w is rows[r] * contents[r] / L, so it is solved as
        rows[r] * x = theta_r * L / contents[r]: scaling a row keeps the
        reduced row echelon form, so the pivots and the solution are those
        of d_w itself.  In parameter mode the rows are d_w as assembled.
        The solution is verified here, d_w x = theta recomputed on forms,
        so every primitive the program reports has been checked; theta = 0
        has the zero primitive.
        """
        if theta.is_zero():
            return self.alg.basis.zero(max(theta.degree - 1, 0))
        degree = theta.degree
        if degree == 0:
            return None
        rows, contents, scale = self.rows(degree - 1, 1)
        rhs = [theta.coefficient(m) for m in self.alg.basis.monomials(degree)]
        if scale:
            rhs = [c * Fraction(scale, g) for c, g in zip(rhs, contents)]
        sol = solve(rows, rhs, self.size(degree - 1))
        if sol is None:
            return None
        prim = Form(self.alg.basis, degree - 1, zip(self.alg.basis.monomials(degree - 1), sol))
        if d_omega(self.alg, self.omega, prim) != theta:
            raise CrossCheckError("primitive verification failed")
        return prim

    def _acyclic(self) -> tuple[int, ...] | None:
        """The exact ranks of d_0 ... d_{N-1} if the complex is certified acyclic, else None."""
        return self._once(("acyclic",), self._certify_acyclic)

    def _certify_acyclic(self) -> tuple[int, ...] | None:
        """Ranks r_l modulo p that close r_{l-1} + r_l = C(N, l) in every degree.

        H^0_w = H^1_w = 0 exactly gives r_0 = 1 and r_1 = N - 1; the first
        degree that does not close ends the attempt.  Closed up to N - 1,
        induction from r_1 = C(N - 1, 1) gives r_l = C(N, l) - C(N - 1, l - 1)
        = C(N - 1, l), so r_{N-1} = 1 and H^N_w is zero with no further test.
        """
        n = self.alg.dim
        if self.kernel(0) or len(self.kernel(1)) != 1:
            return None
        ranks = [1, n - 1][:n]
        for degree in range(2, n):
            ranks.append(len(echelon_mod(self.rows(degree, 1)[0], self.size(degree))))
            if ranks[-2] + ranks[-1] != self.size(degree):
                return None
        return tuple(ranks)

    def kernel(self, degree: int) -> list[list[int]]:
        """Kernel basis of d_w: primitive integer vectors, one per free column."""
        self.alg.require_rational("twisted cohomology")
        return self._once(
            ("kernel", degree),
            lambda: nullspace(self.rows(degree, 1)[0], self.size(degree)),
        )

    def d_rank(self, degree: int) -> int:
        """Rank of d_w leaving a degree (0 outside 0..N-1).

        Read off an acyclicity certificate or a reduced kernel, else from `rank`.
        """
        self.alg.require_rational("twisted cohomology")
        if not 0 <= degree < self.alg.dim:
            return 0
        ranks = self._store.get(("acyclic",))
        if ranks:
            return ranks[degree]
        if ("kernel", degree) in self._store:
            return self.size(degree) - len(self.kernel(degree))
        return self._once(
            ("rank", degree), lambda: rank(self.rows(degree, 1)[0], self.size(degree))
        )

    def delta_rank(self, degree: int) -> int:
        """Rank of delta_w leaving a degree, that of d_{tau-w} leaving N - l (0 outside 1..N).

        Once this complex is certified acyclic, the complex of tau - w
        attempts its own certificate: by twisted duality it is acyclic too.
        """
        mirror = self._mirror
        if self._store.get(("acyclic",)):
            mirror._acyclic()
        return mirror.d_rank(self.alg.dim - degree)

    def betti(self, degree: int) -> int:
        """dim ker d_w - dim im d_w in one degree; 0 throughout an acyclic complex."""
        if self._acyclic() is not None:
            return 0
        return len(self.kernel(degree)) - self.d_rank(degree - 1)

    def harmonic(self, degree: int) -> HarmonicSpace:
        """Kernel of delta_w inside the kernel K of d_w, as K*c.

        c runs over a kernel basis of delta_w*K.  Divided by its last
        nonzero entry, K*c is the reduced kernel basis of the stacked matrix
        [d_w; delta_w]: a reduced kernel basis depends only on the subspace,
        and its unit entries sit where the basis vectors end.
        """
        return self._once(("harmonic", degree), lambda: self._harmonic(degree))

    def _delta_rows(self, degree: int) -> list[list[int]]:
        """Integer rows delta' * diag(c / g_I), with the kernel of delta_w leaving a degree.

        delta_w = diag(g_J) * delta' * diag(1/g_I) with delta' its rows: the
        row factor keeps the kernel, and the column factor is taken as the
        integers c / g_I, one c for all monomials I.
        """
        rows = self.rows(degree, -1)[0]
        if not self.alg.identity_metric:
            g, monomials = self.alg.metric, self.alg.basis.monomials(degree)
            h = _fraction_row([Fraction(1) / prod(g[i] for i in idx) for idx in monomials])
            rows = [[x * y for x, y in zip(row, h)] for row in rows]
        return rows

    def _harmonic(self, degree: int) -> HarmonicSpace:
        """K*c in Python ints: c spans the kernel of `_delta_rows` times K.

        In a complex certified acyclic, the space is zero when the exact
        ranks of d_w into the degree and of delta_w into it fill it: d_w's
        from this complex's certificate, delta_w's from the complex of
        tau - w, so that `cohomology_report`'s check still sets two
        independent eliminations against each other.
        """
        if self._store.get(("acyclic",)) and (
            self.d_rank(degree - 1) + self.delta_rank(degree + 1) == self.size(degree)
        ):
            return HarmonicSpace(degree, (), self.omega)
        kernel = self.kernel(degree)
        rows = self._delta_rows(degree)
        monos = list(self.alg.basis.monomials(degree))
        support = [[i for i, x in enumerate(k) if x] for k in kernel]
        coords = [[int(i == j) for i in range(len(kernel))] for j in range(len(kernel))]
        if kernel and rows:
            image = IntegerRows(
                [sum(row[i] * k[i] for i in s) for k, s in zip(kernel, support)] for row in rows
            )
            coords = nullspace(image, len(kernel))
        basis_forms = []
        for c in coords:
            vec = [0] * len(monos)
            for cj, k, s in zip(c, kernel, support):
                if cj:
                    for i in s:
                        vec[i] += cj * k[i]
            last = next(x for x in reversed(vec) if x)
            nums = {m: x for m, x in zip(monos, vec) if x}
            basis_forms.append(Form.over(self.alg.basis, degree, last, nums))
        return HarmonicSpace(degree, tuple(basis_forms), self.omega)

    def decomposition(self, degree: int) -> tuple[int, int, int]:
        """Dimensions of the harmonic, twisted-exact and twisted-coexact parts."""
        h = self.harmonic(degree).dimension
        return h, self.d_rank(degree - 1), self.delta_rank(degree + 1)


def harmonic_space(alg: Algebra, omega: Form, degree: int) -> HarmonicSpace:
    """Exact kernel intersection of d_w and delta_w in one degree."""
    return alg.twisted_complex(omega).harmonic(degree)


def decomposition_dims(alg: Algebra, omega: Form, degree: int) -> tuple[int, int, int]:
    """Dimensions of the harmonic, twisted-exact and twisted-coexact parts."""
    return alg.twisted_complex(omega).decomposition(degree)
