"""Twisted cohomology of the invariant complex.

Dimensions come from exact kernel/image ranks of the twisted differential;
the same numbers are recomputed as harmonic dimensions and both routes must
agree.  `primitive` is the one place that decides a class: either an
explicit primitive (reproducible: fixed monomial order, free variables
zero) or harmonic coordinates whose residue is itself certified exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cecomplex import Algebra, d_omega
from .errors import CrossCheckError, NotClosed
from .exterior import Form
from .hodge import HarmonicSpace, inner
from .linalg import solve
from .scalar import Scalar


def betti(alg: Algebra, omega: Form, degree: int) -> int:
    """dim ker d_w - dim im d_w in the given degree."""
    return alg.twisted_complex(omega).betti(degree)


@dataclass(frozen=True)
class ExactnessCertificate:
    """An explicit primitive, or certified harmonic coordinates of the class.

    Not exact: theta - sum c_i h_i is d_w-exact for the coordinates c and
    the basis h of `harmonic`, and theta itself is not.
    """

    exact: bool
    primitive: Form | None = None
    coords: tuple[Scalar, ...] | None = None
    harmonic: HarmonicSpace | None = None


def primitive(alg: Algebra, omega: Form, theta: Form) -> ExactnessCertificate:
    """Solve d_w(x) = theta exactly, or certify the coordinates of its nonzero class."""
    cx = alg.twisted_complex(omega)
    image = d_omega(alg, omega, theta)
    if not image.is_zero():
        raise NotClosed(f"form is not d_w-closed: d_w = {image}")
    prim = cx.preimage(theta)
    if prim is not None:
        return ExactnessCertificate(True, primitive=prim)
    space = cx.harmonic(theta.degree)
    gram = [[inner(alg, hi, hj) for hj in space.basis] for hi in space.basis]
    rhs = [inner(alg, theta, hi) for hi in space.basis]
    coords = solve(gram, rhs, len(gram)) if gram else []
    if coords is None:
        raise CrossCheckError("harmonic Gram matrix is singular")
    residue = theta
    for c, h in zip(coords, space.basis):
        residue = residue - c * h
    if cx.preimage(residue) is None:
        raise CrossCheckError("projection residue is not exact")
    return ExactnessCertificate(False, coords=tuple(coords), harmonic=space)


def class_coords(alg: Algebra, omega: Form, theta: Form) -> tuple[Scalar, ...]:
    """Coordinates of the class of a d_w-closed form in the harmonic basis.

    They are those of `primitive`'s certificate, and zero for an exact class.
    """
    cert = primitive(alg, omega, theta)
    if cert.exact:
        dim = alg.twisted_complex(omega).harmonic(theta.degree).dimension
        return (alg.zero_scalar(),) * dim
    return cert.coords


@dataclass(frozen=True)
class CohomologyReport:
    """Twisted dimensions and harmonic bases for every degree."""

    omega: Form
    dims: tuple[int, ...]
    harmonic_bases: tuple[HarmonicSpace, ...]


def cohomology_report(alg: Algebra, omega: Form) -> CohomologyReport:
    """Dimensions by rank counting, cross-checked against harmonic bases."""
    cx = alg.twisted_complex(omega)
    dims = []
    spaces = []
    for degree in range(alg.dim + 1):
        b = cx.betti(degree)
        space = cx.harmonic(degree)
        if b != space.dimension:
            raise CrossCheckError(
                f"rank and harmonic dimensions disagree in degree {degree} "
                f"({b} vs {space.dimension})"
            )
        dims.append(b)
        spaces.append(space)
    return CohomologyReport(omega, tuple(dims), tuple(spaces))
