"""Twisted cohomology of the invariant complex.

Dimensions come from exact kernel/image ranks of the twisted differential;
the same numbers are recomputed as harmonic dimensions and both routes must
agree.  Exactness is certified constructively: either an explicit primitive
(reproducible: fixed monomial order, free variables zero) or nonzero
coordinates in the harmonic basis.
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
    """Either an explicit primitive or nonzero harmonic coordinates."""

    exact: bool
    primitive: Form | None = None
    coords: tuple[Scalar, ...] | None = None
    harmonic: HarmonicSpace | None = None


def _require_d_closed(alg: Algebra, omega: Form, theta: Form):
    image = d_omega(alg, omega, theta)
    if not image.is_zero():
        raise NotClosed(f"form is not d_w-closed: d_w = {image}")


def primitive(alg: Algebra, omega: Form, theta: Form) -> ExactnessCertificate:
    """Solve d_w(x) = theta exactly, or certify the class is nonzero."""
    cx = alg.twisted_complex(omega)
    _require_d_closed(alg, omega, theta)
    if theta.is_zero():
        return ExactnessCertificate(True, primitive=alg.basis.zero(max(theta.degree - 1, 0)))
    prim = cx.preimage(theta)
    if prim is not None:
        if d_omega(alg, omega, prim) != theta:
            raise CrossCheckError("primitive verification failed")
        return ExactnessCertificate(True, primitive=prim)
    space = cx.harmonic(theta.degree)
    coords = _projection_coords(alg, space, theta)
    if all(not c for c in coords):
        raise CrossCheckError(
            "form is neither exact nor detected by the harmonic projection; "
            "the decomposition requires unimodular structure data"
        )
    return ExactnessCertificate(False, coords=tuple(coords), harmonic=space)


def _projection_coords(alg: Algebra, space: HarmonicSpace, theta: Form) -> list[Scalar]:
    if not space.basis:
        return []
    gram = [[inner(alg, hi, hj) for hj in space.basis] for hi in space.basis]
    rhs = [inner(alg, theta, hi) for hi in space.basis]
    coords = solve(gram, rhs, len(space.basis))
    if coords is None:
        raise CrossCheckError("harmonic Gram matrix is singular")
    return coords


def class_coords(alg: Algebra, omega: Form, theta: Form) -> tuple[Scalar, ...]:
    """Coordinates of the harmonic projection of a d_w-closed form.

    The residue theta minus its projection is certified d_w-exact.
    """
    cx = alg.twisted_complex(omega)
    _require_d_closed(alg, omega, theta)
    space = cx.harmonic(theta.degree)
    coords = _projection_coords(alg, space, theta)
    residue = theta
    for c, h in zip(coords, space.basis):
        residue = residue - c * h
    if not residue.is_zero():
        cert = primitive(alg, omega, residue)
        if not cert.exact:
            raise CrossCheckError("projection residue is not exact")
    return tuple(coords)


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
                f"({b} vs {space.dimension}); the harmonic description "
                "requires unimodular structure data"
            )
        dims.append(b)
        spaces.append(space)
    return CohomologyReport(omega, tuple(dims), tuple(spaces))
