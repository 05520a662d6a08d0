"""Exact invariant exterior calculus on Lie algebras given by structure data.

The package computes with invariant differential forms over an ordered
set of degree-1 generators: twisted (conformally deformed) cohomology with
explicit primitives and harmonic bases, Hodge duality for a diagonal
metric, and certificates for locally conformal symplectic 2-forms (Lee
form recovery, top-power nondegeneracy, automorphism algebras, the
extended Lee homomorphism, and fixed-Lee deformation families).  All
arithmetic is exact: rationals, or rational functions in declared
parameter symbols.
"""

from .cecomplex import (
    Algebra,
    BracketTable,
    D2Result,
    JacobiResult,
    brackets_from_d,
    check_d2,
    d,
    d_omega,
    is_unimodular,
    jacobi_check,
    lie_derivative,
)
from .cohomology import (
    CohomologyReport,
    ExactnessCertificate,
    betti,
    class_coords,
    cohomology_report,
    primitive,
)
from .errors import LcsCalcError
from .exterior import (
    Basis,
    Form,
    VectorField,
    evaluate_one_form,
    form_str,
    frame_field,
    interior,
    wedge,
)
from .hodge import (
    HarmonicSpace,
    codiff,
    decomposition_dims,
    delta_omega,
    harmonic_space,
    inner,
    star,
    u_omega,
)
from .lcs import (
    AutomorphismAlgebra,
    ClassComparison,
    LcsForm,
    LeeExactnessReport,
    MoserReport,
    automorphism_algebra,
    compare_classes,
    dual_field,
    exactness_via_lee,
    frobenius_integrable,
    involutive,
    is_lcs,
    lee_form,
    lee_homomorphism,
    restricted_gram,
    restricted_rank,
    top_power,
    verify_moser_family,
)
from .presets import (
    AcfmParams,
    acfm,
    acfm_rational,
    acfm_symbolic,
    exact_lcs,
    omega_s,
    omega_t,
    twist_form,
)
from .scalar import ParamScalar, ScalarMode, parse_scalar, scalar_str
from .specfile import (
    algebra_to_text,
    parse_algebra_file,
    parse_algebra_text,
    parse_form_expr,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AcfmParams",
    "AutomorphismAlgebra",
    "Basis",
    "BracketTable",
    "ClassComparison",
    "CohomologyReport",
    "D2Result",
    "ExactnessCertificate",
    "Form",
    "HarmonicSpace",
    "JacobiResult",
    "LcsCalcError",
    "LcsForm",
    "LeeExactnessReport",
    "MoserReport",
    "ParamScalar",
    "ScalarMode",
    "VectorField",
    "acfm",
    "acfm_rational",
    "acfm_symbolic",
    "algebra_to_text",
    "automorphism_algebra",
    "betti",
    "brackets_from_d",
    "check_d2",
    "class_coords",
    "codiff",
    "cohomology_report",
    "compare_classes",
    "d",
    "d_omega",
    "decomposition_dims",
    "delta_omega",
    "dual_field",
    "evaluate_one_form",
    "exact_lcs",
    "exactness_via_lee",
    "form_str",
    "frame_field",
    "frobenius_integrable",
    "harmonic_space",
    "inner",
    "interior",
    "involutive",
    "is_lcs",
    "is_unimodular",
    "jacobi_check",
    "lee_form",
    "lee_homomorphism",
    "lie_derivative",
    "omega_s",
    "omega_t",
    "parse_algebra_file",
    "parse_algebra_text",
    "parse_form_expr",
    "parse_scalar",
    "primitive",
    "restricted_gram",
    "restricted_rank",
    "scalar_str",
    "star",
    "top_power",
    "twist_form",
    "u_omega",
    "verify_moser_family",
    "wedge",
]
