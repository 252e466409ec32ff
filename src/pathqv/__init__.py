"""Paths with prescribed quadratic variation and pathwise Ito calculus.

Construction of continuous paths whose quadratic variation along the
dyadic partitions is prescribed (curved, linear, or state-dependent),
wedge-basis analysis/synthesis, pathwise integrals, and a Doss-Sussmann
solver for pathwise Ito differential equations, with support-theorem
style shooting and non-differentiability diagnostics.
"""

from .dyadic import (
    BVDriver,
    DEFAULT_LEVEL,
    MAX_LEVEL,
    QVCurve,
    SampledPath,
    grid_points,
    successor,
)
from .errors import DomainError, FlowIntegrationError, NumericalError, PathQVError
from .schauder import FSCoefficients, analyze, basis_eval, synthesize
from .construct import (
    FunctionSequence,
    IrrationalShift,
    PRESETS,
    build_x,
    build_y,
    coefficients_x,
    coefficients_y,
    predicted_qv,
    preset,
)
from .quadvar import (
    CovCurve,
    coincidence_frequency,
    cov_curve,
    cov_level,
    ell1,
    ell2,
    qv_curve,
    qv_level,
)
from .follmer import follmer_integral, ito_residual
from .flow import (
    VolatilityField,
    constant_field,
    flow,
    flow_identity_defects,
    flow_with_derivatives,
    scalar_linear_field,
    sqrt1p_field,
)
from .ide import (
    IDEProblem,
    IDESolution,
    langevin_closed_form,
    linear_closed_form,
    solve_ide,
    sqrt1p_closed_form,
    verify_local_qv,
)
from .support import (
    NondiffReport,
    drift_from_path,
    match_path,
    nondiff_quotients,
    shoot_constant_b,
)
from .expr import Expression, evaluate_constant, field_from_expression, scalar_function

__version__ = "0.1.0"

__all__ = [
    "BVDriver", "DEFAULT_LEVEL", "MAX_LEVEL", "QVCurve",
    "SampledPath", "grid_points", "successor",
    "DomainError", "FlowIntegrationError", "NumericalError", "PathQVError",
    "FSCoefficients", "analyze", "basis_eval", "synthesize",
    "FunctionSequence", "IrrationalShift", "PRESETS", "build_x", "build_y",
    "coefficients_x", "coefficients_y", "predicted_qv", "preset",
    "CovCurve", "coincidence_frequency", "cov_curve", "cov_level",
    "ell1", "ell2", "qv_curve", "qv_level",
    "follmer_integral", "ito_residual",
    "VolatilityField", "constant_field", "flow", "flow_identity_defects",
    "flow_with_derivatives", "scalar_linear_field", "sqrt1p_field",
    "IDEProblem", "IDESolution", "langevin_closed_form", "linear_closed_form",
    "solve_ide", "sqrt1p_closed_form", "verify_local_qv",
    "NondiffReport", "drift_from_path", "match_path", "nondiff_quotients",
    "shoot_constant_b",
    "Expression", "evaluate_constant", "field_from_expression", "scalar_function",
]
