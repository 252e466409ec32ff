"""Paths with prescribed quadratic variation and pathwise Ito calculus.

Construction of continuous paths whose quadratic variation along the
dyadic partitions is prescribed (curved, linear, or state-dependent),
wedge-basis analysis/synthesis, pathwise integrals, and a Doss-Sussmann
solver for pathwise Ito differential equations, with support-theorem
style shooting and non-differentiability diagnostics.

The public names below load lazily (PEP 562): ``import pathqv`` imports
only ``pathqv.flow`` (see ``flow`` below), and each other name imports its
home module on first use and is then bound here like an ordinary global.
So a process, such as one ``pathqv`` command, loads and compiles only the
modules it uses.  ``__all__``, ``dir(pathqv)`` and ``from pathqv import *``
list and give every name.
"""

from importlib import import_module

# The one name bound eagerly.  The import system sets ``pathqv.flow`` to the
# submodule when it first imports it, and a lazily bound ``flow`` would then
# stay shadowed by the module; importing the function here, after the
# submodule, keeps ``pathqv.flow`` the function whatever imports it later.
from .flow import flow

__version__ = "0.1.0"

#: Home module of each public name, in the order of ``__all__``.
_HOME = {
    name: module
    for module, names in (
        ("dyadic", "BVDriver DEFAULT_LEVEL MAX_LEVEL QVCurve SampledPath grid_points successor"),
        ("errors", "DomainError FlowIntegrationError NumericalError PathQVError"),
        ("schauder", "FSCoefficients analyze basis_eval synthesize"),
        ("construct", "FunctionSequence IrrationalShift NondiffReport PRESETS build_x build_y "
                      "coefficients_x coefficients_y nondiff_quotients predicted_qv preset"),
        ("quadvar", "coincidence_frequency cov_curve cov_level ell1 ell2 qv_curve qv_level"),
        ("follmer", "follmer_integral ito_residual"),
        ("flow", "VolatilityField constant_field flow flow_identity_defects "
                 "flow_with_derivatives scalar_linear_field sqrt1p_field"),
        ("ide", "IDEProblem IDESolution langevin_closed_form linear_closed_form "
                "solve_ide sqrt1p_closed_form verify_local_qv"),
        ("support", "drift_from_path match_path shoot_constant_b"),
        ("expr", "Expression evaluate_constant field_from_expression"),
    )
    for name in names.split()
}

__all__ = list(_HOME)


def __getattr__(name):
    """A public name's value, from its home module, imported on this first
    lookup; binding it here sends later lookups past this function."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
