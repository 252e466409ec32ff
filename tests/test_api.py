import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pathqv
from pathqv.errors import DomainError, NumericalError, _finite

REMOVED = ("solve_B", "flow_derivatives", "FlowPoint", "stieltjes_integral", "CovCurve",
           "scalar_function")

# What a caller sets: every public function's parameters and every public
# dataclass's fields, so none is added or brought back unnoticed.  A value
# that only tests change is a module constant (flow._MAX_STEPS,
# ide.MAX_PICARD_ITER, support.SHOOT_TOL and MAX_B), not a parameter or a
# field.
PARAMETERS = {
    "grid_points": ["n"],
    "successor": ["s", "n"],
    "analyze": ["path"],
    "basis_eval": ["m", "k", "t"],
    "synthesize": ["coeffs", "level"],
    "build_x": ["fseq", "level"],
    "build_y": ["fseq", "shift", "level"],
    "coefficients_x": ["fseq", "depth"],
    "coefficients_y": ["fseq", "shift", "depth"],
    "nondiff_quotients": ["coeffs", "fseq", "t", "n_max"],
    "predicted_qv": ["fseq", "kind", "level"],
    "preset": ["name"],
    "coincidence_frequency": ["theta_row", "vartheta_row", "n", "t"],
    "cov_curve": ["x", "y", "n"],
    "cov_level": ["x", "y", "n", "t"],
    "ell1": ["coeffs", "n", "t"],
    "ell2": ["coeffs", "n", "t"],
    "qv_curve": ["x", "n"],
    "qv_level": ["x", "n", "t"],
    "follmer_integral": ["eta", "x", "n", "t"],
    "ito_residual": ["F", "dF", "d2F", "x", "n", "t"],
    "constant_field": ["c"],
    "flow": ["field", "tau", "xi", "t"],
    "flow_identity_defects": ["field"],
    "flow_with_derivatives": ["field", "tau", "xi", "t"],
    "scalar_linear_field": ["sig", "dsig", "name"],
    "sqrt1p_field": [],
    "langevin_closed_form": ["x", "sigma0", "b0", "z0"],
    "linear_closed_form": ["x", "sig", "dsig", "b", "z0"],
    "solve_ide": ["problem", "level", "scheme", "tonelli_n", "initial"],
    "sqrt1p_closed_form": ["x", "z0"],
    "verify_local_qv": ["z", "field", "qv_x", "n"],
    "drift_from_path": ["bpath"],
    "match_path": ["target_B", "field", "x", "level"],
    "shoot_constant_b": ["field", "x", "z0", "z1", "t0", "level", "trace"],
    "evaluate_constant": ["src"],
    "field_from_expression": ["src"],
}
FIELDS = {
    "BVDriver": ["level", "values"],
    "QVCurve": ["level", "values"],
    "SampledPath": ["level", "values"],
    "FSCoefficients": ["anchor", "slope", "theta"],
    "FunctionSequence": ["term", "limit", "uniform_bound", "name"],
    "IrrationalShift": ["alpha"],
    "NondiffReport": ["t", "d", "increment", "predicted_increment", "unoriented_increment",
                      "sign", "hypothesis_met", "diverging", "eps", "recursion_defect"],
    "VolatilityField": ["sigma", "sigma_t", "sigma_xi", "time_free", "name", "exact_flow"],
    "IDEProblem": ["field", "drift", "driver_A", "x", "qv_x", "z0"],
    "IDESolution": ["B", "z", "residual_report", "follmer_defect"],
}


def test_every_exported_name_resolves():
    for name in pathqv.__all__:
        assert getattr(pathqv, name) is not None, name


def test_exports_have_no_duplicates():
    assert len(pathqv.__all__) == len(set(pathqv.__all__))


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in pathqv.__all__
        assert not hasattr(pathqv, name), name


def test_only_what_a_caller_sets_is_a_parameter_or_a_field():
    public = [getattr(pathqv, name) for name in pathqv.__all__]
    assert list(PARAMETERS) == [v.__name__ for v in public if inspect.isfunction(v)]
    assert list(FIELDS) == [v.__name__ for v in public if dataclasses.is_dataclass(v)]
    for name, params in PARAMETERS.items():
        assert list(inspect.signature(getattr(pathqv, name)).parameters) == params, name
    for name, fields in FIELDS.items():
        assert [f.name for f in dataclasses.fields(getattr(pathqv, name))] == fields, name
    assert not hasattr(pathqv.IDEProblem, "gronwall_bound")
    assert not hasattr(pathqv.BVDriver, "total_variation")
    assert not hasattr(pathqv.SampledPath, "increments")
    assert not hasattr(pathqv.IrrationalShift, "frac")


# -- one rule for user code: where numpy's warnings may be turned off ----------

SRC = Path(pathqv.__file__).resolve().parent

# Every call into user code goes through errors._finite; the others guard
# arithmetic on a hot path: a whole flow solve and a Newton step.
ERRSTATE_OWNERS = sorted(["errors._finite", "flow._integrate", "ide._newton_step"])


def errstate_sites():
    """The enclosing function of every errstate or seterr in the package."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            name = getattr(child, "attr", getattr(child, "id", None))
            if name in ("errstate", "seterr"):
                sites.append(".".join([module, *scope]))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return sorted(sites)


def test_errstate_lives_only_in_the_allowed_functions():
    assert errstate_sites() == ERRSTATE_OWNERS


def test_finite_returns_a_float64_array_uncopied_and_refuses_non_finite_values():
    values = np.linspace(0.0, 1.0, 5)
    assert _finite(DomainError, "unused", lambda: values) is values
    assert _finite(DomainError, "unused", lambda t: 2 * t, 3).dtype == np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        for error in (DomainError, NumericalError):
            with pytest.raises(error, match="^f is not finite$"):
                _finite(error, "f is not finite", lambda t: 1.0 / t, values)


# -- lazy exports ---------------------------------------------------------------

IMPORT_ORDER_PROBE = """
import sys, types

def check_flow(after):
    import pathqv
    assert isinstance(pathqv.flow, types.FunctionType), after
    assert pathqv.flow.__module__ == "pathqv.flow", after
    assert isinstance(sys.modules["pathqv.flow"], types.ModuleType), after

import pathqv.ide
check_flow("pathqv.ide")
from pathqv.flow import RTOL
check_flow("RTOL")
import pathqv.cli
check_flow("pathqv.cli")

import pathqv
star = {}
exec("from pathqv import *", star)
listed = set(dir(pathqv))
for name in pathqv.__all__:
    home = sys.modules["pathqv." + pathqv._HOME[name]]
    value = getattr(home, name)
    assert getattr(pathqv, name) is value and star[name] is value, name
    assert name in listed, name
    assert getattr(value, "__module__", home.__name__) == home.__name__, name
assert set(star) - {"__builtins__"} == set(pathqv.__all__)
print("ok")
"""


def test_flow_stays_the_function_in_any_import_order():
    # a fresh interpreter, so that no other test has imported a module first
    out = subprocess.run([sys.executable, "-c", IMPORT_ORDER_PROBE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_a_lazy_name_is_bound_on_first_lookup():
    for name in pathqv.__all__:
        value = getattr(pathqv, name)
        assert vars(pathqv)[name] is value, name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        pathqv.nope
