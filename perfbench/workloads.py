"""The two benchmark workloads: seeded inputs, operations and checks.

``build_inputs(name, seed)`` makes every input from the seed alone; the
library receives only these generated inputs.  ``operations(name, inputs)``
lists one round: the fixed set of operations a client issues one at a time.
Each operation has a ``run(ctx, state)`` part that is timed and a
``check(result, state)`` part that is not.  A check raises ``CheckFailed``
when an output misses the acceptance suite's tolerance and otherwise
returns a fingerprint, so that repeated rounds can be compared bit for bit.

The seed moves every input around a fixed base value rather than drawing it
from a wide range: the work a round does then stays nearly the same from
seed to seed, which keeps run-to-run spread small.

``solve`` calls the library in process; ``cli`` runs the ``pathqv`` command
line in fresh processes and covers the figure-data layers (construct,
schauder, quadvar, follmer), shooting and file I/O.  Figure data and
small-batch shooting run only as CLI commands at small sizes: in process,
their pure-Python loops and small NumPy batches slow down by up to a third
while the shared host is busy, which puts their run-to-run spread above
every bound the benchmark may set.  The level-20 coefficients of the
ROADMAP baseline are timed by a probe in traced runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import pathqv as P

WORKLOADS = ("solve", "cli")


class CheckFailed(Exception):
    """An operation's output missed its tolerance."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable
    check: Callable
    tags: dict = field(default_factory=dict)


def fingerprint(*items):
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item, dtype=np.float64).tobytes())
        elif isinstance(item, bytes):
            h.update(item)
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _jitter(rng, base, rel):
    """base scaled by a seeded factor in [1 - rel, 1 + rel]."""
    return float(base * (1.0 + rng.uniform(-rel, rel)))


def inputs_digest(inputs):
    """Digest of a workload's inputs, to show that the seed alone fixes them."""
    parts = []
    for key in sorted(inputs):
        value = inputs[key]
        if isinstance(value, (P.SampledPath, P.QVCurve)):
            parts.append(fingerprint(key, value.level, value.values))
        elif isinstance(value, np.ndarray):
            parts.append(fingerprint(key, value))
        elif isinstance(value, P.BVDriver):
            parts.append(fingerprint(key, value.path.values))
        else:
            parts.append(fingerprint(key, json.dumps(value, sort_keys=True)))
    return fingerprint(*parts)


# -- closed forms -------------------------------------------------------------

def _predicted_closed_form(name, t):
    """Closed form of integral_0^t f_inf^2 for each preset (curved QV)."""
    t = np.asarray(t, dtype=np.float64)
    if name == "one":
        return t
    if name == "fig1-left":  # cos^2(2 pi s)
        return t / 2 + np.sin(4 * np.pi * t) / (8 * np.pi)
    if name == "fig1-right":  # sin^4(7 s)
        return 3 * t / 8 - np.sin(14 * t) / 28 + np.sin(28 * t) / 224
    if name == "fig2-left":  # sin^2(2 pi s)
        return t / 2 - np.sin(4 * np.pi * t) / (8 * np.pi)
    if name == "fig2-right":  # cos^2(6 pi s)
        return t / 2 + np.sin(12 * np.pi * t) / (24 * np.pi)
    raise KeyError(name)


# -- solve: Picard solves with closed-form oracles ----------------------------

SOLVE_TOP = 16
# A field parsed from an expression, so that expression parsing and evaluation
# are timed on their own (they have no closed-form oracle; the Picard residual
# is checked).
EXPR_FIELD = "1+0.3*sin(xi)"
EXPR_LEVEL = 12
MATCH_LEVEL = 10


def _solve_inputs(rng):
    x16 = P.build_x(P.preset("one"), SOLVE_TOP)
    fig = P.build_x(P.preset("fig1-left"), 13)
    return {
        "x_one": x16,
        "x_fig": fig,
        "qv_fig": P.qv_curve(fig, 13),
        "probe_xi": rng.uniform(-2.0, 2.0, size=4097),
        "probe_t": rng.uniform(-1.0, 1.0, size=4097),
        "langevin": {"sigma0": _jitter(rng, 1.0, 0.1), "b0": _jitter(rng, -0.5, 0.1),
                     "z0": _jitter(rng, 1.0, 0.1)},
        "geometric": {"a": _jitter(rng, 0.2, 0.1), "c": _jitter(rng, 0.1, 0.1),
                      "mu": _jitter(rng, 0.05, 0.1), "z0": _jitter(rng, 1.0, 0.1)},
        "sqrt1p": {"z0": _jitter(rng, 0.4, 0.1)},
        "expression": {"z0": _jitter(rng, 0.3, 0.1), "b": _jitter(rng, 0.2, 0.1)},
        "match": {"omega": _jitter(rng, 1.0, 0.1), "a": _jitter(rng, 0.2, 0.1),
                  "c": _jitter(rng, 0.1, 0.1)},
        "empirical": {"beta": _jitter(rng, 0.3, 0.1), "gamma": _jitter(rng, 0.2, 0.1),
                      "z0": _jitter(rng, 0.3, 0.1)},
    }


def _linear_qv_problem(field_, drift, x, z0):
    level = x.level
    return P.IDEProblem(field=field_, drift=drift, driver_A=P.BVDriver.identity(level),
                        x=x, qv_x=P.QVCurve.from_function(lambda t: t, level), z0=z0)


def _solution_check(oracle, tol):
    def check(sol, st):
        _require(sol.residual_report <= 1e-10,
                 f"Picard residual {sol.residual_report:.3e} above 1e-10")
        if oracle is not None:
            gap = _sup(sol.z.values, oracle(sol.z.level).values)
            _require(gap <= tol, f"solution off its closed form by {gap:.3e} (tol {tol:g})")
        return fingerprint(sol.B.values, sol.z.values)

    return check


def _solve_ops(inputs):
    x_one = inputs["x_one"]
    lg, geo, sq, ex, emp = (inputs[k] for k in ("langevin", "geometric", "sqrt1p", "expression",
                                                "empirical"))
    sig = lambda t: geo["a"] + geo["c"] * np.asarray(t, dtype=np.float64)
    dsig = lambda t: geo["c"] + 0.0 * np.asarray(t, dtype=np.float64)
    ops = []

    def langevin(level):
        def run(ctx, st):
            f = ctx.field(P.constant_field(lg["sigma0"]))
            problem = _linear_qv_problem(f, lambda t, xi: lg["b0"] * xi,
                                         x_one.restrict(level), lg["z0"])
            return P.solve_ide(problem, level)

        oracle = lambda L: P.langevin_closed_form(x_one.restrict(L), lg["sigma0"],
                                                  lg["b0"], lg["z0"])
        return Op(f"langevin[L{level}]", run, _solution_check(oracle, 1e-4),
                  {"picard_level": level})

    def geometric(level):
        def run(ctx, st):
            f = ctx.field(P.scalar_linear_field(sig, dsig, name="geometric"))
            problem = _linear_qv_problem(f, lambda t, xi: geo["mu"] * xi,
                                         x_one.restrict(level), geo["z0"])
            return P.solve_ide(problem, level)

        oracle = lambda L: P.linear_closed_form(
            x_one.restrict(L), sig, dsig,
            lambda t: geo["mu"] + 0.0 * np.asarray(t, dtype=np.float64), geo["z0"])
        return Op(f"geometric[L{level}]", run, _solution_check(oracle, 1e-4))

    def sqrt1p(level):
        def run(ctx, st):
            problem = _linear_qv_problem(ctx.field(P.sqrt1p_field()), lambda t, xi: 0.5 * xi,
                                         x_one.restrict(level), sq["z0"])
            return P.solve_ide(problem, level)

        oracle = lambda L: P.sqrt1p_closed_form(x_one.restrict(L), sq["z0"])
        return Op(f"sqrt1p[L{level}]", run, _solution_check(oracle, 1e-6))

    def expression(ctx, st):
        f = ctx.field(P.field_from_expression(EXPR_FIELD), is_expr=True)
        problem = _linear_qv_problem(f, lambda t, xi: ex["b"] - 0.5 * xi,
                                     x_one.restrict(EXPR_LEVEL), ex["z0"])
        return P.solve_ide(problem, EXPR_LEVEL)

    def empirical(ctx, st):
        x = inputs["x_fig"]
        problem = P.IDEProblem(
            field=ctx.field(P.sqrt1p_field()),
            drift=lambda t, xi: emp["beta"] * np.sin(2 * np.pi * t) - emp["gamma"] * xi,
            driver_A=P.BVDriver.identity(x.level), x=x, qv_x=inputs["qv_fig"],
            z0=emp["z0"])
        return P.solve_ide(problem, x.level)

    m = inputs["match"]
    tg = P.grid_points(MATCH_LEVEL)
    target = P.SampledPath(MATCH_LEVEL, np.sin(m["omega"] * tg))
    msig = lambda t: m["a"] + m["c"] * np.asarray(t, dtype=np.float64)
    mdsig = lambda t: m["c"] + 0.0 * np.asarray(t, dtype=np.float64)
    xm = x_one.restrict(MATCH_LEVEL)

    def match_round_trip(ctx, st):
        field_ = ctx.field(P.scalar_linear_field(msig, mdsig))
        drift = P.match_path(target, field_, xm, MATCH_LEVEL)
        problem = P.IDEProblem(
            field=field_, drift=P.drift_from_path(drift),
            driver_A=P.BVDriver.identity(MATCH_LEVEL), x=xm,
            qv_x=P.QVCurve.from_function(lambda t: t, MATCH_LEVEL), z0=0.0)
        return drift, P.solve_ide(problem, MATCH_LEVEL)

    def match_check(res, st):
        drift, sol = res
        _require(np.all(np.isfinite(drift.values)), "match_path drift is not finite")
        _require(sol.residual_report <= 1e-10, f"Picard residual {sol.residual_report:.3e}")
        phi = P.flow(P.scalar_linear_field(msig, mdsig), tg, target.values, xm.values)
        # the level-16 round-trip contract (1e-5), scaled for a first-order scheme
        tol = 1e-5 * 2.0 ** (16 - MATCH_LEVEL)
        gap = _sup(sol.z.values, phi)
        _require(gap <= tol, f"match round trip off by {gap:.3e} (tol {tol:.1e})")
        return fingerprint(drift.values, sol.z.values)

    def probe(ctx, st):
        return P.flow(ctx.field(P.sqrt1p_field()), 0.0, inputs["probe_xi"], inputs["probe_t"])

    def probe_check(values, st):
        want = np.sinh(inputs["probe_t"] + np.arcsinh(inputs["probe_xi"]))
        gap = _sup(values, want)
        _require(gap <= 1e-9, f"sqrt1p flow off sinh(t + asinh xi) by {gap:.3e}")
        return fingerprint(values)

    ops += [langevin(12), langevin(14), langevin(16),
            geometric(12), geometric(13), geometric(14),
            sqrt1p(12), sqrt1p(13), sqrt1p(14),
            Op(f"expression[L{EXPR_LEVEL}]", expression, _solution_check(None, 0.0)),
            Op("sqrt1p_empirical[L13]", empirical, _solution_check(None, 0.0)),
            Op(f"match_round_trip[L{MATCH_LEVEL}]", match_round_trip, match_check),
            Op("flow_batch[4097]", probe, probe_check, {"rhs_probe": True})]
    return ops


# -- cli: cold pathqv invocations ---------------------------------------------

CLI_ALPHAS = ("e", "10*e", "pi", "sqrt(2)", "(1+sqrt(5))/2", "sqrt(3)")
CLI_X_PRESETS = ("fig1-left", "fig1-right", "one")
CLI_Y_PRESETS = ("fig2-left", "fig2-right")
CLI_LEVEL = 12
IDENTITY_LEVELS = (8, 10, 12)
# Shooting with an expression field: support, flow on one-point batches and
# expression parsing in one command.
SHOOT_FIELD = "1+0.3*sin(xi)"
SHOOT_LEVEL = 9
SHOOT_T0 = 0.5
SHOOT_TOL = 1e-6
PROBLEM_LEVEL = 10


def _cli_inputs(rng):
    x_preset = CLI_X_PRESETS[int(rng.integers(len(CLI_X_PRESETS)))]
    problem = {"sigma": "sqrt1p", "b": f"{_jitter(rng, 0.3, 0.1):.6f}*xi", "A": "t",
               "x": "preset:one", "z0": round(_jitter(rng, 0.4, 0.1), 6),
               "level": PROBLEM_LEVEL, "qv": "t"}
    return {
        "x_preset": x_preset,
        "y_preset": CLI_Y_PRESETS[int(rng.integers(len(CLI_Y_PRESETS)))],
        "alpha": CLI_ALPHAS[int(rng.integers(len(CLI_ALPHAS)))],
        "diagnose_t": int(rng.integers(1, 32)) / 64.0,
        "shoot_z1": round(0.4 + rng.uniform(-0.02, 0.02), 6),
        "problem": problem,
    }


def _read_path(st, name):
    return P.SampledPath.from_csv(f"{st['workdir']}/{name}")


def _check_synthesis(path, coeffs):
    """Round trip through analysis and the exact t = 1 identity."""
    back = P.analyze(path)
    gap = max(_sup(r, s) for r, s in zip(back.theta, coeffs.theta))
    _require(gap <= 1e-12 and back.anchor == 0.0 and back.slope == 0.0,
             f"synthesis/analysis round trip off by {gap:.3e}")
    for n in IDENTITY_LEVELS:
        gap = abs(P.ell1(coeffs, n, 1.0) - P.qv_level(path, n, 1.0))
        _require(gap <= 1e-10, f"t = 1 identity off by {gap:.3e} at level {n}")


def _printed_numbers(out, marker):
    """The number after ``marker`` on every line that holds it."""
    return [float(line.split(marker, 1)[1].split()[0].rstrip(","))
            for line in out.splitlines() if marker in line]


def _cli_checks(inputs):
    """Output checks beyond exit code and repeatability, by command name."""
    x, y = inputs["x_preset"], inputs["y_preset"]

    def synth_x(out, st):
        _check_synthesis(_read_path(st, "x.csv"), P.coefficients_x(P.preset(x), CLI_LEVEL))

    def synth_y(out, st):
        shift = P.IrrationalShift(P.evaluate_constant(inputs["alpha"]))
        _check_synthesis(_read_path(st, "y.csv"),
                         P.coefficients_y(P.preset(y), shift, CLI_LEVEL))

    def qv(out, st):
        rows = np.loadtxt(f"{st['workdir']}/qv.csv", delimiter=",", skiprows=1)
        gap = _sup(rows[:, -1], _predicted_closed_form(x, rows[:, 0]))
        _require(gap <= 1e-10, f"predicted QV off its closed form by {gap:.3e}")

    def ito(out, st):
        res = _printed_numbers(out, ": ")
        _require(len(res) == len(IDENTITY_LEVELS), f"ito-check printed {out!r}")
        _require(max(abs(r) for r in res) <= 1e-12, f"quadratic Ito residuals {res}")

    def solve(out, st):
        defect = _printed_numbers(out, "fixed-point defect ")
        _require(defect and defect[0] <= 1e-10, f"Picard defect {defect}")

    def tonelli(out, st):
        gap = _sup(_read_path(st, "b_tonelli.csv").values, _read_path(st, "b.csv").values)
        _require(gap <= 1e-6, f"Tonelli and Picard differ by {gap:.3e}")

    def shoot(out, st):
        miss = _printed_numbers(out, "|z(t0) - z1| = ")
        _require(miss and miss[0] <= SHOOT_TOL, f"shot landed {miss} from z1")

    def write_l16(out, st):
        with open(f"{st['workdir']}/x16.csv", "rb") as fh:
            _require(fh.read().count(b"\n") == 2**16 + 2, "level-16 CSV has wrong row count")

    return {"synth-x": synth_x, "synth-y": synth_y, "qv": qv, "ito-check": ito,
            "solve": solve, "tonelli": tonelli, "shoot": shoot, "write-l16": write_l16}


def _cli_ops(inputs):
    """Argv lists; {dir} is replaced by the run's work directory."""
    x, y = inputs["x_preset"], inputs["y_preset"]
    level = str(CLI_LEVEL)
    commands = [
        ("version", ["--version"], ()),
        ("synth-x", ["synth-x", "--preset", x, "--level", level, "--out", "{dir}/x.csv"],
         ("x.csv",)),
        ("synth-y", ["synth-y", "--preset", y, "--alpha", inputs["alpha"], "--level", level,
                     "--out", "{dir}/y.csv"], ("y.csv",)),
        ("qv", ["qv", "--in", "{dir}/x.csv", "--levels", "8,10,12",
                "--predicted", f"{x}:curved", "--out", "{dir}/qv.csv"], ("qv.csv",)),
        ("cov", ["cov", "--in", "{dir}/x.csv", "--in2", "{dir}/y.csv", "--levels", "8,10,12",
                 "--out", "{dir}/cov.csv"], ("cov.csv",)),
        ("ito-check", ["ito-check", "--x", "{dir}/x.csv", "--F", "xi^2",
                       "--levels", ",".join(map(str, IDENTITY_LEVELS))], ()),
        ("flow-check", ["flow-check", "--sigma", "sqrt1p"], ()),
        ("solve", ["solve", "--problem", "{dir}/problem.json", "--out-b", "{dir}/b.csv",
                   "--out-z", "{dir}/z.csv"], ("b.csv", "z.csv")),
        ("tonelli", ["solve", "--problem", "{dir}/problem.json", "--scheme", "tonelli",
                     "--tonelli-n", str(2**PROBLEM_LEVEL), "--out-b", "{dir}/b_tonelli.csv"],
         ("b_tonelli.csv",)),
        ("shoot", ["shoot", "--sigma", SHOOT_FIELD, "--x", "preset:one", "--z0", "0",
                   "--z1", repr(inputs["shoot_z1"]), "--t0", repr(SHOOT_T0),
                   "--level", str(SHOOT_LEVEL)], ()),
        ("diagnose", ["diagnose", "--preset", x, "--t", repr(inputs["diagnose_t"]),
                      "--n-max", "14"], ()),
        ("write-l16", ["synth-x", "--preset", x, "--level", "16", "--out", "{dir}/x16.csv"],
         ("x16.csv",)),
        ("read-l16", ["qv", "--in", "{dir}/x16.csv", "--levels", "12,16"], ()),
    ]
    checks = _cli_checks(inputs)
    ops = []
    for name, argv, outputs in commands:
        def run(ctx, st, argv=argv):
            return ctx.cli([a.replace("{dir}", st["workdir"]) for a in argv])

        def check(res, st, name=name, outputs=outputs):
            code, out = res
            _require(code == 0, f"exit code {code}")
            _require("FAIL" not in out, "flow identity suite reported FAIL")
            if name == "version":
                _require(out.strip() == f"pathqv {P.__version__}", f"version printed {out!r}")
            if name in checks:
                checks[name](out, st)
            files = []
            for f in outputs:
                with open(f"{st['workdir']}/{f}", "rb") as fh:
                    files.append(fh.read())
            return fingerprint(out, *files)

        ops.append(Op(f"cli[{name}]", run, check))
    return ops


_INPUTS = {"solve": _solve_inputs, "cli": _cli_inputs}
_OPS = {"solve": _solve_ops, "cli": _cli_ops}


def build_inputs(name, seed):
    return _INPUTS[name](np.random.default_rng([seed, WORKLOADS.index(name)]))


def operations(name, inputs):
    return _OPS[name](inputs)
