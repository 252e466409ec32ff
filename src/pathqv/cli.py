"""Command-line front end.

Subcommands: synth-x, synth-y, qv, cov, integrate, ito-check, flow-check,
solve, shoot, match, diagnose, figures.  File formats are CSV ("t,value",
17 significant digits) or JSON, chosen by extension.  Exit codes:
0 success, 2 usage or bad input, 3 numerical failure.

Volatility fields, drifts and f-sequences can be given as expression
strings over t and xi (see pathqv.expr for the grammar); "sqrt1p" names
the built-in sqrt(1 + xi^2) field.  Identical invocations produce
bit-identical output files: all reductions run in fixed order and
nothing here draws randomness.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .construct import (SPOT_GRID, FunctionSequence, IrrationalShift, PRESETS,
                        build_x, build_y, predicted_qv, preset)
from .dyadic import (BVDriver, DEFAULT_LEVEL, QVCurve, SampledPath,
                     _check_level, _write_csv, grid_points, read_json)
from .errors import DomainError, NumericalError, PathQVError
from .expr import Expression, evaluate_constant, field_from_expression, scalar_function
from .flow import (FLOW_CHECKS, flow_identity_defects, flow_with_derivatives,
                   sample_box_values, sqrt1p_field)
from .follmer import follmer_integral, ito_residual
from .ide import IDEProblem, solve_ide
from .quadvar import cov_curve, cov_level, qv_curve, qv_level
from .support import (_linear_qv_problem, drift_from_path, match_path, nondiff_quotients,
                      shoot_constant_b)


def _fmt(v):
    return f"{v:.17g}"


def _parse_levels(spec, top):
    """--levels as a list of levels, each checked against ``top``, the level
    of the path(s) read, so that a bad entry fails before any output."""
    try:
        levels = [int(s) for s in spec.split(",") if s]
    except ValueError:
        raise DomainError(f"bad --levels {spec!r}; expected e.g. 8,10,12")
    if not levels:
        raise DomainError("--levels is empty")
    for n in levels:
        if _check_level(n) > top:
            raise DomainError(f"level {n} exceeds path level {top}")
    return levels


def _resolve_fseq(args):
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "f", None):
        fn = scalar_function(args.f, "t")
        with np.errstate(all="ignore"):
            values = np.asarray(fn(SPOT_GRID), dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise DomainError(f"--f {args.f!r} is not finite on [0, 1]")
        return FunctionSequence.constant_in_n(fn, float(np.max(np.abs(values))), name=args.f)
    raise DomainError("need --preset or --f")


def _resolve_field(spec):
    if spec == "sqrt1p":
        return sqrt1p_field()
    return field_from_expression(spec)


def _resolve_drift(spec):
    try:
        value = float(spec)
    except ValueError:
        e = Expression(spec, ("t", "xi"))
        sample_box_values(e, f"drift b = {spec!r}")
        return e
    if not np.isfinite(value):
        raise DomainError(f"drift b must be finite, got {spec!r}")
    return lambda t, xi: value


def _resolve_x(spec, level):
    if spec.startswith("preset:"):
        fseq = preset(spec.split(":", 1)[1])
        return build_x(fseq, level), fseq
    path = SampledPath.from_file(spec)
    if path.level < level:
        raise DomainError(f"{spec}: level {path.level} below requested {level}")
    return path, None


# -- subcommands -------------------------------------------------------------

def _cmd_synth_x(args):
    fseq = _resolve_fseq(args)
    path = build_x(fseq, args.level)
    path.to_file(args.out)
    print(f"wrote level-{args.level} path ({fseq.name or 'f'}) to {args.out}")
    return 0


def _cmd_synth_y(args):
    fseq = _resolve_fseq(args)
    shift = IrrationalShift(evaluate_constant(args.alpha))
    path = build_y(fseq, shift, args.level)
    path.to_file(args.out)
    print(f"wrote level-{args.level} path ({fseq.name or 'f'}, alpha={shift.alpha:.12g}) "
          f"to {args.out}")
    return 0


def _cmd_qv(args):
    path = SampledPath.from_file(args.infile)
    levels = _parse_levels(args.levels, path.level)
    base = min(levels)
    pred = None
    if args.predicted:
        name, _, kind = args.predicted.partition(":")
        pred = predicted_qv(preset(name), kind or "curved", base)
    for n in levels:
        print(f"qv level {n} at t=1: {_fmt(qv_level(path, n, 1.0))}")
    if args.out:
        columns = [grid_points(base)]
        header = ["t"]
        for n in levels:
            columns.append(qv_curve(path, n).restrict(base).values)
            header.append(f"qv_n{n}")
        if pred is not None:
            columns.append(pred.values)
            header.append("predicted")
        _write_csv(args.out, ",".join(header), columns)
        print(f"wrote {args.out}")
    return 0


def _cmd_cov(args):
    x = SampledPath.from_file(args.infile)
    y = SampledPath.from_file(args.infile2)
    levels = _parse_levels(args.levels, min(x.level, y.level))
    for n in levels:
        print(f"cov level {n} at t=1: {_fmt(cov_level(x, y, n, 1.0))}")
    if args.out:
        base = min(levels)
        columns = [grid_points(base)]
        header = ["t"]
        for n in levels:
            columns.append(cov_curve(x, y, n).restrict(base).values)
            header.append(f"cov_n{n}")
        _write_csv(args.out, ",".join(header), columns)
        print(f"wrote {args.out}")
    return 0


def _cmd_integrate(args):
    eta = SampledPath.from_file(args.eta)
    x = SampledPath.from_file(args.x)
    n = args.level if args.level is not None else min(eta.level, x.level)
    value = follmer_integral(eta, x, n, args.t)
    print(f"integral at level {n}, t={args.t:g}: {_fmt(value)}")
    return 0


def _cmd_ito_check(args):
    # --level is the synthesis level of a preset; a file keeps its own
    if args.x.startswith("preset:"):
        x, _ = _resolve_x(args.x, args.level)
    else:
        x = SampledPath.from_file(args.x)
    levels = _parse_levels(args.levels, x.level)
    F = Expression(args.F, ("xi",))
    dF = F.diff("xi")
    d2F = dF.diff("xi")
    for n in levels:
        r = ito_residual(F, dF, d2F, x, n, 1.0)
        print(f"ito residual F={args.F} level {n}: {_fmt(r)}")
    return 0


def _cmd_flow_check(args):
    field = _resolve_field(args.sigma)
    defects = flow_identity_defects(field)
    failed = False
    for name, tol in FLOW_CHECKS:
        d = defects[name]
        ok = d <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: defect {d:.3e} (tol {tol:g})")
    if failed:
        raise NumericalError("flow identity suite failed")
    return 0


def _load_problem(spec_path):
    doc = read_json(spec_path)
    if not isinstance(doc, dict):
        raise DomainError(f"{spec_path}: expected a JSON object")
    for key in ("sigma", "b", "A", "x", "z0", "level"):
        if key not in doc:
            raise DomainError(f"{spec_path}: missing key {key!r}")
    for key in ("sigma", "A", "x"):
        if not isinstance(doc[key], str):
            raise DomainError(f"{spec_path}: {key} must be a string, got {doc[key]!r}")
    level = _check_level(doc["level"])
    field = _resolve_field(doc["sigma"])
    drift = _resolve_drift(str(doc["b"]))
    x, fseq = _resolve_x(doc["x"], level)
    if doc["A"] == "t":
        driver = BVDriver.identity(level)
    else:
        driver = BVDriver.from_file(doc["A"])
    qv_spec = doc.get("qv", "analytic" if fseq is not None else "empirical")
    if qv_spec == "analytic":
        if fseq is None:
            raise DomainError("qv=analytic needs a preset x")
        qv = predicted_qv(fseq, "curved", level)
    elif qv_spec == "t":
        qv = QVCurve.from_function(lambda t: t, level)
    elif qv_spec == "empirical":
        qv = qv_curve(x, min(level, x.level))
    else:
        raise DomainError(f"bad qv spec {qv_spec!r}: use analytic | empirical | t")
    try:
        z0 = float(doc["z0"])
    except (TypeError, ValueError):
        raise DomainError(f"{spec_path}: z0 must be a number, got {doc['z0']!r}") from None
    problem = IDEProblem(field=field, drift=drift, driver_A=driver, x=x, qv_x=qv, z0=z0)
    return problem, level


def _cmd_solve(args):
    problem, level = _load_problem(args.problem)
    sol = solve_ide(problem, level, scheme=args.scheme, tonelli_n=args.tonelli_n)
    print(f"solved at level {level} ({args.scheme}): "
          f"fixed-point defect {sol.residual_report:.3e}, "
          f"pathwise-integral defect {sol.follmer_defect:.3e}")
    if args.out_b:
        sol.B.to_file(args.out_b)
        print(f"wrote B to {args.out_b}")
    if args.out_z:
        sol.z.to_file(args.out_z)
        print(f"wrote z to {args.out_z}")
    return 0


def _cmd_shoot(args):
    field = _resolve_field(args.sigma)
    x, _ = _resolve_x(args.x, args.level)
    trace = []
    b = shoot_constant_b(field, x, args.z0, args.z1, args.t0, args.level,
                         trace=trace)
    final_err = abs(trace[-1][1] - args.z1)
    print(f"b = {_fmt(b)}")
    print(f"|z(t0) - z1| = {final_err:.3e} after {len(trace)} evaluations")
    if args.trace:
        _write_csv(args.trace, "iteration,b,z_at_t0",
                   [list(range(len(trace))),
                    [b_ for b_, _ in trace],
                    [z_ for _, z_ in trace]])
        print(f"wrote {args.trace}")
    return 0


def _cmd_match(args):
    field = _resolve_field(args.sigma)
    x, _ = _resolve_x(args.x, args.level)
    target = SampledPath.from_file(args.target)
    drift_path = match_path(target, field, x, args.level)
    drift_path.to_file(args.out)
    # round trip: solve with the recovered drift and compare against the target z
    level = drift_path.level
    problem = _linear_qv_problem(field, x, float(target.restrict(level).values[0]),
                                 drift_from_path(drift_path), level)
    sol = solve_ide(problem, level)
    tgrid = grid_points(level)
    phi, _, _, _ = flow_with_derivatives(field, tgrid, target.restrict(level).values,
                                         x.restrict(level).values)
    err = float(np.max(np.abs(sol.z.values - phi)))
    print(f"wrote drift to {args.out}; round-trip sup error {err:.3e}")
    return 0


def _cmd_diagnose(args):
    fseq = preset(args.preset)
    from .construct import coefficients_x

    coeffs = coefficients_x(fseq, args.n_max)
    report = nondiff_quotients(coeffs, fseq, args.t, args.n_max)
    header = "n,d_n,increment,predicted,sign,hypothesis_met,diverging"
    lines = [header]
    lines.append(f"0,{_fmt(report.d[0])},,,,,")
    for i, n in enumerate(range(1, args.n_max + 1)):
        lines.append(
            f"{n},{_fmt(report.d[n])},{_fmt(report.increment[i])},"
            f"{_fmt(report.predicted_increment[i])},{int(report.sign[i])},"
            f"{int(report.hypothesis_met[i])},{int(report.diverging[i])}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    print(f"recursion defect {report.recursion_defect:.3e}; "
          f"max |d_n| = {report.max_abs_d:.6g}")
    return 0


def _cmd_figures(args):
    level = args.level
    t = grid_points(level)
    for name in ("fig1-left", "fig1-right"):
        fseq = preset(name)
        x = build_x(fseq, level)
        qv7 = qv_curve(x, 7).value_at(t)
        pred = predicted_qv(fseq, "curved", level).values
        _write_csv(f"{args.out_dir}/{name}.csv", "t,x,qv7,predicted",
                   [t, x.values, qv7, pred])
    for name in ("fig2-left", "fig2-right"):
        fseq = preset(name)
        y_e = build_y(fseq, IrrationalShift(float(np.e)), level)
        y_10e = build_y(fseq, IrrationalShift(10.0 * float(np.e)), level)
        _write_csv(f"{args.out_dir}/{name}.csv", "t,y_alpha_e,y_alpha_10e",
                   [t, y_e.values, y_10e.values])
    print(f"wrote figure data to {args.out_dir}")
    return 0


# -- parser ------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="pathqv",
        description="Paths with prescribed quadratic variation and pathwise "
                    "Ito differential equations on dyadic grids.",
    )
    p.add_argument("--version", action="version", version=f"pathqv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn)
        return sp

    sp = add("synth-x", _cmd_synth_x, "synthesize a curved-QV path from f")
    sp.add_argument("--preset", choices=sorted(PRESETS))
    sp.add_argument("--f", help="expression f(t), used for every row")
    sp.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    sp.add_argument("--out", required=True)

    sp = add("synth-y", _cmd_synth_y, "synthesize a linear-QV path from f and alpha")
    sp.add_argument("--preset", choices=sorted(PRESETS))
    sp.add_argument("--f", help="expression f(t)")
    sp.add_argument("--alpha", default="e", help="rotation number (expression, e.g. 10*e)")
    sp.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    sp.add_argument("--out", required=True)

    sp = add("qv", _cmd_qv, "quadratic variation along dyadic levels")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--levels", default="8,10,12")
    sp.add_argument("--predicted", help="preset[:curved|linear] for the predicted column")
    sp.add_argument("--out")

    sp = add("cov", _cmd_cov, "covariation of two paths")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--in2", dest="infile2", required=True)
    sp.add_argument("--levels", default="8,10,12")
    sp.add_argument("--out")

    sp = add("integrate", _cmd_integrate, "non-anticipative pathwise integral")
    sp.add_argument("--eta", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--level", type=int)
    sp.add_argument("--t", type=float, default=1.0)

    sp = add("ito-check", _cmd_ito_check, "pathwise Ito-formula residuals")
    sp.add_argument("--x", required=True, help="path file or preset:NAME")
    sp.add_argument("--F", required=True, help="expression in xi, e.g. xi^3")
    sp.add_argument("--levels", default="8,12,14")
    sp.add_argument("--level", type=int, default=DEFAULT_LEVEL,
                    help="synthesis level when --x is a preset")

    sp = add("flow-check", _cmd_flow_check, "flow identity suite for a field")
    sp.add_argument("--sigma", required=True, help="'sqrt1p' or expression in t, xi")

    sp = add("solve", _cmd_solve, "solve a pathwise Ito equation (problem JSON)")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--scheme", choices=("picard", "tonelli"), default="picard")
    sp.add_argument("--tonelli-n", type=int, default=64)
    sp.add_argument("--out-b")
    sp.add_argument("--out-z")

    sp = add("shoot", _cmd_shoot, "find constant drift hitting a target")
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x", required=True, help="path file or preset:NAME")
    sp.add_argument("--z0", type=float, required=True)
    sp.add_argument("--z1", type=float, required=True)
    sp.add_argument("--t0", type=float, required=True)
    sp.add_argument("--level", type=int, default=10)
    sp.add_argument("--trace", help="write iteration,b,z CSV here")

    sp = add("match", _cmd_match, "drift recovering a target B component")
    sp.add_argument("--target", required=True, help="smooth B path file")
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    sp.add_argument("--out", required=True)

    sp = add("diagnose", _cmd_diagnose, "difference-quotient divergence report")
    sp.add_argument("--preset", required=True, choices=sorted(PRESETS))
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--n-max", type=int, default=14)
    sp.add_argument("--out")

    sp = add("figures", _cmd_figures, "emit the four preset figure datasets as CSV")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args) or 0
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        for i, d in enumerate(getattr(exc, "trace", [])):
            print(f"  defect[{i}] = {d:.6e}", file=sys.stderr)
        return 3
    except PathQVError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
