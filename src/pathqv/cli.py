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

Every rule that a command applies to its inputs lives in the library:
the problem file in ``ide.read_problem``, a preset or file x in
``construct.x_from_spec``, a field in ``expr.field_from_expression``, an
--f in ``expr.sequence_from_expression`` and the match round trip in
``support.round_trip_error``; this module parses argv and prints.

Each command imports the library modules it uses, and the module level
only what the parser and ``main`` need, so that a cold run of one command
loads and compiles no module it does not use.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import __version__
from .dyadic import DEFAULT_LEVEL, MAX_LEVEL
from .errors import DomainError, NumericalError

def _fmt(v):
    return f"{v:.17g}"


def _number(pattern, kind):
    """An argparse type that reads with ``kind`` only the text ``pattern``
    matches in full: int() and float() alone also read Python's literal
    syntax, "1_0" as 10 and " 6 " as 6."""
    def read(text):
        if not pattern.fullmatch(text):
            raise ValueError(text)
        return kind(text)
    read.__name__ = kind.__name__  # argparse's message: invalid int value: '1_0'
    return read


# an integer is an optional sign and ASCII digits; a float a decimal literal,
# or inf or nan, which the library refuses with its own message
_integer = _number(re.compile(r"[+-]?[0-9]+"), int)
_decimal = _number(re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                              r"|inf|infinity|nan)", re.IGNORECASE), float)


def _parse_levels(spec, top):
    """--levels as a list of levels, each checked against ``top`` (the level
    of the path(s) read, or MAX_LEVEL), so that a bad entry fails before any
    output."""
    from .dyadic import _check_level

    try:
        levels = [_integer(s) for s in spec.split(",") if s]
    except ValueError:
        raise DomainError(f"bad --levels {spec!r}; expected e.g. 8,10,12")
    if not levels:
        raise DomainError("--levels is empty")
    for n in levels:
        if _check_level(n) > top:
            raise DomainError(f"level {n} exceeds path level {top}")
    return levels


def _resolve_fseq(args):
    from .construct import preset

    if args.preset is not None:
        return preset(args.preset)
    if args.f is not None:
        from .expr import sequence_from_expression  # here, so that --preset loads no expr

        return sequence_from_expression(args.f)
    raise DomainError("need --preset or --f")


# -- subcommands -------------------------------------------------------------

def _cmd_synth_x(args):
    from .construct import build_x

    fseq = _resolve_fseq(args)
    path = build_x(fseq, args.level)
    path.to_file(args.out)
    print(f"wrote level-{args.level} path ({fseq.name or 'f'}) to {args.out}")
    return 0


def _cmd_synth_y(args):
    from .construct import IrrationalShift, build_y
    from .expr import evaluate_constant

    fseq = _resolve_fseq(args)
    shift = IrrationalShift(evaluate_constant(args.alpha))
    path = build_y(fseq, shift, args.level)
    path.to_file(args.out)
    print(f"wrote level-{args.level} path ({fseq.name or 'f'}, alpha={shift.alpha:.12g}) "
          f"to {args.out}")
    return 0


def _report_cov(kind, x, y, levels, out, extra=None):
    """Print <x,y>^n at t = 1 for each level and, given ``out``, write
    the curves on the lowest level's grid as columns ``{kind}_n{n}``,
    then ``extra`` (header, values) if given; qv is cov with y = x."""
    from .dyadic import _write_csv, grid_points
    from .quadvar import cov_curve, cov_level

    for n in levels:
        print(f"{kind} level {n} at t=1: {_fmt(cov_level(x, y, n, 1.0))}")
    if out:
        base = min(levels)
        header = ["t"] + [f"{kind}_n{n}" for n in levels]
        columns = [grid_points(base)] + [cov_curve(x, y, n).restrict(base).values
                                         for n in levels]
        if extra is not None:
            header.append(extra[0])
            columns.append(extra[1])
        _write_csv(out, ",".join(header), columns)
        print(f"wrote {out}")
    return 0


def _cmd_qv(args):
    from .dyadic import SampledPath

    path = SampledPath.from_file(args.infile)
    levels = _parse_levels(args.levels, path.level)
    pred = None
    if args.predicted:
        from .construct import predicted_qv, preset

        name, _, kind = args.predicted.partition(":")
        pred = ("predicted", predicted_qv(preset(name), kind or "curved", min(levels)).values)
    return _report_cov("qv", path, path, levels, args.out, pred)


def _cmd_cov(args):
    from .dyadic import SampledPath

    x = SampledPath.from_file(args.infile)
    y = SampledPath.from_file(args.infile2)
    levels = _parse_levels(args.levels, min(x.level, y.level))
    return _report_cov("cov", x, y, levels, args.out)


def _cmd_integrate(args):
    from .dyadic import SampledPath
    from .follmer import follmer_integral

    eta = SampledPath.from_file(args.eta)
    x = SampledPath.from_file(args.x)
    n = args.level if args.level is not None else min(eta.level, x.level)
    value = follmer_integral(eta, x, n, args.t)
    print(f"integral at level {n}, t={args.t:g}: {_fmt(value)}")
    return 0


def _cmd_ito_check(args):
    from .construct import x_from_spec
    from .expr import Expression
    from .follmer import ito_residual

    # a preset is built at the finest level; a file must reach it
    levels = _parse_levels(args.levels, MAX_LEVEL)
    x, _ = x_from_spec(args.x, max(levels))
    F = Expression(args.F, ("xi",))
    dF = F.diff("xi")
    d2F = dF.diff("xi")
    for n in levels:
        r = ito_residual(F, dF, d2F, x, n, 1.0)
        print(f"ito residual F={args.F} level {n}: {_fmt(r)}")
    return 0


def _cmd_flow_check(args):
    from .expr import field_from_expression
    from .flow import FLOW_CHECKS, flow_identity_defects

    field = field_from_expression(args.sigma)
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


def _cmd_solve(args):
    from .ide import read_problem, solve_ide

    problem, level = read_problem(args.problem)
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
    from .construct import x_from_spec
    from .dyadic import _write_csv
    from .expr import field_from_expression
    from .support import shoot_constant_b

    field = field_from_expression(args.sigma)
    x, _ = x_from_spec(args.x, args.level)
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
    from .construct import x_from_spec
    from .dyadic import SampledPath
    from .expr import field_from_expression
    from .support import match_path, round_trip_error

    field = field_from_expression(args.sigma)
    x, _ = x_from_spec(args.x, args.level)
    target = SampledPath.from_file(args.target)
    drift_path = match_path(target, field, x, args.level)
    drift_path.to_file(args.out)
    err = round_trip_error(target, drift_path, field, x)
    print(f"wrote drift to {args.out}; round-trip sup error {err:.3e}")
    return 0


def _cmd_diagnose(args):
    from .construct import coefficients_x, nondiff_quotients, preset

    fseq = preset(args.preset)
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
    from .construct import IrrationalShift, build_x, build_y, predicted_qv, preset
    from .dyadic import _write_csv, grid_points
    from .quadvar import qv_curve

    level = args.level
    if level < 7:  # the qv7 column reads each path at level 7
        raise DomainError(f"--level must be at least 7 for figures, got {level}")
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # refused argv: one error: line and exit 2, as a bad value
        raise DomainError(message)


def _build_parser():
    p = _Parser(
        prog="pathqv", allow_abbrev=False,
        description="Paths with prescribed quadratic variation and pathwise "
                    "Ito differential equations on dyadic grids.",
    )
    p.add_argument("--version", action="version", version=f"pathqv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        sp.set_defaults(func=fn)
        return sp

    sp = add("synth-x", _cmd_synth_x, "synthesize a curved-QV path from f")
    sp.add_argument("--preset", help="preset name, e.g. fig1-left")
    sp.add_argument("--f", help="expression f(t), used for every row")
    sp.add_argument("--level", type=_integer, default=DEFAULT_LEVEL)
    sp.add_argument("--out", required=True)

    sp = add("synth-y", _cmd_synth_y, "synthesize a linear-QV path from f and alpha")
    sp.add_argument("--preset", help="preset name, e.g. fig1-left")
    sp.add_argument("--f", help="expression f(t)")
    sp.add_argument("--alpha", default="e", help="rotation number (expression, e.g. 10*e)")
    sp.add_argument("--level", type=_integer, default=DEFAULT_LEVEL)
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
    sp.add_argument("--level", type=_integer)
    sp.add_argument("--t", type=_decimal, default=1.0)

    sp = add("ito-check", _cmd_ito_check, "pathwise Ito-formula residuals")
    sp.add_argument("--x", required=True, help="path file or preset:NAME")
    sp.add_argument("--F", required=True, help="expression in xi, e.g. xi^3")
    sp.add_argument("--levels", default="8,10,12", help="a preset x is built at the finest")

    sp = add("flow-check", _cmd_flow_check, "flow identity suite for a field")
    sp.add_argument("--sigma", required=True, help="'sqrt1p' or expression in t, xi")

    sp = add("solve", _cmd_solve, "solve a pathwise Ito equation (problem JSON)")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--scheme", default="picard", help="picard or tonelli")
    sp.add_argument("--tonelli-n", type=_integer, default=64)
    sp.add_argument("--out-b")
    sp.add_argument("--out-z")

    sp = add("shoot", _cmd_shoot, "find constant drift hitting a target")
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x", required=True, help="path file or preset:NAME")
    sp.add_argument("--z0", type=_decimal, required=True)
    sp.add_argument("--z1", type=_decimal, required=True)
    sp.add_argument("--t0", type=_decimal, required=True)
    sp.add_argument("--level", type=_integer, default=10)
    sp.add_argument("--trace", help="write iteration,b,z CSV here")

    sp = add("match", _cmd_match, "drift recovering a target B component")
    sp.add_argument("--target", required=True, help="smooth B path file")
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--level", type=_integer, default=DEFAULT_LEVEL)
    sp.add_argument("--out", required=True)

    sp = add("diagnose", _cmd_diagnose, "difference-quotient divergence report")
    sp.add_argument("--preset", required=True)
    sp.add_argument("--t", type=_decimal, required=True)
    sp.add_argument("--n-max", type=_integer, default=14)
    sp.add_argument("--out")

    sp = add("figures", _cmd_figures, "emit the four preset figure datasets as CSV")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--level", type=_integer, default=DEFAULT_LEVEL)
    return p


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args) or 0
    except SystemExit as exc:  # --help and --version
        return exc.code
    except (DomainError, OSError) as exc:  # one line, even for a word holding a newline
        print("error:", str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure:", str(exc).replace("\n", "\\n"), file=sys.stderr)
        for i, d in enumerate(exc.trace):
            print(f"  defect[{i}] = {d:.6e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
