import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pathqv.cli as cli
import pathqv.construct as construct
import pathqv.expr as expr
import pathqv.ide as ide
from pathqv import (IrrationalShift, QVCurve, SampledPath, build_x, build_y, cov_curve,
                    grid_points, predicted_qv, preset, qv_curve)
from pathqv.cli import main


def run(args):
    return main(args)


def test_unknown_subcommand_usage_exit(capsys):
    assert run(["frobnicate"]) == 2
    assert "invalid choice: 'frobnicate'" in assert_one_line_error(capsys)


def test_missing_required_flag(capsys):
    assert run(["synth-x", "--level", "8"]) == 2
    assert "required: --out" in assert_one_line_error(capsys)


def test_synth_and_qv_line(tmp_path, capsys):
    line = tmp_path / "line.csv"
    SampledPath.from_function(lambda t: t, 10).to_csv(line)
    assert run(["qv", "--in", str(line), "--levels", "8"]) == 0
    out = capsys.readouterr().out
    assert "0.00390625" in out  # 2^-8


def test_synth_x_writes_csv(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["synth-x", "--preset", "fig1-left", "--level", "8", "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "t,value"
    assert len(text) == 2**8 + 2
    capsys.readouterr()


def test_synth_x_expression(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["synth-x", "--f", "cos(2*pi*t)", "--level", "8", "--out", str(out)]) == 0
    ref = tmp_path / "ref.csv"
    assert run(["synth-x", "--preset", "fig1-left", "--level", "8", "--out", str(ref)]) == 0
    assert out.read_text() == ref.read_text()
    # fig1-right's f peaks between the level-10 points its bound is taken on
    assert run(["synth-x", "--f", "sin(7*t)^2", "--level", "12", "--out", str(out)]) == 0
    assert run(["synth-x", "--preset", "fig1-right", "--level", "12", "--out", str(ref)]) == 0
    assert out.read_text() == ref.read_text()
    capsys.readouterr()


def test_synth_y_alpha_expression(tmp_path, capsys):
    out1 = tmp_path / "y1.csv"
    out2 = tmp_path / "y2.csv"
    assert run(["synth-y", "--preset", "fig2-left", "--alpha", "e", "--level", "8",
                "--out", str(out1)]) == 0
    assert run(["synth-y", "--preset", "fig2-left", "--alpha", "10*e", "--level", "8",
                "--out", str(out2)]) == 0
    assert out1.read_text() != out2.read_text()
    capsys.readouterr()


def test_determinism_bit_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["synth-y", "--preset", "fig2-right", "--alpha", "e",
                    "--level", "10", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call to owner.name."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_qv_table_with_predicted(tmp_path, capsys):
    x = tmp_path / "x.csv"
    run(["synth-x", "--preset", "fig1-left", "--level", "10", "--out", str(x)])
    table = tmp_path / "qv.csv"
    assert run(["qv", "--in", str(x), "--levels", "8,10",
                "--predicted", "fig1-left:curved", "--out", str(table)]) == 0
    header = table.read_text().splitlines()[0]
    assert header == "t,qv_n8,qv_n10,predicted"
    capsys.readouterr()


def test_qv_predicted_is_one_curve_at_the_base_level(tmp_path, monkeypatch, capsys):
    x = tmp_path / "x.csv"
    run(["synth-x", "--preset", "fig1-left", "--level", "10", "--out", str(x)])
    calls = count_calls(monkeypatch, construct, "predicted_qv")
    table = tmp_path / "qv.csv"
    assert run(["qv", "--in", str(x), "--levels", "10,8",
                "--predicted", "fig1-left", "--out", str(table)]) == 0
    assert calls == [(preset("fig1-left"), "curved", 8)]
    column = np.loadtxt(table, delimiter=",", skiprows=1)[:, -1]
    assert np.array_equal(column, predicted_qv(preset("fig1-left"), "curved", 8).values)
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["nope", "one:weird", "nope:curved"])
def test_qv_bad_predicted_prints_nothing_before_the_error(tmp_path, capsys, spec):
    x = tmp_path / "x.csv"
    run(["synth-x", "--preset", "one", "--level", "8", "--out", str(x)])
    capsys.readouterr()
    assert run(["qv", "--in", str(x), "--levels", "6,8", "--predicted", spec,
                "--out", str(tmp_path / "qv.csv")]) == 2
    assert capsys.readouterr().out == ""
    assert run(["qv", "--in", str(x), "--levels", "6,8", "--predicted", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "qv.csv").exists()


def test_cov_command(tmp_path, capsys):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    run(["synth-x", "--preset", "fig1-left", "--level", "10", "--out", str(x)])
    run(["synth-x", "--preset", "fig2-left", "--level", "10", "--out", str(y)])
    assert run(["cov", "--in", str(x), "--in2", str(y), "--levels", "10"]) == 0
    out = capsys.readouterr().out
    val = float(out.strip().splitlines()[-1].split(":")[1])
    assert abs(val) <= 0.05


def test_cov_out_columns_are_the_covariation_curves(tmp_path, capsys):
    x = build_x(preset("fig1-left"), 10)
    y = build_y(preset("fig2-right"), IrrationalShift(np.e), 10)
    x.to_csv(tmp_path / "x.csv")
    y.to_json(tmp_path / "y.json")
    out = tmp_path / "cov.csv"
    assert run(["cov", "--in", str(tmp_path / "x.csv"), "--in2", str(tmp_path / "y.json"),
                "--levels", "10,6,8", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "t,cov_n10,cov_n6,cov_n8"
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(table[:, 0], grid_points(6))
    for col, n in zip(table.T[1:], (10, 6, 8)):
        assert np.array_equal(col, cov_curve(x, y, n).values[:: 2 ** (n - 6)])


def test_cov_of_a_path_with_itself_is_its_qv(tmp_path, capsys):
    x = tmp_path / "x.csv"
    build_x(preset("fig1-left"), 10).to_csv(x)
    qv, cov = tmp_path / "qv.csv", tmp_path / "cov.csv"
    assert run(["qv", "--in", str(x), "--levels", "10,6,8", "--out", str(qv)]) == 0
    qv_out = capsys.readouterr().out
    assert run(["cov", "--in", str(x), "--in2", str(x), "--levels", "10,6,8",
                "--out", str(cov)]) == 0
    cov_out = capsys.readouterr().out
    assert cov_out == qv_out.replace("qv ", "cov ").replace(str(qv), str(cov))
    qv_lines, cov_lines = qv.read_text().splitlines(), cov.read_text().splitlines()
    assert qv_lines[0] == "t,qv_n10,qv_n6,qv_n8"
    assert cov_lines[0] == "t,cov_n10,cov_n6,cov_n8"
    assert cov_lines[1:] == qv_lines[1:]


def test_integrate_command(tmp_path, capsys):
    x = tmp_path / "x.csv"
    run(["synth-x", "--preset", "one", "--level", "8", "--out", str(x)])
    ones = tmp_path / "ones.csv"
    SampledPath(8, np.ones(2**8 + 1)).to_csv(ones)
    assert run(["integrate", "--eta", str(ones), "--x", str(x)]) == 0
    out = capsys.readouterr().out
    val = float(out.strip().split(":")[1])
    assert abs(val) <= 1e-12  # x(1) - x(0) = 0 for this preset


def test_ito_check_non_finite_F_exit_2(capsys):
    # the preset path starts at 0, where 1/xi is infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["ito-check", "--x", "preset:one", "--F", "1/xi", "--levels", "8"]) == 2
    assert_one_line_error(capsys)


def test_ito_check_nan_exponent_exit_2(capsys):
    # differentiating F evaluates its constant exponent, here (0-1)^0.5 = NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["ito-check", "--x", "preset:one", "--F", "xi^((0-1)^0.5)",
                    "--levels", "6"]) == 2
    assert_one_line_error(capsys)


def test_ito_check_command(capsys):
    assert run(["ito-check", "--x", "preset:fig1-left", "--F", "xi^2",
                "--levels", "8,10"]) == 0
    out = capsys.readouterr().out
    vals = [abs(float(line.rsplit(":", 1)[1])) for line in out.strip().splitlines()]
    assert max(vals) <= 1e-12


def test_flow_check_command(capsys):
    assert run(["flow-check", "--sigma", "sqrt1p"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_flow_check_failure_exit_3(monkeypatch, capsys):
    # sigma_xi off by 0.1; the rest point at xi = 0.2, inside the sample
    # box, makes the flow integrate the variational row that it breaks
    wrong = SimpleNamespace(sigma=lambda t, xi: np.sin(xi - 0.2), sigma_t=lambda t, xi: 0.0,
                            sigma_xi=lambda t, xi: np.cos(xi - 0.2) + 0.1)
    monkeypatch.setattr(expr, "field_from_expression", lambda spec: wrong)
    assert run(["flow-check", "--sigma", "sqrt1p"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS semigroup", "FAIL reverse-time identity", "FAIL second-order identity",
        "FAIL d_xi vs finite differences"]
    assert lines[1].endswith("(tol 1e-07)")
    assert "identity suite failed" in captured.err


def test_solve_command(tmp_path, capsys):
    from pathqv import build_x, preset

    x = build_x(preset("one"), 8)
    # the built-in field (closed-form flow) and the same field as an
    # expression (DP45)
    for sigma in ("sqrt1p", "sqrt(1+xi^2)"):
        problem = {
            "sigma": sigma,
            "b": "0.5*xi",
            "A": "t",
            "x": "preset:one",
            "z0": 0.4,
            "level": 8,
            "qv": "t",
        }
        pfile = tmp_path / "problem.json"
        pfile.write_text(json.dumps(problem))
        zout = tmp_path / "z.csv"
        bout = tmp_path / "B.csv"
        assert run(["solve", "--problem", str(pfile), "--out-z", str(zout),
                    "--out-b", str(bout)]) == 0
        z = SampledPath.from_csv(zout)
        B = SampledPath.from_csv(bout)
        assert np.max(np.abs(B.values - 0.4)) <= 1e-10
        assert np.max(np.abs(z.values - np.sinh(x.values + np.arcsinh(0.4)))) <= 1e-6
    capsys.readouterr()


def test_solve_missing_key(tmp_path, capsys):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({"sigma": "sqrt1p"}))
    assert run(["solve", "--problem", str(pfile)]) == 2
    capsys.readouterr()


def assert_one_line_error(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err
    return err


def test_solve_non_integer_level_exit_2(tmp_path, capsys):
    problem = {"sigma": "sqrt1p", "b": "0.5*xi", "A": "t", "x": "preset:one",
               "z0": 0.4, "level": "ten", "qv": "t"}
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert_one_line_error(capsys)
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"level": "ten", "values": [0.0, 1.0]}))
    assert run(["qv", "--in", str(path)]) == 2
    assert_one_line_error(capsys)


GOOD_PROBLEM = {"sigma": "sqrt1p", "b": "0.5*xi", "A": "t", "x": "preset:one",
                "z0": 0.4, "level": 6, "qv": "t"}


def test_qv_path_json_with_string_value_exit_2(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"level": 1, "values": [0.0, "abc", 1.0]}))
    assert run(["qv", "--in", str(path), "--levels", "1"]) == 2
    assert_one_line_error(capsys)


def test_qv_path_json_with_an_int_beyond_the_float_range_exit_2(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"level": 1, "values": [0, 10**400, 1]}))
    assert run(["qv", "--in", str(path), "--levels", "1"]) == 2
    assert "path values must be finite" in assert_one_line_error(capsys)


def test_file_that_is_not_json_exit_2(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("level: 1, values: 0 1 2\n")
    assert run(["qv", "--in", str(path)]) == 2
    assert_one_line_error(capsys)
    assert run(["solve", "--problem", str(path)]) == 2
    assert_one_line_error(capsys)
    # nesting deeper than the JSON parser's recursion limit
    deep = "[" * 100000 + "]" * 100000
    path.write_text(deep)
    assert run(["qv", "--in", str(path)]) == 2
    assert "not valid JSON" in assert_one_line_error(capsys)
    pfile = tmp_path / "deep.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, "b": 0})[:-1] + ', "b": ' + deep + "}")
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert "not valid JSON" in assert_one_line_error(capsys)


@pytest.mark.parametrize("key, value", [("z0", "abc"), ("z0", None), ("A", True),
                                        ("sigma", 1.5), ("x", ["preset:one"]),
                                        ("z0", True), ("z0", "0.3"), ("z0", "1_000"),
                                        ("Qv", "t")])
def test_solve_problem_bad_value_exit_2(tmp_path, capsys, key, value):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, key: value}))
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("key, value", [("b", "1e999"), ("b", "nan"), ("z0", float("nan")),
                                        ("z0", "1e999"), ("b", "1e999*xi"),
                                        ("b", "exp(1000)"), ("b", "1/0"),
                                        pytest.param("z0", 10**400, id="z0-int-beyond-float")])
def test_solve_problem_non_finite_exit_2(tmp_path, capsys, key, value):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, key: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["solve", "--problem", str(pfile)]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("scheme", [["--scheme", "picard"],
                                    ["--scheme", "tonelli", "--tonelli-n", "64"]],
                         ids=["picard", "tonelli"])
@pytest.mark.parametrize("problem, culprit", [
    ({"sigma": "sqrt1p", "b": "exp(xi^2)", "z0": 3}, "drift b"),
    ({"sigma": "1+0.3*sin(xi)", "b": "exp(xi^2)", "z0": 3}, "drift b"),
    # a drift pole off the sample box, which input checks cannot see
    ({"sigma": "1+0.3*sin(xi)", "b": "1/(xi-7)", "z0": 7}, "drift b"),
    ({"sigma": "1+0.1*exp(xi)", "b": "0", "z0": 700}, "flow"),
    ({"sigma": "1+0.1*exp(xi)", "b": "0", "z0": 720}, "flow"),
    # lag-1 Tonelli flows one point at a time, in Python floats
    ({"sigma": "xi^10", "b": "0", "z0": 3}, "flow"),
    # a negative base to a fractional power is NaN for a point as for a batch
    ({"sigma": "(xi+10)^0.5", "b": "0", "z0": -11}, "flow"),
    # z0 + S(B) overflows: Picard's iterate, then at level 8 lag-4 Tonelli's array blocks
    ({"sigma": "1", "b": "1e308", "z0": 1e308}, "finite"),
    ({"sigma": "1", "b": "1e308", "z0": 1e308, "level": 8}, "z0 + S(B) is not finite"),
    # at level 8 lag-4 Tonelli sums array blocks: b/phi_xi dA overflows in a cell ...
    ({"sigma": "2+cos(xi)", "b": "1.7e308", "z0": 0, "level": 8}, "z0 + S(B) is not finite"),
    # ... or the finite cells of A = 2t overflow in their sum
    ({"sigma": "1", "b": "1.7e308", "z0": 0, "level": 8, "A": 2 * grid_points(8)},
     "z0 + S(B) is not finite"),
], ids=["drift-closed-form", "drift-dp45", "drift-pole", "field-overflow", "field-inf-at-start",
        "float-power", "negative-base-power", "sum-overflow", "sum-overflow-blocks",
        "cell-overflow", "cell-sum-overflow"])
def test_solve_overflow_exit_3_in_one_line(tmp_path, capsys, problem, culprit, scheme):
    if not isinstance(problem.get("A", "t"), str):  # the values of a path file for A
        afile = tmp_path / "A.json"
        afile.write_text(json.dumps({"level": problem["level"], "values": list(problem["A"])}))
        problem = {**problem, "A": str(afile)}
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, **problem}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["solve", "--problem", str(pfile), *scheme]) == 3
    assert culprit in assert_one_line_error(capsys, "numerical failure: ")


def test_solve_analytic_qv_is_the_default_for_a_preset_x(tmp_path, monkeypatch, capsys):
    problem = {k: v for k, v in GOOD_PROBLEM.items() if k != "qv"}
    problem.update({"x": "preset:fig1-left", "level": 8})
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    calls = count_calls(monkeypatch, construct, "predicted_qv")
    loaded, level = ide.read_problem(str(pfile))
    assert calls == [(preset("fig1-left"), "curved", 8)]
    assert np.array_equal(loaded.qv_x.values,
                          predicted_qv(preset("fig1-left"), "curved", 8).values)
    assert run(["solve", "--problem", str(pfile)]) == 0
    out = capsys.readouterr().out
    defect = float(out.split("fixed-point defect ")[1].split(",")[0])
    assert defect <= 1e-10


def test_solve_analytic_qv_needs_a_preset_x(tmp_path, capsys):
    x = tmp_path / "x.csv"
    run(["synth-x", "--preset", "one", "--level", "6", "--out", str(x)])
    capsys.readouterr()
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, "x": str(x), "qv": "analytic"}))
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["synth-x", "--f", "1/t"],
    ["synth-x", "--f", "sqrt(t-1)"],
    ["synth-x", "--f", "exp(1000*t)"],
    ["synth-y", "--f", "1/t"],
    ["synth-y", "--f", "sqrt(t-1)"],
    ["synth-y", "--f", "exp(1000*t)"],
    ["synth-y", "--preset", "one", "--alpha", "sqrt(0-1)"],
    ["synth-y", "--preset", "one", "--alpha", "exp(1000)"],
    ["synth-x", "--f", "1/(t-0.5)"],
    ["synth-y", "--f", "1/(t-0.5)"],
    ["synth-x", "--f", "1/0*t"],
    ["synth-y", "--preset", "one", "--alpha", "1/0"],
])
def test_synth_non_finite_input_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run([*argv, "--level", "6", "--out", str(out)]) == 2
    assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth-y", "--f", "1/(t-0.3)", "--level", "12"],
    ["synth-x", "--f", "1/(t-0.3)", "--level", "13"],
    ["synth-x", "--f", "1/(t-0.31)", "--level", "12"],
])
def test_synth_rows_beyond_the_spot_grid_bound_exit_2(tmp_path, capsys, argv):
    # --f declares its bound on the spot grid; rows nearer the pole exceed it
    out = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out", str(out)]) == 2
    assert "exceeds the declared uniform bound" in assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--z0", "inf"), ("--z1", "nan"), ("--t0", "nan")])
def test_shoot_non_finite_exit_2(capsys, flag, value):
    args = {"--z0": "0", "--z1": "1.0", "--t0": "0.5", flag: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["shoot", "--sigma", "1", "--x", "preset:one", "--level", "6",
                    *[s for kv in args.items() for s in kv]]) == 2
    assert_one_line_error(capsys)


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import pathqv.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


STARTUP_PROBE = """
import contextlib, io, sys

def loaded(stage):
    print(stage, *sorted(m for m in sys.modules if m.split(".")[0] == "pathqv"))

x, y = sys.argv[1:3]
COMMANDS = {
    "--version": ["--version"],
    "cov": ["cov", "--in", x, "--in2", x, "--levels", "6"],
    "qv": ["qv", "--in", x, "--levels", "6"],
    "flow-check": ["flow-check", "--sigma", "sqrt1p"],
    "diagnose": ["diagnose", "--preset", "one", "--t", "0.3", "--n-max", "6"],
    "synth-x": ["synth-x", "--preset", "one", "--level", "6", "--out", y],
    "ito-check": ["ito-check", "--x", x, "--F", "xi^2", "--levels", "6"],
}

import pathqv
loaded("package")
import pathqv.cli
loaded("import")
for stage in sys.argv[3:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert pathqv.cli.main(COMMANDS[stage]) == 0, stage
    loaded(stage)
    if stage == "diagnose":
        print("presets built", len(pathqv.construct._built_presets))
"""


def test_a_cold_command_loads_only_the_modules_it_uses(tmp_path):
    # module sets, not timings: each module a cold process loads is one
    # more source file compiled when bytecode is not cached
    path = tmp_path / "x.csv"
    SampledPath.from_function(lambda t: t, 6).to_csv(path)
    src = Path(__file__).resolve().parents[1] / "src"

    def probe(*stages):  # the commands run one after another in one process
        out = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(path),
                              str(tmp_path / "y.csv"), *stages], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        return dict(line.split(" ", 1) for line in out.splitlines())

    def sets(stages):
        return {stage: set(names.split()) for stage, names in stages.items() if stage != "presets"}

    package = {"pathqv", "pathqv.errors", "pathqv.flow"}
    # the parser checks no preset or scheme name, so it loads no construct
    parser = package | {"pathqv.cli", "pathqv.dyadic"}
    cov = parser | {"pathqv.quadvar"}
    assert sets(probe("--version", "cov", "qv", "flow-check")) == {
        "package": package,
        "import": parser,
        "--version": parser,
        "cov": cov,
        # qv without --predicted and flow-check load no construct either
        "qv": cov,
        "flow-check": cov | {"pathqv.expr"},
    }
    stages = probe("diagnose", "synth-x", "ito-check")
    construct = parser | {"pathqv.construct", "pathqv.schauder"}
    assert sets(stages) == {
        "package": package,
        "import": parser,
        "diagnose": construct,
        # --preset reads no expression, so it loads no expr (--f does)
        "synth-x": construct,
        "ito-check": construct | {"pathqv.expr", "pathqv.follmer"},
    }
    # a preset is built on its first lookup, and only that one
    assert stages["presets"] == "built 1"


def test_missing_input_file_exit_2(tmp_path, capsys):
    assert run(["qv", "--in", str(tmp_path / "missing.csv")]) == 2
    assert_one_line_error(capsys)
    assert run(["solve", "--problem", str(tmp_path / "missing.json")]) == 2
    assert_one_line_error(capsys)


def test_qv_refuses_off_grid_t_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n0.5,0\n0.0,1\n9.0,2\n")
    assert run(["qv", "--in", str(bad), "--levels", "1"]) == 2
    assert_one_line_error(capsys)


def test_shoot_command(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert run(["shoot", "--sigma", "1", "--x", "preset:one", "--z0", "0",
                "--z1", "1.0", "--t0", "0.5", "--level", "8",
                "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "b = " in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,b,z_at_t0"
    assert len(lines) >= 3


def test_shoot_numerical_failure_exit_code(capsys):
    # a target needing |b| beyond the bracket cap must exit 3
    assert run(["shoot", "--sigma", "1", "--x", "preset:one", "--z0", "0",
                "--z1", "1e7", "--t0", "0.5", "--level", "6"]) == 3
    capsys.readouterr()


def test_match_command(tmp_path, capsys):
    target = tmp_path / "target.csv"
    tg = grid_points(8)
    SampledPath(8, np.sin(tg)).to_csv(target)
    out = tmp_path / "drift.csv"
    assert run(["match", "--target", str(target), "--sigma", "1",
                "--x", "preset:one", "--level", "8", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "round-trip sup error" in text
    drift = SampledPath.from_csv(out)
    assert np.max(np.abs(drift.values - np.cos(tg))) <= 1e-4


def test_diagnose_command(tmp_path, capsys):
    out = tmp_path / "diag.csv"
    assert run(["diagnose", "--preset", "one", "--t", "0.0", "--n-max", "10",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,d_n,increment,predicted,sign,hypothesis_met,diverging"
    assert len(lines) == 12
    capsys.readouterr()


def test_figures_command(tmp_path, capsys):
    assert run(["figures", "--out-dir", str(tmp_path), "--level", "8"]) == 0
    for name in ("fig1-left", "fig1-right", "fig2-left", "fig2-right"):
        assert (tmp_path / f"{name}.csv").exists()
    header = (tmp_path / "fig1-left.csv").read_text().splitlines()[0]
    assert header == "t,x,qv7,predicted"
    header2 = (tmp_path / "fig2-left.csv").read_text().splitlines()[0]
    assert header2 == "t,y_alpha_e,y_alpha_10e"
    capsys.readouterr()


@pytest.mark.parametrize("level, code", [(6, 2), (7, 0)])
def test_figures_need_level_7_for_the_qv7_column(tmp_path, capsys, level, code):
    assert run(["figures", "--out-dir", str(tmp_path), "--level", str(level)]) == code
    if code == 2:
        err = assert_one_line_error(capsys)
        assert "--level" in err and "7" in err and "level 7 exceeds" not in err
        assert list(tmp_path.iterdir()) == []
    else:
        assert len(list(tmp_path.iterdir())) == 4
        capsys.readouterr()


def test_figures_read_each_curve_in_one_call(tmp_path, monkeypatch, capsys):
    pred_calls = count_calls(monkeypatch, construct, "predicted_qv")
    read_calls = count_calls(monkeypatch, QVCurve, "value_at")
    assert run(["figures", "--out-dir", str(tmp_path), "--level", "8"]) == 0
    assert pred_calls == [(preset("fig1-left"), "curved", 8),
                          (preset("fig1-right"), "curved", 8)]
    assert len(read_calls) == 2
    t = grid_points(8)
    for name in ("fig1-left", "fig1-right"):
        rows = np.loadtxt(tmp_path / f"{name}.csv", delimiter=",", skiprows=1)
        curve7 = qv_curve(build_x(preset(name), 8), 7)
        assert np.array_equal(rows[:, 0], t)
        assert np.array_equal(rows[:, 2], [curve7.values[int(ti * 2**7)] for ti in t])
        assert np.array_equal(rows[:, 3], predicted_qv(preset(name), "curved", 8).values)
    capsys.readouterr()


def test_synth_constant_f_writes_a_path(tmp_path, capsys):
    # f = 2 evaluates to a scalar; the sequence pads it to one value per point
    ones = {"synth-x": build_x(preset("one"), 6),
            "synth-y": build_y(preset("one"), IrrationalShift(float(np.e)), 6)}
    for cmd, one in ones.items():
        out = tmp_path / f"{cmd}.csv"
        assert run([cmd, "--f", "2", "--level", "6", "--out", str(out)]) == 0
        assert np.array_equal(SampledPath.from_csv(out).values, 2.0 * one.values)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["qv", "--in", "{x8}", "--levels", "6,9"],
    ["cov", "--in", "{x8}", "--in2", "{x10}", "--levels", "6,9"],
    ["ito-check", "--x", "{x8}", "--F", "xi^3", "--levels", "6,9"],
])
def test_levels_are_checked_before_any_output(tmp_path, capsys, argv):
    paths = {"x8": tmp_path / "x8.csv", "x10": tmp_path / "x10.csv"}
    for name, path in paths.items():
        run(["synth-x", "--preset", "fig1-left", "--level", name[1:], "--out", str(path)])
    capsys.readouterr()
    assert run([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_ito_check_reads_a_file_at_its_own_level(tmp_path, capsys):
    # a file is read at its own level, which must reach the finest of --levels
    x10 = tmp_path / "x10.csv"
    run(["synth-x", "--preset", "fig1-left", "--level", "10", "--out", str(x10)])
    capsys.readouterr()
    assert run(["ito-check", "--x", str(x10), "--F", "xi^3", "--levels", "6,8,10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("sigma", ["1/(xi-7)", "xi^0.5", "1+0/0*xi"],
                         ids=["pole", "root", "zero-divisor"])
def test_flow_check_non_finite_derivative_exit_2(capsys, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["flow-check", "--sigma", sigma]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("sigma, name", [("1/(xi-5.00001)", "sigma_xi"),
                                         ("1/(xi-0.00001)", "sigma_xi"),
                                         ("1/(t-1.00001)", "sigma_t")])
def test_flow_check_pole_at_a_difference_point_exit_2(capsys, sigma, name):
    # finite on the sample box, but not at xi or t + 1e-5 of a box point
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["flow-check", "--sigma", sigma]) == 2
    err = assert_one_line_error(capsys)
    assert err == f"error: {name} disagrees with finite differences of sigma\n"


@pytest.mark.parametrize("sigma", ["sinh(40*xi)", "exp(30*xi)", "1+exp(20*xi)"])
def test_flow_check_overflow_exit_3_in_one_line(capsys, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["flow-check", "--sigma", sigma]) == 3
    assert_one_line_error(capsys, "numerical failure: ")


def test_tonelli_defect_reads_no_drift_value_at_t_1(tmp_path, capsys):
    # the Föllmer sums read b at the left points only; exp(z(1)) overflows
    problem = {"sigma": "0", "b": "exp(xi)", "A": "t", "x": "preset:one",
               "z0": 0.9938853766099759, "level": 2, "qv": "t"}
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(problem))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["solve", "--problem", str(pfile), "--scheme", "tonelli",
                    "--tonelli-n", "4"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == ("solved at level 2 (tonelli): fixed-point defect 0.000e+00, "
                   "pathwise-integral defect 0.000e+00\n")


def solve_bz(tmp_path, problem):
    pfile, bout, zout = (tmp_path / n for n in ("problem.json", "B.csv", "z.csv"))
    pfile.write_text(json.dumps(problem))
    assert run(["solve", "--problem", str(pfile), "--out-b", str(bout),
                "--out-z", str(zout)]) == 0
    return bout.read_bytes(), zout.read_bytes()


@pytest.mark.parametrize("name", ["A.csv", "A.json"])
def test_solve_reads_a_driver_file(tmp_path, capsys, name):
    level = GOOD_PROBLEM["level"]
    afile = tmp_path / name
    SampledPath.from_function(lambda t: t, level).to_file(afile)
    want = solve_bz(tmp_path, GOOD_PROBLEM)
    assert solve_bz(tmp_path, {**GOOD_PROBLEM, "A": str(afile)}) == want
    capsys.readouterr()


@pytest.mark.parametrize("name, text", [
    ("A.csv", "time,value\n0,0\n1,1\n"),
    ("A.csv", "t,value\n0,0\n0.5,nan\n1,1\n"),
    ("A.json", '{"level": 1, "values": [0.0, Infinity, 1.0]}'),
    ("A.csv", b"t,value\n0,0\n1,\xff\xfe\n"),
    ("A.json", '{"level": 1, "values": [0, 1' + "0" * 400 + ', 1]}'),
], ids=["csv-header", "csv-nan", "json-inf", "csv-not-utf-8", "json-int-beyond-float"])
def test_solve_bad_driver_file_exit_2(tmp_path, capsys, name, text):
    afile = tmp_path / name
    afile.write_bytes(text if isinstance(text, bytes) else text.encode())
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, "A": str(afile)}))
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("sigma", ["2+cos(xi)", "-xi", "exp(-xi^2/2)", "1+0.5*exp(-xi)",
                                   "xi*(t-t)"])
def test_negated_zero_t_derivative_fields_check_and_solve(tmp_path, capsys, sigma):
    if sigma == "1+0.5*exp(-xi)":
        # e^u = (e^xi + 1/2) e^t - 1/2 reaches 0 at t > -1 on the sample box
        assert run(["flow-check", f"--sigma={sigma}"]) == 3
        assert "underflow" in assert_one_line_error(capsys, "numerical failure: ")
    else:
        assert run(["flow-check", f"--sigma={sigma}"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, "sigma": sigma}))
    assert run(["solve", "--problem", str(pfile)]) == 0
    assert capsys.readouterr().err == ""


def test_solve_empirical_qv_is_the_default_for_a_file_x(tmp_path, monkeypatch, capsys):
    x = tmp_path / "x.csv"
    run(["synth-x", "--preset", "one", "--level", "6", "--out", str(x)])
    problem = {k: v for k, v in GOOD_PROBLEM.items() if k != "qv"}
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**problem, "x": str(x)}))
    loaded, _ = ide.read_problem(str(pfile))
    assert np.array_equal(loaded.qv_x.values, qv_curve(SampledPath.from_csv(x), 6).values)
    capsys.readouterr()
    assert run(["solve", "--problem", str(pfile)]) == 0
    assert capsys.readouterr().out.startswith("solved at level 6 (picard)")


def test_solve_bad_qv_spec_exit_2(tmp_path, capsys):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, "qv": "quadratic"}))
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert "bad qv spec 'quadratic'" in assert_one_line_error(capsys)


@pytest.mark.parametrize("levels, message", [("8,x", "bad --levels '8,x'"),
                                             (",", "--levels is empty"),
                                             ("", "--levels is empty")])
def test_qv_bad_levels_exit_2(tmp_path, capsys, levels, message):
    x = tmp_path / "x.csv"
    run(["synth-x", "--preset", "one", "--level", "8", "--out", str(x)])
    capsys.readouterr()
    assert run(["qv", "--in", str(x), "--levels", levels]) == 2
    assert message in assert_one_line_error(capsys)


def test_x_file_below_the_requested_level_exit_2(tmp_path, capsys):
    x = tmp_path / "x.csv"
    run(["synth-x", "--preset", "one", "--level", "6", "--out", str(x)])
    capsys.readouterr()
    assert run(["shoot", "--sigma", "1", "--x", str(x), "--z0", "0", "--z1", "1",
                "--t0", "0.5", "--level", "8"]) == 2
    assert "level 6 below requested 8" in assert_one_line_error(capsys)


def test_numerical_error_prints_its_defects(tmp_path, monkeypatch, capsys):
    def stall(*args, **kwargs):
        raise cli.NumericalError("Picard iteration stalled", trace=[0.5, 0.25])

    monkeypatch.setattr(ide, "solve_ide", stall)
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(GOOD_PROBLEM))
    assert run(["solve", "--problem", str(pfile)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: Picard iteration stalled",
        "  defect[0] = 5.000000e-01", "  defect[1] = 2.500000e-01"]


@pytest.mark.parametrize("src", ["(" * 300 + "xi" + ")" * 300, "-" * 300 + "xi",
                                 "+".join(["xi"] * 300)], ids=["parentheses", "minus", "sum"])
def test_expression_nested_300_deep_exit_2(tmp_path, capsys, src):
    assert run(["flow-check", f"--sigma={src}"]) == 2
    assert len(assert_one_line_error(capsys)) <= 120
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, "b": src}))
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert len(assert_one_line_error(capsys)) <= 120


@pytest.mark.parametrize("scheme", [["--scheme", "picard"],
                                    ["--scheme", "tonelli", "--tonelli-n", "64"]],
                         ids=["picard", "tonelli-lag-1"])
@pytest.mark.parametrize("problem, culprit", [
    # the drift b = 100 carries B beyond 50 after t = 1/2
    ({"sigma": "far:phi-inf", "b": "100", "z0": 0}, "phi is not finite"),
    ({"sigma": "far:phi-nan", "b": "100", "z0": 0}, "phi is not finite"),
    ({"sigma": "far:d_xi-zero", "b": "100", "z0": 0}, "d_xi <= 0"),
    # sqrt1p at 1e200: phi and d_xi are finite, sigma_xi sigma is not
    ({"sigma": "sqrt1p", "b": "0", "z0": 1e200}, "d_tt"),
], ids=["closed-form-inf", "closed-form-nan", "d_xi-zero", "d_tt-overflow"])
def test_solve_flow_failure_in_a_block_exit_3_in_one_line(tmp_path, monkeypatch, capsys,
                                                           far_breaking_field, problem,
                                                           culprit, scheme):
    resolve = expr.field_from_expression
    monkeypatch.setattr(expr, "field_from_expression", lambda spec: (
        far_breaking_field(spec[4:]) if spec.startswith("far:") else resolve(spec)))
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, **problem}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["solve", "--problem", str(pfile), *scheme]) == 3
    assert culprit in assert_one_line_error(capsys, "numerical failure: ")


def test_solve_non_finite_b_in_a_tonelli_cell_exit_3_in_one_line(tmp_path, capsys):
    # lag-1 Tonelli sums its cells in Python floats, which overflow to inf
    # without a warning; the sum is checked where B takes it
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, "sigma": "1", "b": "1e308", "z0": 1e308}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["solve", "--problem", str(pfile), "--scheme", "tonelli",
                    "--tonelli-n", "64"]) == 3
    assert "z0 + S(B) is not finite" in assert_one_line_error(capsys, "numerical failure: ")


# -- one error path for every argv ---------------------------------------------

@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["solve", "--problem", "p.json", "--tonelli-n", "abc"], "invalid int value: 'abc'"),
    # flags are never abbreviated: --tonelli is not --tonelli-n
    (["solve", "--problem", "p.json", "--tonelli", "8"], "unrecognized arguments: --tonelli 8"),
    (["ito-check", "--x", "preset:one", "--F", "xi^2", "--level", "8"],
     "unrecognized arguments: --level 8"),
    (["cov", "--in", "x.csv", "--in2", "y.csv", "--bogus"], "unrecognized arguments: --bogus"),
    # argparse joins the words it does not know as they are
    (["flow-check", "--sigma", "1", "a\nb"], "unrecognized arguments: a\\nb"),
    # a number flag reads no Python literal syntax: no "_", no spaces
    (["synth-x", "--preset", "one", "--level", "1_0", "--out", "x.csv"],
     "argument --level: invalid int value: '1_0'"),
    (["shoot", "--sigma", "1", "--x", "preset:one", "--z0", "0", "--z1", "0.4", "--t0", "0_5"],
     "argument --t0: invalid float value: '0_5'"),
    (["ito-check", "--x", "preset:one", "--F", "xi^2", "--levels", "8, 1_0"],
     "bad --levels '8, 1_0'"),
])
def test_argv_refused_by_argparse_exit_2_in_one_line(capsys, argv, message):
    assert run(argv) == 2
    assert message in assert_one_line_error(capsys)


@pytest.mark.parametrize("text", ["6", "+6", "-1", "007", "0"])
def test_integer_flags_read_a_sign_and_ascii_digits(text):
    assert cli._integer(text) == int(text)


@pytest.mark.parametrize("text", ["1_0", " 6 ", "6 ", "\t6", "6\n", "", "+", "1.0", "1e3",
                                  "0x10", "\u0663"])
def test_integer_flags_refuse_other_int_syntax(text):
    with pytest.raises(ValueError):
        cli._integer(text)


@pytest.mark.parametrize("text", ["0.5", ".5", "5.", "-5e-1", "+1E+3", "7", "nan", "inf",
                                  "-Infinity", "NaN"])
def test_float_flags_read_decimal_literals(text):
    assert repr(cli._decimal(text)) == repr(float(text))


@pytest.mark.parametrize("text", ["0_5", " 0.5", "0.5 ", "1e", "e5", ".", "1e1_0", "0x1p-1",
                                  "nanx", "in", "\u0663", ""])
def test_float_flags_refuse_other_float_syntax(text):
    with pytest.raises(ValueError):
        cli._decimal(text)


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["solve", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


@pytest.mark.parametrize("argv", [
    ["synth-x", "--preset", "bogus", "--out", "x.csv"],
    ["synth-y", "--preset", "bogus", "--out", "y.csv"],
    ["diagnose", "--preset", "bogus", "--t", "0.3"],
    ["qv", "--in", "{x}", "--levels", "6", "--predicted", "bogus:curved"],
    ["ito-check", "--x", "preset:bogus", "--F", "xi^2", "--levels", "6"],
])
def test_unknown_preset_gets_the_library_line(tmp_path, capsys, argv):
    x = tmp_path / "x.csv"
    build_x(preset("one"), 6).to_csv(x)
    assert run([a.format(x=x) for a in argv]) == 2
    err = assert_one_line_error(capsys)
    assert err == f"error: unknown preset 'bogus'; available: {', '.join(construct.PRESETS)}\n"


def test_unknown_scheme_gets_the_library_line(tmp_path, capsys):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(GOOD_PROBLEM))
    assert run(["solve", "--problem", str(pfile), "--scheme", "bogus"]) == 2
    assert assert_one_line_error(capsys) == (
        "error: scheme must be 'picard' or 'tonelli', got 'bogus'\n")


def test_ito_check_default_levels_on_a_preset_and_a_level_12_file(tmp_path, capsys):
    # a preset x is built at the finest of --levels (default 8,10,12), and
    # build_x(f, L).restrict(n) is build_x(f, n), so the residuals are those
    # of any higher synthesis level
    x12 = tmp_path / "x12.csv"
    build_x(preset("fig1-left"), 12).to_csv(x12)
    assert run(["ito-check", "--x", "preset:fig1-left", "--F", "xi^2"]) == 0
    from_preset = capsys.readouterr().out
    assert run(["ito-check", "--x", str(x12), "--F", "xi^2"]) == 0
    assert capsys.readouterr().out == from_preset
    assert [line.split(" level ")[1].split(":")[0] for line in from_preset.splitlines()] == [
        "8", "10", "12"]
    assert run(["ito-check", "--x", "preset:fig1-left", "--F", "xi^2",
                "--levels", "8,10,12,14"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == from_preset.splitlines()


def test_synth_without_preset_or_f_exit_2(tmp_path, capsys):
    assert run(["synth-x", "--level", "6", "--out", str(tmp_path / "x.csv")]) == 2
    assert assert_one_line_error(capsys) == "error: need --preset or --f\n"
    assert not (tmp_path / "x.csv").exists()


def test_diagnose_without_out_prints_the_table(tmp_path, capsys):
    out = tmp_path / "diag.csv"
    assert run(["diagnose", "--preset", "one", "--t", "0.3", "--n-max", "6",
                "--out", str(out)]) == 0
    written = capsys.readouterr().out.splitlines()
    assert run(["diagnose", "--preset", "one", "--t", "0.3", "--n-max", "6"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == out.read_text().splitlines() + written[1:]


def test_module_entry_point_runs_in_a_process():
    src = Path(__file__).resolve().parents[1] / "src"

    def cli_process(*argv):
        return subprocess.run([sys.executable, "-m", "pathqv.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})

    version = cli_process("--version")
    assert (version.returncode, version.stdout.split()[0], version.stderr) == (0, "pathqv", "")
    refused = cli_process("solve", "--tonelli", "8")
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.startswith("error: ") and refused.stderr.count("\n") == 1
    assert "usage:" not in refused.stderr and "Traceback" not in refused.stderr


# argv fuzzing: every command with its flags, an unknown word or flag, a
# prefix of a real flag, and values that are valid or malformed; {name}
# stands for a file in the test's directory

_MALFORMED = ["", "x", "nan", "1e999", "-1", "21", "1_0", " 6 ", "0_5", "**", "{missing}",
              "a\nb"]
# valid values, by kind of flag
_VALID = {
    "level": ["4", "5", "6", "7", "8"],
    "levels": ["4", "6", "8", "4,6", "8,6"],
    "preset": list(construct.PRESETS),
    "expr": ["sqrt1p", "1+0.3*sin(xi)", "xi^2", "e", "0.5"],
    "number": ["0", "0.25", "0.5"],
    "path": ["{x}", "{x_json}", "{b}"],
    "x": ["preset:one", "preset:fig1-left", "{x}"],
    "problem": ["{problem}"],
    "scheme": ["picard", "tonelli"],
    "predicted": ["one", "fig1-left:curved", "one:linear"],
    "out": ["{out}"],
    "dir": ["{dir}"],
}
_KINDS = {"--level": "level", "--levels": "levels", "--n-max": "level", "--tonelli-n": "level",
          "--preset": "preset", "--f": "expr", "--F": "expr", "--sigma": "expr",
          "--alpha": "expr", "--t": "number", "--z0": "number", "--z1": "number",
          "--t0": "number", "--in": "path", "--in2": "path", "--eta": "path",
          "--target": "path", "--x": "x", "--problem": "problem", "--scheme": "scheme",
          "--predicted": "predicted", "--out": "out", "--out-b": "out", "--out-z": "out",
          "--trace": "out", "--out-dir": "dir"}


def _command_flags():
    """Each subcommand's flags, read from the parser itself, as (flag, required)."""
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return {name: [(a.option_strings[0], a.required) for a in sp._actions
                   if a.option_strings and a.option_strings[0] in _KINDS]
            for name, sp in sub.choices.items()}


_FLAGS = _command_flags()


@st.composite
def _argvs(draw):
    def one_in(n):
        return draw(st.integers(0, n - 1)) == 0

    command = draw(st.sampled_from(list(_FLAGS))) if not one_in(10) else draw(
        st.sampled_from(["frobnicate", None]))
    flags = [f for f, _ in _FLAGS.get(command, [])]
    # a required flag is left out one time in twelve and an optional one in
    # two; a level flag is always given, as its default (up to 12) exceeds 8
    chosen = [f for f, required in _FLAGS.get(command, [])
              if f in ("--level", "--levels") or not one_in(12 if required else 2)]
    long_flags = [f for f in flags if len(f) > 3]
    if long_flags and one_in(8):
        flag = draw(st.sampled_from(long_flags))
        prefix = flag[:draw(st.integers(3, len(flag) - 1))]
        if prefix not in flags:
            chosen.append(prefix)
    if one_in(8):
        chosen.append("--bogus")
    words = [command] if command else []
    for flag in draw(st.permutations(chosen)):
        kind = next((_KINDS[f] for f in flags if f.startswith(flag)), "number")
        if not one_in(10):
            words += [flag, draw(st.sampled_from(_VALID[kind]))]
        else:
            words += [flag, draw(st.sampled_from(_MALFORMED))]
    if words and one_in(20):
        words.pop()  # a flag left without its value
    return words


@pytest.fixture
def argv_files(tmp_path):
    x = build_x(preset("fig1-left"), 8)
    files = {"x": tmp_path / "x.csv", "x_json": tmp_path / "x.json", "b": tmp_path / "b.csv",
             "problem": tmp_path / "problem.json", "missing": tmp_path / "missing.csv",
             "out": tmp_path / "out.csv", "dir": tmp_path}
    x.to_csv(files["x"])
    x.to_json(files["x_json"])
    SampledPath.from_function(lambda t: 0.3 * np.cos(t), 8).to_csv(files["b"])
    files["problem"].write_text(json.dumps({**GOOD_PROBLEM, "level": 8}))
    return files


@pytest.fixture
def checked_run(argv_files, monkeypatch, capsys):
    """Runs main(argv) with warnings as errors, checks its exit code and
    stderr against the rule for that code, checks that no path above level
    8 was synthesized, and returns the exit code."""
    monkeypatch.chdir(argv_files["dir"])  # where a malformed --out such as "x" is written
    synthesized = []
    for name in ("build_x", "build_y"):
        def guarded(*args, build=getattr(construct, name)):
            path = build(*args)
            synthesized.append(path.level)
            return path
        monkeypatch.setattr(construct, name, guarded)

    def checked(argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([a.format(**argv_files) for a in argv])
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert code in (0, 2, 3)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        if code == 3:
            assert lines[0].startswith("numerical failure: ")
            assert all(line.startswith("  defect[") for line in lines[1:])
        assert "Traceback" not in err
        assert max(synthesized, default=0) <= 8
        return code

    return checked


@pytest.mark.parametrize("argv", [
    ["--bogus"], ["synth-x"],
    ["synth-x", "--level", "x", "--out", "{out}"],
    ["synth-x", "--preset", "one", "--level", "21", "--out", "{out}"],
    ["synth-x", "--preset", "one", "--lev", "6", "--out", "{out}"],
    ["synth-y", "--preset", "one", "--alpha", "nan", "--level", "6", "--out", "{out}"],
    ["synth-y", "--f", "**", "--level", "6", "--out", "{out}"],
    ["qv", "--in", "{missing}"],
    ["qv", "--in", "{x}", "--levels", "1e999"],
    ["qv", "--in", "{x}", "--levels", "6", "--predicted", "one:bogus"],
    ["cov", "--in", "{x}"],
    ["integrate", "--eta", "{x}", "--x", "{x}", "--t", "x"],
    ["ito-check", "--x", "preset:one", "--F", "", "--levels", "6"],
    ["ito-check", "--x", "{x}", "--F", "xi^2"],
    ["flow-check", "--sigma", "nan"],
    ["flow-check", "--sigma"],
    ["solve", "--problem", "{x}"],
    ["solve", "--problem", "{problem}", "--tonelli-n", "1e999"],
    ["solve", "--problem", "{problem}", "--scheme", "tonelli", "--tonelli-n", "3"],
    ["shoot", "--sigma", "sqrt1p", "--x", "preset:one", "--z0", "0", "--z1", "1e999",
     "--t0", "0.5", "--level", "6"],
    ["match", "--target", "{missing}", "--sigma", "1", "--x", "preset:one", "--level", "6",
     "--out", "{out}"],
    ["diagnose", "--preset", "one", "--t", "nan"],
    ["figures", "--out-dir", "{dir}", "--level", "-1"],
    ["synth-x", "--preset", "one", "--level", "1_0", "--out", "{out}"],
    ["synth-y", "--preset", "one", "--level", " 6 ", "--out", "{out}"],
    ["qv", "--in", "{x}", "--levels", "6, 1_0"],
    ["diagnose", "--preset", "one", "--t", "0.5", "--n-max", "1_0"],
    ["shoot", "--sigma", "1", "--x", "preset:one", "--z0", "0", "--z1", "0.4", "--t0", "0_5",
     "--level", "6"],
])
def test_malformed_argv_exit_2_in_one_line(checked_run, argv):
    assert checked_run(argv) == 2


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_any_argv_exits_0_2_or_3_with_the_stderr_of_its_code(checked_run, argv):
    checked_run(argv)
