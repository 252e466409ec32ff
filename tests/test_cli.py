import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pathqv.cli as cli
from pathqv import (IrrationalShift, QVCurve, SampledPath, build_x, build_y, cov_curve,
                    grid_points, predicted_qv, preset, qv_curve)
from pathqv.cli import main


def run(args):
    return main(args)


def test_unknown_subcommand_usage_exit(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag():
    assert run(["synth-x", "--level", "8"]) == 2


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
    calls = count_calls(monkeypatch, cli, "predicted_qv")
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
        assert run(["ito-check", "--x", "preset:one", "--F", "1/xi", "--levels", "8",
                    "--level", "8"]) == 2
    assert_one_line_error(capsys)


def test_ito_check_command(capsys):
    assert run(["ito-check", "--x", "preset:fig1-left", "--F", "xi^2",
                "--levels", "8,10", "--level", "10"]) == 0
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
    monkeypatch.setattr(cli, "_resolve_field", lambda spec: wrong)
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


def test_file_that_is_not_json_exit_2(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("level: 1, values: 0 1 2\n")
    assert run(["qv", "--in", str(path)]) == 2
    assert_one_line_error(capsys)
    assert run(["solve", "--problem", str(path)]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("key, value", [("z0", "abc"), ("z0", None), ("A", True),
                                        ("sigma", 1.5), ("x", ["preset:one"])])
def test_solve_problem_bad_value_exit_2(tmp_path, capsys, key, value):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, key: value}))
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("key, value", [("b", "1e999"), ("b", "nan"), ("z0", float("nan")),
                                        ("z0", "1e999"), ("b", "1e999*xi"),
                                        ("b", "exp(1000)")])
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
], ids=["drift-closed-form", "drift-dp45", "drift-pole", "field-overflow", "field-inf-at-start",
        "float-power"])
def test_solve_overflow_exit_3_in_one_line(tmp_path, capsys, problem, culprit, scheme):
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
    calls = count_calls(monkeypatch, cli, "predicted_qv")
    loaded, level = cli._load_problem(str(pfile))
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


def test_figures_read_each_curve_in_one_call(tmp_path, monkeypatch, capsys):
    pred_calls = count_calls(monkeypatch, cli, "predicted_qv")
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
    ["ito-check", "--x", "preset:fig1-left", "--F", "xi^3", "--levels", "8,12,14"],
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
    # --level (default 12) is the synthesis level of a preset, not a file's
    x10 = tmp_path / "x10.csv"
    run(["synth-x", "--preset", "fig1-left", "--level", "10", "--out", str(x10)])
    capsys.readouterr()
    assert run(["ito-check", "--x", str(x10), "--F", "xi^3", "--levels", "6,8,10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("sigma", ["1/(xi-7)", "xi^0.5"], ids=["pole", "root"])
def test_flow_check_non_finite_derivative_exit_2(capsys, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["flow-check", "--sigma", sigma]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("sigma", ["sinh(40*xi)", "exp(30*xi)", "1+exp(20*xi)"])
def test_flow_check_overflow_exit_3_in_one_line(capsys, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["flow-check", "--sigma", sigma]) == 3
    assert_one_line_error(capsys, "numerical failure: ")


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
], ids=["csv-header", "csv-nan", "json-inf"])
def test_solve_bad_driver_file_exit_2(tmp_path, capsys, name, text):
    afile = tmp_path / name
    afile.write_text(text)
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({**GOOD_PROBLEM, "A": str(afile)}))
    assert run(["solve", "--problem", str(pfile)]) == 2
    assert_one_line_error(capsys)
