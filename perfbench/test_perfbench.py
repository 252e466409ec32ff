"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They run the benchmark in subprocesses (about two minutes in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The work counters named for the exact-repeat check; each must be nonzero on
# at least one workload so that the check means something.
KEY_COUNTERS = ("flow.rhs_points", "flow.calls", "ide.flow_calls_per_solve",
                "support.hits_per_shoot")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in metrics.PER_LAYER.items()}
    assert max(m["bound"] for m in doc["end_to_end"]) == metrics.END_TO_END["setup_s"][2]
    assert set(metrics.EXACT_COUNTERS) <= set(metrics.PER_LAYER)


class _NullTracer:
    paused = False
    op = segment = -1


def test_a_missed_check_counts_as_a_failure():
    def fail(result, state):
        raise workloads.CheckFailed("off by a lot")

    ops = [workloads.Op("good", lambda ctx, st: 1, lambda r, st: "fp"),
           workloads.Op("bad", lambda ctx, st: 1, fail),
           workloads.Op("raises", lambda ctx, st: 1 / 0, lambda r, st: "fp")]
    runner = run.Runner(run.Context(_NullTracer(), False), ops, ".")
    assert len(runner.round(0)) == 3
    assert runner.attempted == 3
    assert [name for name, _ in runner.failures] == ["bad", "raises"]


def test_seed_alone_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.inputs_digest(workloads.build_inputs(name, 5))
        assert a == workloads.inputs_digest(workloads.build_inputs(name, 5))
        assert a != workloads.inputs_digest(workloads.build_inputs(name, 6))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_across_traced_runs(workload):
    runs = []
    for _ in range(2):
        code, lines = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "1")
        assert code == 0, lines[-5:]
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(metrics.PER_LAYER)
        runs.append(result["metrics"])
    for name in metrics.EXACT_COUNTERS:
        assert runs[0][name] == runs[1][name], name
    nonzero = [n for n in KEY_COUNTERS if runs[0][n]["value"]]
    assert len(nonzero) >= 3, nonzero


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    code, lines = _bench("--workload", "solve", "--seed", "1", "--seconds", "1",
                         cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
