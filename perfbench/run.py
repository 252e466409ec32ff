"""Benchmark of pathqv, end to end and layer by layer.

    python3 perfbench/run.py --workload {solve,cli} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the library is imported from its src/.
One client issues one operation at a time (a closed loop) and repeats the
workload's fixed set of operations, a round, until --seconds have passed.
Every output is checked; the last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run alternates untraced and
traced rounds and reports the per-layer figures and the tracing overhead.
The exit code is 1 when any check failed and 2 when the checkout holds no
pathqv sources.  Spans are written to perfbench/out/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import metrics  # noqa: E402
import tracer as tr  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 66.0, 50.0)
# Rounds every untraced run completes, so that the tail percentile below has
# at least ten operations beyond it whatever the machine's speed.
MIN_ROUNDS = {"solve": 5, "cli": 3}
CHILD_TIMEOUT = 170
CLI_ENTRY = "import sys; from pathqv.cli import main; sys.exit(main())"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def timed_child(argv):
    """Run a fresh interpreter; return (seconds, exit code, stdout)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    return perf_counter() - t0, proc.returncode, proc.stdout


def tail_percentile(n_ops):
    """Highest ladder percentile with at least ten operations beyond it."""
    for p in TAIL_LADDER:
        if n_ops - math.ceil(p / 100.0 * n_ops) >= 10:
            return p
    return 50.0


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class Context:
    """What an operation may use: field wrapping and a CLI runner.

    The CLI runs as a fresh process, or in-process through pathqv.cli.main
    when ``in_process_cli`` is set (traced runs of the cli workload).
    """

    def __init__(self, tracer, in_process_cli):
        self.tracer = tracer
        self.traced = False
        self.in_process_cli = in_process_cli

    def field(self, field, is_expr=False):
        return tr.wrap_field(self.tracer, field, is_expr) if self.traced else field

    def cli(self, argv):
        if not self.in_process_cli:
            _, code, out = timed_child(["-c", CLI_ENTRY, *argv])
            return code, out
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = importlib.import_module("pathqv.cli").main(argv)
        return code, out.getvalue()


class Runner:
    """Issues a round's operations one at a time and keeps the tally."""

    def __init__(self, ctx, ops, workdir):
        self.tracer = ctx.tracer
        self.ctx = ctx
        self.ops = ops
        self.state = {"workdir": str(workdir)}
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def round(self, segment):
        """Run every operation once; return the latencies (checks untimed)."""
        latencies = []
        self.tracer.segment = segment
        for k, op in enumerate(self.ops):
            self.tracer.op = k
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = op.run(self.ctx, self.state)
            except Exception as exc:  # a raised error is a failed operation
                latencies.append(perf_counter() - t0)
                self.failures.append((op.name, f"{type(exc).__name__}: {exc}"))
                continue
            latencies.append(perf_counter() - t0)
            self.tracer.paused = True
            try:
                fp = op.check(result, self.state)
            except Exception as exc:  # a missed check is a failed operation
                self.failures.append((op.name, f"{type(exc).__name__}: {exc}"))
            else:
                if self.reference.setdefault(op.name, fp) != fp:
                    self.failures.append((op.name, "output differs from the first round"))
            finally:
                self.tracer.paused = False
        self.tracer.op = -1
        return latencies


def setup_probes(workload, seed, digest):
    times = []
    for _ in range(SETUP_PROBES):
        dt, code, out = timed_child([str(HERE / "probe.py"), "setup", workload, str(seed)])
        if code != 0 or out.strip() != digest:
            raise RuntimeError(f"setup probe exited {code} with digest {out.strip()!r}, "
                               f"expected {digest}")
        times.append(dt)
    return times


def coefficients_y_l20():
    """Seconds for the level-20 coefficients of Figure 2 (left, alpha = e)."""
    import pathqv as P

    t0 = perf_counter()
    P.coefficients_y(P.preset("fig2-left"), P.IrrationalShift(math.e), 20)
    return perf_counter() - t0


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(args):
    import workloads

    tracer = tr.Tracer()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        traced = bool(args.trace)
        with (tr.tracing(tracer) if traced else contextlib.nullcontext()):
            tracer.segment = 0
            inputs = workloads.build_inputs(args.workload, args.seed)
            tracer.segment = -1
        digest = workloads.inputs_digest(inputs)
        if "problem" in inputs:
            (workdir / "problem.json").write_text(json.dumps(inputs["problem"]))
        ops = workloads.operations(args.workload, inputs)
        ctx = Context(tracer, in_process_cli=traced and args.workload == "cli")
        runner = Runner(ctx, ops, workdir)
        if traced:
            result = traced_rounds(args, runner)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            result = untraced_rounds(args, runner, digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, why in runner.failures:
        print(f"FAILED {name}: {why}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _result(runner, metrics_out):
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics_out}


def untraced_rounds(args, runner, digest):
    setup = setup_probes(args.workload, args.seed, digest)
    walls, lats, per_op = [], [], []
    t_start = perf_counter()
    min_rounds = MIN_ROUNDS[args.workload]
    while True:
        lat = runner.round(len(walls))
        walls.append(sum(lat))
        lats.extend(lat)
        per_op.append(lat)
        elapsed = perf_counter() - t_start
        if len(walls) >= min_rounds and elapsed * (1 + 1 / len(walls)) > args.seconds:
            break
    pct = tail_percentile(min_rounds * len(runner.ops))
    failed = len(runner.failures)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(lats),
        "op_tail_s": nearest_rank(lats, pct),
        "peak_rss_mb": peak_rss_mb(),
        "ok_rate": (runner.attempted - failed) / runner.attempted,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} rounds of "
          f"{len(runner.ops)} operations in {perf_counter() - t_start:.1f} s; "
          f"one client, closed loop")
    print(f"op_tail_s is the p{pct:g} latency of {len(lats)} operations; "
          f"setup_s is the median of {len(setup)} fresh processes")
    for op, op_lats in zip(runner.ops, zip(*per_op)):
        print(f"  median {statistics.median(op_lats):9.4f} s  {op.name}")
    for name, value in values.items():
        print(f"  {name:12s} {value:12.6g} {metrics.END_TO_END[name][0]}")
    print(f"  {'fail_rate':12s} {failed / runner.attempted:12.6g} ratio")
    return _result(runner, {name: {"value": value, "unit": metrics.END_TO_END[name][0]}
                            for name, value in values.items()})


def traced_rounds(args, runner):
    ctx = runner.ctx
    walls = {False: [], True: []}
    figures = []
    probes = {"cli.import_s": [], "baseline.cli_version_s": [],
              "baseline.coefficients_y_l20_s": []}
    t_start = perf_counter()
    segment = 1
    while True:
        for traced in (False, True):
            ctx.traced = traced
            with (tr.tracing(runner.tracer) if traced else contextlib.nullcontext()):
                walls[traced].append(sum(runner.round(segment)))
            if traced:
                figures.append(tr.layer_figures(
                    runner.tracer.spans, runner.tracer.segment_spans(0, segment),
                    {k: op.tags for k, op in enumerate(runner.ops)}))
            segment += 1
        ctx.traced = False
        if args.workload == "cli":
            dt, code, out = timed_child([str(HERE / "probe.py"), "import-cli"])
            if code == 0:
                probes["cli.import_s"].append(float(out))
            dt, code, out = timed_child(["-c", CLI_ENTRY, "--version"])
            if code == 0:
                probes["baseline.cli_version_s"].append(dt)
            else:
                runner.failures.append(("cold --version", f"exit code {code}"))
            probes["baseline.coefficients_y_l20_s"].append(coefficients_y_l20())
        elapsed = perf_counter() - t_start
        if elapsed * (1 + 1 / len(figures)) > args.seconds:
            break
    values = {}
    for name in metrics.PER_LAYER:
        if name in metrics.EXACT_COUNTERS:
            values[name] = figures[0].get(name, 0)
        elif name in probes:
            values[name] = statistics.median(probes[name]) if probes[name] else 0.0
        elif name == "trace.overhead_s":
            values[name] = statistics.median(walls[True]) - statistics.median(walls[False])
        else:
            values[name] = statistics.median(f[name] for f in figures)
    print(f"workload {args.workload} seed {args.seed}: {len(figures)} untraced and "
          f"{len(figures)} traced rounds; figures cover set-up plus one round")
    print(f"  untraced wall_s {statistics.median(walls[False]):.6g} s, traced "
          f"{statistics.median(walls[True]):.6g} s; no layer has a waiting time "
          "(one thread, no queues)")
    for name, value in values.items():
        unit, _, moves = metrics.PER_LAYER[name]
        print(f"  {name:34s} {value:14.6g} {unit:6s} -> {moves}")
    return _result(runner, {name: {"value": value, "unit": metrics.PER_LAYER[name][0]}
                            for name, value in values.items()})


def run_all(args):
    """Run every workload in turn and print its metrics as a table."""
    import workloads

    ok = True
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        ok = ok and proc.returncode == 0 and result is not None and result["correct"]
        results[name] = result
        if result is None:
            print(f"{name}: exit {proc.returncode}, no result")
            continue
        print(f"{name}: exit {proc.returncode}, {result['failed']} of "
              f"{result['attempted']} operations failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
        if not args.trace:
            print(f"  {'fail_rate':34s} {result['failed'] / result['attempted']:14.6g} ratio")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "cli", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pathqv" / "__init__.py").is_file():
        print(f"error: no pathqv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pathqv

    if not Path(pathqv.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: pathqv was imported from {pathqv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
