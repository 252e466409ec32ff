"""Metric definitions shared by the runner, the tests and BENCHMARK.json.

Each per-layer metric names the end-to-end metric and workload it is
expected to move.  pathqv is single-threaded and has no queues, so no layer
has a waiting time and none is reported.
"""

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "op_p50_s": ("s", "lower", 0.25),
    "op_tail_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ok_rate": ("ratio", "higher", 0.01),
}

# name -> (unit, better, what it should move)
PER_LAYER = {
    "dyadic.io_s": ("s", "lower", "op_p50_s on cli"),
    "dyadic.io_bytes": ("bytes", "lower", "op_p50_s on cli"),
    "schauder.busy_s": ("s", "lower", "wall_s on cli"),
    "schauder.points": ("count", "lower", "wall_s on cli"),
    "construct.busy_s": ("s", "lower", "wall_s on cli; setup_s on solve"),
    "construct.coeffs": ("count", "lower", "wall_s on cli; setup_s on solve"),
    "construct.predicted_qv_calls": ("count", "lower", "wall_s on cli"),
    "quadvar.busy_s": ("s", "lower", "wall_s on cli"),
    "quadvar.calls": ("count", "lower", "wall_s on cli"),
    "follmer.busy_s": ("s", "lower", "wall_s on cli"),
    "flow.calls": ("count", "lower", "wall_s on solve and cli"),
    "flow.points": ("count", "lower", "wall_s on solve and cli"),
    "flow.busy_s": ("s", "lower", "wall_s on solve (large batches) and cli (shooting)"),
    "flow.self_s": ("s", "lower", "wall_s on solve (large batches) and cli (shooting)"),
    "flow.rhs_points": ("count", "lower", "wall_s on solve and cli"),
    "flow.rhs_per_point": ("count", "lower", "wall_s on solve and cli"),
    "ide.solves": ("count", "lower", "wall_s on solve"),
    "ide.busy_s": ("s", "lower", "wall_s on solve"),
    "ide.self_s": ("s", "lower", "wall_s on solve"),
    "ide.flow_calls_per_solve": ("count", "lower", "wall_s on solve"),
    "support.shoots": ("count", "lower", "wall_s on cli"),
    "support.busy_s": ("s", "lower", "wall_s on cli"),
    "support.self_s": ("s", "lower", "wall_s on cli"),
    "support.hits_per_shoot": ("count", "lower", "wall_s on cli"),
    "expr.parse_s": ("s", "lower", "wall_s on solve and cli"),
    "expr.eval_s": ("s", "lower", "wall_s on solve"),
    "cli.import_s": ("s", "lower", "op_p50_s on cli"),
    "cli.main_s": ("s", "lower", "op_p50_s on cli"),
    "trace.spans": ("count", "lower", "nothing: size of the trace"),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced wall_s"),
    "baseline.flow_rhs_per_point_4097": ("count", "lower", "wall_s on solve"),
    "baseline.picard_sweeps_l12": ("count", "lower", "wall_s on solve"),
    "baseline.picard_sweeps_l16": ("count", "lower", "wall_s on solve"),
    "baseline.coefficients_y_l20_s": ("s", "lower", "construct's share of wall_s on cli"),
    "baseline.cli_version_s": ("s", "lower", "op_p50_s on cli"),
}

# Counters that must repeat bit for bit across traced runs with one seed.
EXACT_COUNTERS = (
    "flow.calls", "flow.points", "flow.rhs_points", "flow.rhs_per_point",
    "ide.solves", "ide.flow_calls_per_solve",
    "support.shoots", "support.hits_per_shoot",
    "schauder.points", "construct.coeffs", "construct.predicted_qv_calls",
    "quadvar.calls", "dyadic.io_bytes", "trace.spans",
    "baseline.flow_rhs_per_point_4097",
    "baseline.picard_sweeps_l12", "baseline.picard_sweeps_l16",
)
