"""Spans around the public functions of each pathqv module.

``tracing(tracer)`` replaces every public function of the pathqv modules,
in every namespace that holds it, by a wrapper that records a span, and
restores the originals on exit.  The program itself is not changed.  Field
callables that the benchmark builds are wrapped by ``wrap_field``: their
time and element counts are charged to the innermost open span, which keeps
the trace small on the scalar flow path.

A span is a list [name, start, end, parent, op, segment, field_s, expr_s,
sigma_points, work]; ``work`` holds points for flow solves and synthesis,
coefficients for construction and bytes for file I/O.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, SEGMENT, FIELD_S, EXPR_S, SIGMA, WORK = range(10)

LAYERS = ("dyadic", "schauder", "construct", "quadvar", "follmer",
          "flow", "ide", "support", "expr", "cli")

FLOW_SOLVES = {"flow.flow", "flow.flow_with_derivatives", "flow.flow_derivatives"}
IDE_SOLVES = {"ide.solve_ide", "ide.solve_B"}
SHOOTS = {"support.shoot_constant_b"}
IO_METHODS = ("to_csv", "to_json", "from_csv", "from_json", "from_file")
IO_PREFIX = "dyadic.SampledPath."


class Tracer:
    """In-memory span store; one client thread, so one stack.

    While ``paused`` (the benchmark's own checks run), nothing is recorded.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.segment = -1
        self.paused = False

    def open(self, name):
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op,
                           self.segment, 0.0, 0.0, 0, 0])
        self.stack.append(i)
        return i

    def close(self, i):
        self.spans[i][END] = perf_counter()
        self.stack.pop()

    def charge_field(self, seconds, is_expr, points):
        if self.stack and not self.paused:
            span = self.spans[self.stack[-1]]
            span[FIELD_S] += seconds
            if is_expr:
                span[EXPR_S] += seconds
            span[SIGMA] += points

    def segment_spans(self, *segments):
        return [i for i, s in enumerate(self.spans) if s[SEGMENT] in segments]

    def write(self, path):
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "parent", "op", "segment",
                "field_s", "expr_s", "sigma_points", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _file_size(path):
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _work(name, args, result):
    if name in FLOW_SOLVES:
        return int(np.broadcast(*args[1:4]).size)
    if name == "schauder.synthesize":
        return int(result.values.size)
    if name == "schauder.analyze":
        return int(args[0].values.size)
    if name in ("construct.coefficients_x", "construct.coefficients_y"):
        return sum(int(row.size) for row in result.theta)
    if name.startswith(IO_PREFIX):
        return _file_size(args[1])
    return 0


def _wrap(tracer, name, fn):
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            tracer.spans[i][WORK] = _work(name, args, result)
            return result
        finally:
            tracer.close(i)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def tracing(tracer):
    """Record spans for every public pathqv function while the block runs."""
    package = importlib.import_module("pathqv")
    modules = {layer: importlib.import_module(f"pathqv.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                wrappers[fn] = _wrap(tracer, f"{layer}.{name}", fn)
    restore = []
    for ns in [vars(package)] + [vars(m) for m in modules.values()]:
        for name, value in list(ns.items()):
            if inspect.isfunction(value) and value in wrappers:
                restore.append((ns, name, value))
                ns[name] = wrappers[value]
    sampled_path = modules["dyadic"].SampledPath
    saved = {m: sampled_path.__dict__[m] for m in IO_METHODS}
    for m, desc in saved.items():
        label = IO_PREFIX + m
        if isinstance(desc, classmethod):
            setattr(sampled_path, m, classmethod(_wrap(tracer, label, desc.__func__)))
        else:
            setattr(sampled_path, m, _wrap(tracer, label, desc))
    try:
        yield tracer
    finally:
        for ns, name, value in restore:
            ns[name] = value
        for m, desc in saved.items():
            setattr(sampled_path, m, desc)


def _timed_callable(tracer, fn, is_expr, count_points):
    def call(t, xi):
        t0 = perf_counter()
        out = fn(t, xi)
        dt = perf_counter() - t0
        tracer.charge_field(dt, is_expr, np.broadcast(t, xi).size if count_points else 0)
        return out

    return call


def wrap_field(tracer, field, is_expr):
    """A copy of ``field`` whose callables charge their time to the open span.

    Only sigma counts points, so ``SIGMA`` is the number of sigma values
    evaluated element by element.
    """
    wrapped = copy.copy(field)
    for attr in ("sigma", "sigma_t", "sigma_xi"):
        fn = _timed_callable(tracer, getattr(field, attr), is_expr, attr == "sigma")
        object.__setattr__(wrapped, attr, fn)
    return wrapped


# -- per-layer figures ---------------------------------------------------------

def _flags(spans, indices):
    """For each span: the set of span names and layers among its ancestors."""
    anc = {}
    for i in indices:
        p = spans[i][PARENT]
        if p < 0 or p not in anc:
            anc[i] = frozenset()
        else:
            pname = spans[p][NAME]
            anc[i] = anc[p] | {pname, pname.split(".")[0]}
    return anc


def layer_figures(spans, indices, op_tags):
    """Per-layer busy/self times and work counters over the given spans.

    A layer's busy time sums its spans that have no ancestor in the same
    layer; its self time sums span time minus child spans and minus time in
    wrapped field callables.  ``op_tags`` maps an op index to the tags that
    select the baseline figures.
    """
    anc = _flags(spans, indices)
    child_s = dict.fromkeys(indices, 0.0)
    for i in indices:
        p = spans[i][PARENT]
        if p in child_s:
            child_s[p] += spans[i][END] - spans[i][START]
    busy = Counter()
    self_s = Counter()
    c = Counter()
    op_solves = Counter()
    op_solve_flows = Counter()
    probe = Counter()
    for i in indices:
        s = spans[i]
        name = s[NAME]
        layer = name.split(".")[0]
        dur = s[END] - s[START]
        above = anc[i]
        if layer not in above:
            busy[layer] += dur
            c[layer + ".calls"] += 1
        self_s[layer] += dur - child_s[i] - s[FIELD_S]
        c["expr_eval_s"] += s[EXPR_S]
        in_flow = bool(above & FLOW_SOLVES)
        if name in FLOW_SOLVES and not in_flow:
            c["flow_calls"] += 1
            c["flow_points"] += s[WORK]
            if above & IDE_SOLVES:
                c["solve_flows"] += 1
                op_solve_flows[s[OP]] += 1
            if op_tags.get(s[OP], {}).get("rhs_probe"):
                probe["points"] += s[WORK]
        if name in FLOW_SOLVES or in_flow:
            c["rhs_points"] += s[SIGMA]
            if op_tags.get(s[OP], {}).get("rhs_probe"):
                probe["rhs"] += s[SIGMA]
        if name in IDE_SOLVES and not (above & IDE_SOLVES):
            c["solves"] += 1
            op_solves[s[OP]] += 1
            if above & SHOOTS:
                c["hits"] += 1
        if name in SHOOTS:
            c["shoots"] += 1
        if name.startswith(IO_PREFIX) and not any(a.startswith(IO_PREFIX) for a in above):
            c["io_s"] += dur
            c["io_bytes"] += s[WORK]
        if name in ("schauder.synthesize", "schauder.analyze") and "schauder" not in above:
            c["schauder_points"] += s[WORK]
        if name in ("construct.coefficients_x", "construct.coefficients_y"):
            c["coeffs"] += s[WORK]
        if name == "construct.predicted_qv":
            c["pred_calls"] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    def sweeps(level):
        # a Picard solve_ide makes one flow solve per sweep plus two
        per_solve = [op_solve_flows[o] / op_solves[o] - 2 for o, tags in op_tags.items()
                     if tags.get("picard_level") == level and op_solves[o]]
        return ratio(sum(per_solve), len(per_solve))

    return {
        "dyadic.io_s": c["io_s"],
        "dyadic.io_bytes": c["io_bytes"],
        "schauder.busy_s": busy["schauder"],
        "schauder.points": c["schauder_points"],
        "construct.busy_s": busy["construct"],
        "construct.coeffs": c["coeffs"],
        "construct.predicted_qv_calls": c["pred_calls"],
        "quadvar.busy_s": busy["quadvar"],
        "quadvar.calls": c["quadvar.calls"],
        "follmer.busy_s": busy["follmer"],
        "flow.calls": c["flow_calls"],
        "flow.points": c["flow_points"],
        "flow.busy_s": busy["flow"],
        "flow.self_s": self_s["flow"],
        "flow.rhs_points": c["rhs_points"],
        "flow.rhs_per_point": ratio(c["rhs_points"], c["flow_points"]),
        "ide.solves": c["solves"],
        "ide.busy_s": busy["ide"],
        "ide.self_s": self_s["ide"],
        "ide.flow_calls_per_solve": ratio(c["solve_flows"], c["solves"]),
        "support.shoots": c["shoots"],
        "support.busy_s": busy["support"],
        "support.self_s": self_s["support"],
        "support.hits_per_shoot": ratio(c["hits"], c["shoots"]),
        "expr.parse_s": busy["expr"],
        "expr.eval_s": c["expr_eval_s"],
        "cli.main_s": busy["cli"],
        "trace.spans": len(indices),
        "baseline.flow_rhs_per_point_4097": ratio(probe["rhs"], probe["points"]),
        "baseline.picard_sweeps_l12": sweeps(12),
        "baseline.picard_sweeps_l16": sweeps(16),
    }

