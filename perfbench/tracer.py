"""Spans around calls into chainscope's public functions, and the per-layer
metrics computed from them.

The child process installs the wrappers (``Tracer.install``) after importing
chainscope and before running the CLI; nothing under ``src/`` is changed.
Modules bind each other's functions with ``from .x import f``, so a wrapper
replaces the function in every chainscope module namespace that holds it.

A span is ``[name, start, end, parent, counters]``; spans stay in memory and
are written once when the command ends. A span's self time is its duration
minus the durations of its direct children (calls nest, so children are
disjoint and inside their parent).
"""
from __future__ import annotations

import functools
import statistics
import sys
import time


def _cells(result):
    return {"reached_cells": len(result)}


# (module, function, counters taken from (result, args) after the call)
SPANNED = (
    ("reachability", "orbit_reach",
     lambda r, a: {"steps": r.steps_used, "converged": int(r.converged)}),
    ("reachability", "robustness_check", None),
    ("reachability", "chain_reach", None),
    ("transition", "build_graph",
     lambda r, a: {"cells": r.n_cells, "edges": r.edge_count()}),
    ("transition", "forward_reach", lambda r, a: _cells(r)),
    ("transition", "forward_reach_depths", lambda r, a: _cells(r[0])),
    ("transition", "backward_reach", lambda r, a: _cells(r)),
    ("transition", "recurrent_cells",
     lambda r, a: {"cells": a[0].n_cells, "components": len(r)}),
    ("transition", "extract_path", lambda r, a: {"path_len": len(r)}),
    ("geometry", "fatten", None),
    ("geometry", "hausdorff", None),
    ("minimal", "minimal_sets", None),
    ("minimal", "classify_component", None),
    ("minimal", "is_graph_invariant", None),
    ("minimal", "lyapunov_stability", None),
    ("minimal", "weak_basin", None),
    ("minimal", "omega_limit", lambda r, a: {"steps": r.steps}),
    ("minimal", "dichotomy_report", None),
    ("cli", "load_config", None),
    ("cli", "write_report", None),
)
# the sweeps are reported together as one layer function
SWEEPS = ("forward_reach", "forward_reach_depths", "backward_reach")


class Tracer:
    """Collects spans for one CLI command in this process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.image_points = {"calls": 0, "points": 0}
        self.missing: list = []

    def install(self):
        """Wrap every function in SPANNED that this chainscope version has."""
        modules = [m for name, m in sys.modules.items()
                   if name == "chainscope" or name.startswith("chainscope.")]
        for mod_name, fn_name, counters in SPANNED:
            mod = sys.modules.get(f"chainscope.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, counters)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
        system = getattr(sys.modules.get("chainscope.systems"), "System", None)
        if system is None or not hasattr(system, "image_points"):
            self.missing.append("systems.image_points")
        else:
            system.image_points = self._count_points(system.image_points)

    def _wrap(self, name, fn, counters):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counters is not None:
                span[4] = counters(result, args)
            return result

        return wrapper

    def _count_points(self, method):
        tally = self.image_points

        @functools.wraps(method)
        def image_points(self_, points, *args, **kwargs):
            tally["calls"] += 1
            tally["points"] += len(points)
            return method(self_, points, *args, **kwargs)

        return image_points

    def dump(self) -> dict:
        return {"spans": self.spans, "image_points": self.image_points,
                "missing": self.missing}


# --------------------------------------------------------------------------
# per-layer metrics (computed in the benchmark's parent process)
# --------------------------------------------------------------------------

# metric name -> unit; a metric is absent when a function it needs is missing
LAYER_METRICS = {
    "reachability.orbit_reach.calls": "count",
    "reachability.orbit_reach.steps": "count",
    "reachability.orbit_reach.self_s": "s",
    "reachability.orbit_reach.steps_per_s": "1/s",
    "reachability.orbit_reach.converged_frac": "ratio",
    "systems.image_points.calls": "count",
    "systems.image_points.points": "count",
    "systems.image_points.points_per_call": "count",
    "reachability.robustness_check.calls": "count",
    "reachability.robustness_check.self_s": "s",
    "transition.extract_path.self_s": "s",
    "transition.extract_path.path_len": "count",
    "transition.build_graph.calls": "count",
    "transition.build_graph.cells": "count",
    "transition.build_graph.edges": "count",
    "transition.build_graph.self_s": "s",
    "transition.build_graph.cells_per_s": "1/s",
    "transition.sweep.calls": "count",
    "transition.sweep.self_s": "s",
    "transition.sweep.reached_cells": "count",
    "transition.recurrent_cells.calls": "count",
    "transition.recurrent_cells.cells": "count",
    "transition.recurrent_cells.components": "count",
    "transition.recurrent_cells.self_s": "s",
    "geometry.fatten.calls": "count",
    "geometry.fatten.self_s": "s",
    "geometry.hausdorff.calls": "count",
    "geometry.hausdorff.self_s": "s",
    "minimal.minimal_sets.self_s": "s",
    "minimal.classify_component.self_s": "s",
    "minimal.is_graph_invariant.self_s": "s",
    "minimal.lyapunov_stability.self_s": "s",
    "minimal.weak_basin.self_s": "s",
    "minimal.omega_limit.calls": "count",
    "minimal.omega_limit.steps": "count",
    "minimal.omega_limit.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.write_report.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}
# metrics that count work; they must repeat exactly between traced runs
COUNT_SUFFIXES = (".calls", ".steps", ".cells", ".edges", ".components",
                  ".points", ".path_len", ".reached_cells", ".report_bytes")


def is_count(metric: str) -> bool:
    return metric.endswith(COUNT_SUFFIXES)


def _function_totals(spans: list) -> dict:
    """Per function: calls, self time and summed counters."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, parent, counters) in enumerate(spans):
        fn = name.split(".", 1)[1]
        key = "transition.sweep" if fn in SWEEPS else name
        t = totals.setdefault(key, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        for k, v in (counters or {}).items():
            t[k] = t.get(k, 0) + v
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace: dict, report_bytes: int) -> dict:
    """Per-layer metric values of one traced command, by LAYER_METRICS name."""
    totals = _function_totals(trace["spans"])

    def get(key, field):
        return totals.get(key, {}).get(field, 0)

    orbit_steps = get("reachability.orbit_reach", "steps")
    orbit_self = get("reachability.orbit_reach", "self_s")
    build_cells = get("transition.build_graph", "cells")
    build_self = get("transition.build_graph", "self_s")
    ip = trace["image_points"]
    out = {
        "reachability.orbit_reach.steps_per_s": _ratio(orbit_steps, orbit_self),
        "reachability.orbit_reach.converged_frac": _ratio(
            get("reachability.orbit_reach", "converged"),
            get("reachability.orbit_reach", "calls")),
        "systems.image_points.calls": ip["calls"],
        "systems.image_points.points": ip["points"],
        "systems.image_points.points_per_call": _ratio(ip["points"], ip["calls"]),
        "transition.build_graph.cells_per_s": _ratio(build_cells, build_self),
        "cli.report_bytes": report_bytes,
    }
    for metric in LAYER_METRICS:
        if metric not in out and not metric.startswith("trace."):
            key, field = metric.rsplit(".", 1)
            out[metric] = get(key, field)
    missing = set(trace["missing"])
    if "transition.forward_reach" in missing:
        missing.add("transition.sweep")
    return {m: v for m, v in out.items()
            if not any(m.startswith(f + ".") for f in missing)}


def combine_runs(runs: list) -> tuple[dict, list]:
    """Median of each metric over traced runs, and the counts that differ.

    Counts must repeat exactly between runs; they are taken from the first.
    """
    if not runs:
        return {}, []
    out, differ = {}, []
    for metric in runs[0]:
        values = [r[metric] for r in runs]
        if is_count(metric):
            out[metric] = values[0]
            if len(set(values)) > 1:
                differ.append(metric)
        else:
            out[metric] = statistics.median(values)
    return out, differ
