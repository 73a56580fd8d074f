"""Tracing from outside the program: wrap public functions at every module
binding the program calls them through, record spans, derive per-layer
metrics.

A span is (name, parent span, start, end, tag).  Spans are kept in memory
and written out once, when the benchmark ends.  A layer's self time is the
sum of its spans' durations minus the durations of their child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from pathlib import Path

import numpy as np

#: Functions traced, as (module, function).  Every binding of the same
#: function object in any ``dubinsguard`` module is wrapped, so internal
#: calls (``heading_error`` -> ``interception``, the recursion inside
#: ``real_roots``) are spans too.
TRACED = (
    ("geometry", "interception"),
    ("geometry", "heading_error"),
    ("numerics", "real_roots"),
    ("numerics", "max_on_circle"),
    ("certificates", "certify_win"),
    ("certificates", "adjust_time_bound"),
    ("certificates", "solve_relaxed_clearance"),
    ("certificates", "relaxed_clearance_oracle"),
    ("certificates", "rollout_clearance_oracle"),
    ("strategies", "pursuit_intercept"),
    ("strategies", "heading_adjust"),
    ("model", "step_pursuer"),
    ("model", "step_evader"),
    ("matching", "build_graph"),
    ("matching", "max_matching"),
    ("matching", "assign"),
    ("sim", "run"),
    ("cli", "load_scenario"),
    ("cli", "write_trajectory_csv"),
    ("cli", "write_events"),
)

#: Per-layer metrics, in the order they are reported, with their units.
LAYER_METRICS = {
    "numerics.real_roots.calls": "count",
    "numerics.real_roots.self_s": "s",
    "numerics.max_on_circle.calls": "count",
    "certificates.certify_win.intercept.calls": "count",
    "certificates.certify_win.intercept.self_s": "s",
    "certificates.certify_win.two_step.calls": "count",
    "certificates.certify_win.two_step.self_s": "s",
    "certificates.certify_win.none_early.calls": "count",
    "certificates.certify_win.none_early.self_s": "s",
    "certificates.certify_win.none_sextic.calls": "count",
    "certificates.certify_win.none_sextic.self_s": "s",
    "certificates.sextic_yield": "ratio",
    "certificates.adjust_time_bound.per_certificate": "ratio",
    "certificates.relaxed_clearance_oracle.self_s": "s",
    "certificates.rollout_clearance_oracle.self_s": "s",
    "geometry.interception.calls": "count",
    "geometry.heading_error.self_s": "s",
    "strategies.pursuit_intercept.self_s": "s",
    "strategies.heading_adjust.self_s": "s",
    "model.step_pursuer.self_s": "s",
    "model.step_evader.self_s": "s",
    "matching.build_graph.calls": "count",
    "matching.build_graph.self_s": "s",
    "matching.build_graph.changed_ratio": "ratio",
    "matching.max_matching.self_s": "s",
    "matching.assign.self_s": "s",
    "matching.edges_per_refresh": "count",
    "sim.run.self_s": "s",
    "sim.steps": "count",
    "sim.refreshes": "count",
    "cli.load_scenario.self_s": "s",
    "cli.write_trajectory_csv.self_s": "s",
    "cli.write_events.self_s": "s",
    "trace.overhead_s": "s",
}


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace every binding of each target function in the program's
    modules by ``make_wrapper(name, fn)``; restore them on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n == "dubinsguard" or n.startswith("dubinsguard.")]
    restore = []
    try:
        for mod_name, fn_name in targets:
            fn = getattr(importlib.import_module(f"dubinsguard.{mod_name}"), fn_name)
            wrapper = make_wrapper(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, fn in reversed(restore):
            setattr(mod, attr, fn)


def _certificate_path(cert) -> str:
    kind = cert.kind.value
    if kind != "none":
        return kind
    ev = cert.evidence
    reached_sextic = ev.clearance is not None or ev.solver_failed
    return "none_sextic" if reached_sextic else "none_early"


class Tracer:
    """Collects spans.  ``certify_win`` spans are tagged with the path the
    certificate took; ``build_graph`` spans with their edge count and with
    how many pairs changed certificate kind since the previous refresh."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._prev_kinds: dict = {}

    def new_game(self):
        self._prev_kinds = {}

    def _tag(self, name, args, out):
        if name == "certificates.certify_win":
            return _certificate_path(out)
        if name == "matching.build_graph":
            kinds = {key: out.edges[key].kind.value if key in out.edges else "none" for key in args[0]}
            common = [key for key in kinds if key in self._prev_kinds]
            changed = sum(kinds[key] != self._prev_kinds[key] for key in common)
            self._prev_kinds = kinds
            return (len(out.edges), changed, len(common))
        return None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagged = name in ("certificates.certify_win", "matching.build_graph")

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if tagged:
                rec[4] = self._tag(name, args, out)
            return out

        return traced

    def tracing(self):
        return patched(TRACED, self.wrap)


def write_spans(path: Path, segments: list[list[list]]):
    """Write spans to a compressed numpy archive: one row per span, with the
    index of its name in ``names`` and of its parent span (-1 for none).
    Each segment is a span list whose parents index into that list."""
    spans, parents, offset = [], [], 0
    for segment in segments:
        spans += segment
        parents += [p + offset if p >= 0 else -1 for p in (s[1] for s in segment)]
        offset += len(segment)
    names = sorted({s[0] for s in spans})
    index = {n: k for k, n in enumerate(names)}
    np.savez_compressed(
        path,
        names=np.array(names),
        name=np.array([index[s[0]] for s in spans], dtype=np.int16),
        parent=np.array(parents, dtype=np.int64),
        start=np.array([s[2] for s in spans]),
        end=np.array([s[3] for s in spans]),
    )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from the spans of one round of a workload."""
    names = [s[0] for s in spans]
    parent = np.array([s[1] for s in spans], dtype=np.int64)
    dur = np.array([s[3] - s[2] for s in spans], dtype=float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    self_t = dur - child

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for k, name in enumerate(names):
        key = name
        if name == "certificates.certify_win":
            key = f"{name}.{spans[k][4]}"
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + float(self_t[k])

    def ancestor(k: int, name: str) -> int:
        k = int(parent[k])
        while k >= 0 and names[k] != name:
            k = int(parent[k])
        return k

    sextic_solves = sum(
        1 for k, name in enumerate(names)
        if name == "numerics.real_roots" and (parent[k] < 0 or names[parent[k]] != "numerics.real_roots")
    )
    bounds_per_cert: dict[int, int] = {}
    for k, name in enumerate(names):
        if name == "certificates.adjust_time_bound":
            cert = ancestor(k, "certificates.certify_win")
            if cert >= 0:
                bounds_per_cert[cert] = bounds_per_cert.get(cert, 0) + 1
    graphs = [spans[k][4] for k, name in enumerate(names) if name == "matching.build_graph"]
    compared = sum(g[2] for g in graphs)

    out = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = float(calls.get(layer, 0))
        elif stat == "self_s":
            out[metric] = self_s.get(layer, 0.0)
    out["certificates.sextic_yield"] = (
        calls.get("certificates.certify_win.two_step", 0) / sextic_solves if sextic_solves else 0.0
    )
    out["certificates.adjust_time_bound.per_certificate"] = (
        sum(bounds_per_cert.values()) / len(bounds_per_cert) if bounds_per_cert else 0.0
    )
    out["matching.build_graph.changed_ratio"] = sum(g[1] for g in graphs) / compared if compared else 0.0
    out["matching.edges_per_refresh"] = sum(g[0] for g in graphs) / len(graphs) if graphs else 0.0
    out["sim.refreshes"] = float(
        sum(1 for k, name in enumerate(names) if name == "matching.build_graph" and ancestor(k, "sim.run") >= 0)
    )
    return out
