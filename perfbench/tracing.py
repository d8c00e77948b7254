"""Spans around the public calls of each pfa layer, recorded from outside.

The tracer replaces layer functions with wrappers in every pfa module that
binds them (``from .stats import is_independent`` makes a second binding in
``depgraph``), records one span per call -- name, start, end, parent -- in
memory, and puts the originals back on exit.  Nothing in the package changes;
spans inside a layer, such as single max-flow calls, are out of reach here.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

LAYERS = {
    "dataset": ("load_csv", "save_csv", "subsample"),
    "binning": ("discretize_all", "discretize"),
    "depgraph": (
        "build_graph",
        "connected_components",
        "is_complete",
        "is_connected",
        "IndependenceCache.compute_pairs",
    ),
    "stats": ("is_independent", "mutual_information"),
    "dissect": ("dissect", "min_node_cut"),
    "analysis": (
        "run_pfa",
        "filter_relevant",
        "filter_by_mi",
        "robust_intersection",
        "explain_feature",
    ),
    "cli": ("main",),
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and the counters that need a call's arguments or result."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.caches: list = []  # IndependenceCache of every run_pfa result
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.caches = []

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        qualified = f"{layer}.{name.rsplit('.', 1)[-1]}"
        observe = _OBSERVERS.get(qualified)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(qualified, layer, 0.0, stack[-1] if stack else -1)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _counting(self, fn, on_call):
        tracer = self

        def counted(*args, **kwargs):
            on_call(tracer, args)
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        import pfa

        modules = [m for n, m in sys.modules.items() if n == "pfa" or n.startswith("pfa.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"pfa.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    self._replace(cls, method, self._wrap(layer, name, getattr(cls, method)))
                    continue
                original = getattr(home, name)
                wrapped = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attr, wrapped)
        cache_cls = pfa.depgraph.IndependenceCache
        self._replace(cache_cls, "verdict", self._counting(cache_cls.verdict, _count_lookup))
        self._replace(
            pfa.analysis, "_partition", self._counting(pfa.analysis._partition, _count_pass)
        )
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _count_lookup(tracer: Tracer, args) -> None:
    # build_graph re-reads every pair it just handed to compute_pairs; only
    # lookups from other layers are requests of their own
    if tracer.current() != "depgraph.build_graph":
        tracer.counts["pairs_requested"] += 1


def _count_pass(tracer: Tracer, args) -> None:
    tracer.counts["passes"] += 1


def _observe_pairs(tracer: Tracer, args, result) -> None:
    tracer.counts["pairs_requested"] += len(args[1])


def _observe_test(tracer: Tracer, args, verdict) -> None:
    a, b = args[0], args[1]
    if a.testable and b.testable:
        tracer.counts["table_cells"] += a.n_bins * b.n_bins
    if not verdict.guard_ok:
        tracer.counts["guard_violations"] += 1


def _observe_cut(tracer: Tracer, args, cut) -> None:
    tracer.counts["nodes_removed"] += len(cut)
    tracer.counts["cut_size_max"] = max(tracer.counts["cut_size_max"], len(cut))


def _observe_run(tracer: Tracer, args, result) -> None:
    tracer.caches.append(result.cache)


_OBSERVERS = {
    "depgraph.compute_pairs": _observe_pairs,
    "stats.is_independent": _observe_test,
    "dissect.min_node_cut": _observe_cut,
    "analysis.run_pfa": _observe_run,
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for the spans and counts recorded since the last reset."""
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for span, self_s in zip(spans, own):
        total[span.name] += span.duration
        calls[span.name] += 1
        layer_self[span.layer] += self_s
    robust_runs = sum(
        1
        for s in spans
        if s.name == "analysis.run_pfa"
        and s.parent >= 0
        and spans[s.parent].name == "analysis.robust_intersection"
    )
    tests = calls["stats.is_independent"]
    requested = counts["pairs_requested"]
    metrics = {
        "dataset.load_csv_s": total["dataset.load_csv"],
        "dataset.save_csv_s": total["dataset.save_csv"],
        "dataset.subsample_s": total["dataset.subsample"],
        "binning.discretize_s": total["binning.discretize_all"],
        "binning.variables": calls["binning.discretize"],
        "depgraph.build_graph_s": total["depgraph.build_graph"],
        "depgraph.build_graph_calls": calls["depgraph.build_graph"],
        "depgraph.pairs_requested": requested,
        "depgraph.cache_hit_ratio": 1.0 - tests / requested if requested else 0.0,
        "stats.pair_tests": tests,
        "stats.pair_test_us": 1e6 * total["stats.is_independent"] / tests if tests else 0.0,
        "stats.table_cells": counts["table_cells"],
        "stats.guard_violations": counts["guard_violations"],
        "dissect.dissect_s": total["dissect.dissect"],
        "dissect.min_node_cut_calls": calls["dissect.min_node_cut"],
        "dissect.min_node_cut_s": total["dissect.min_node_cut"],
        "dissect.nodes_removed": counts["nodes_removed"],
        "dissect.cut_size_max": counts["cut_size_max"],
        "analysis.run_pfa_s": total["analysis.run_pfa"],
        "analysis.passes": counts["passes"],
        "analysis.filter_relevant_s": total["analysis.filter_relevant"],
        "analysis.filter_by_mi_s": total["analysis.filter_by_mi"],
        "analysis.robust_runs": robust_runs,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


def span_cost(calls: int = 50_000) -> float:
    """Seconds one span adds to a call: a traced no-op against a bare one."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer._wrap("bench", "noop", noop)
    costs = []
    for _ in range(5):
        tracer.reset()
        started = time.perf_counter()
        for _ in range(calls):
            traced()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((2 * middle - started - time.perf_counter()) / calls)
    return statistics.median(costs)


def spans_json(spans: list[Span], op: int) -> list[list]:
    return [[op, i, s.name, s.start, s.end, s.parent] for i, s in enumerate(spans)]
