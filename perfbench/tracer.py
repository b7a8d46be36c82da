"""Spans and counters for the traced benchmark run, recorded from outside gfee.

Nothing under ``src/`` is edited. ``install`` replaces the module attributes
that gfee's own callers look up (``gfee.cli.read_edgelist``,
``gfee.classify.fuse``, ...) with timing wrappers and returns a function that
puts the originals back. Spans are kept in memory and turned into the
per-layer metrics by ``layer_metrics``.

Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans recorded in a child process line up with the
parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np


class Tracer:
    """Nested spans (name, start, end, parent) plus named counters.

    Wrapped calls are made from the thread that runs the workload, so one
    stack gives each span its parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.remove(index)

    def record(self, name: str, start: float, end: float, parent=None) -> int:
        """Add a span measured elsewhere, such as process start-up."""
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent})
        return len(self.spans) - 1

    def add(self, counter: str, amount) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def merge(self, other: dict) -> None:
        """Append spans and counters dumped by ``to_dict`` in another process."""
        base = len(self.spans)
        for span in other["spans"]:
            parent = span["parent"]
            self.spans.append({**span, "parent": None if parent is None else parent + base})
        for counter, amount in other["counts"].items():
            self.add(counter, amount)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"])
        - covered(children[i], span["start"], span["end"])
        for i, span in enumerate(spans)
    ]


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_edges_read(tracer, fn, args, kwargs, result):
    tracer.add("graph.read_edgelist.edges", result.num_edges)


def _count_fuse_edges(tracer, fn, args, kwargs, result):
    collection = _argument(fn, args, kwargs, "collection")
    tracer.add("embedding.fuse.edges", sum(g.num_edges for g in collection.graphs))


def _count_export_bytes(tracer, fn, args, kwargs, result):
    tracer.add("embedding.export_csv.bytes", os.path.getsize(_argument(fn, args, kwargs, "path")))


def _count_sampled_edges(tracer, fn, args, kwargs, result):
    tracer.add("sbm.sample.edges", sum(g.num_edges for g in result[0].graphs))


def _count_knn_work(tracer, fn, args, kwargs, result):
    """kNN work of one CV replicate from its fold sizes: every labeled vertex
    is queried once, against the labeled vertices outside its fold."""
    folds = _argument(fn, args, kwargs, "folds")
    sizes = np.bincount(result[result >= 0], minlength=folds).astype(np.int64)
    labeled = int(sizes.sum())
    tracer.add("classify.knn.queries", labeled)
    tracer.add("classify.knn.dist_entries", int((sizes * (labeled - sizes)).sum()))


# (module, attribute, span name or None for a counter only, counter)
HOOKS = (
    ("gfee.cli", "main", "cli.main", None),
    ("gfee.cli", "read_edgelist", "graph.read_edgelist", _count_edges_read),
    ("gfee.cli", "read_labels", "graph.read_labels", None),
    ("gfee.cli", "validate_collection", "graph.validate", None),
    ("gfee.cli", "fuse", "embedding.fuse", _count_fuse_edges),
    ("gfee.cli", "export_csv", "embedding.export_csv", _count_export_bytes),
    ("gfee.cli", "run_simulation", "experiments.run_simulation", None),
    ("gfee.experiments", "sample_collection", "sbm.sample", _count_sampled_edges),
    ("gfee.experiments", "cross_validate", "classify.cv", None),
    ("gfee.sbm", "sample_collection", "sbm.sample", _count_sampled_edges),
    ("gfee.classify", "cross_validate", "classify.cv", None),
    ("gfee.classify", "fuse", "embedding.fuse", _count_fuse_edges),
    ("gfee.classify", "stratified_folds", None, _count_knn_work),
    ("gfee.baselines", "best_d_error", "baselines.best_d", None),
    ("gfee.baselines", "omnibus_embed", "baselines.omnibus", None),
    ("gfee.baselines", "mase_embed", "baselines.mase", None),
    ("gfee.baselines", "use_embed", "baselines.use", None),
    ("gfee.baselines", "cross_validate_embedding", "classify.cv_fixed", None),
)


def _wrap(tracer, fn, span, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(span) if span else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if index is not None:
                tracer.end(index)
        if counter is not None:
            counter(tracer, fn, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap each attribute in HOOKS; returns a function that undoes it."""
    saved = []
    for module_name, attr, span, counter in HOOKS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, span, counter))

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer, window, cpu_s: float, untraced_wall_s: float) -> dict:
    """Per-layer values, by the names BENCHMARK.json gives them, from the
    spans of one traced set-up and call.

    ``window`` is the (start, end) of the traced call; coverage is the part
    of it that top-level spans cover.
    """
    spans = tracer.spans
    own = self_times(spans)
    total, calls, self_s = {}, {}, {}
    for span, own_s in zip(spans, own):
        name = span["name"]
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own_s
    lo, hi = window
    top = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    read_s = total.get("graph.read_edgelist", 0.0)
    read_edges = tracer.counts.get("graph.read_edgelist.edges", 0)
    return {
        "cli.startup_s": total.get("cli.startup", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "graph.read_edgelist.s": read_s,
        "graph.read_edgelist.edges": read_edges,
        "graph.read_edgelist.edges_per_s": read_edges / read_s if read_s else 0.0,
        "graph.read_labels.s": total.get("graph.read_labels", 0.0),
        "graph.validate.s": total.get("graph.validate", 0.0),
        "embedding.fuse.s": total.get("embedding.fuse", 0.0),
        "embedding.fuse.calls": calls.get("embedding.fuse", 0),
        "embedding.fuse.edges": tracer.counts.get("embedding.fuse.edges", 0),
        "embedding.export_csv.s": total.get("embedding.export_csv", 0.0),
        "embedding.export_csv.bytes": tracer.counts.get("embedding.export_csv.bytes", 0),
        "classify.cv.s": total.get("classify.cv", 0.0),
        "classify.cv.calls": calls.get("classify.cv", 0),
        "classify.cv.self_s": self_s.get("classify.cv", 0.0),
        "classify.knn.queries": tracer.counts.get("classify.knn.queries", 0),
        "classify.knn.dist_entries": tracer.counts.get("classify.knn.dist_entries", 0),
        "classify.cv_fixed.s": total.get("classify.cv_fixed", 0.0),
        "classify.cv_fixed.calls": calls.get("classify.cv_fixed", 0),
        "sbm.sample.s": total.get("sbm.sample", 0.0),
        "sbm.sample.calls": calls.get("sbm.sample", 0),
        "sbm.sample.edges": tracer.counts.get("sbm.sample.edges", 0),
        "baselines.omnibus.s": total.get("baselines.omnibus", 0.0),
        "baselines.mase.s": total.get("baselines.mase", 0.0),
        "baselines.use.s": total.get("baselines.use", 0.0),
        "experiments.self_s": self_s.get("experiments.run_simulation", 0.0),
        "process.cpu_s": cpu_s,
        "trace.coverage": covered(top, lo, hi) / (hi - lo),
        "trace.overhead_s": (hi - lo) - untraced_wall_s,
    }
