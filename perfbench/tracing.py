"""Spans around the package's layers, for the traced run only.

The package binds its functions with ``from ... import``, so each function
is wrapped in the namespace of the module that calls it: the fit looks up
``gamtl.model.learn_graph``, not ``gamtl.graph_learning.learn_graph``.  Every
span records its parent, so a layer's self time excludes the layers it
calls.  Spans stay in memory until the run (or a traced CLI child) ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc


def _graph_counts(result):
    report = result[1]
    return {"iters": report.iterations, "capped": int(not report.converged)}


def _weight_counts(result):
    return {"cg_iters": result[1].cg_iterations}


def _fit_counts(model):
    return {"outer_iters": len(model.trace.weight_reports)}


# (module, attribute, span name, counts taken from the return value)
LIBRARY_TARGETS = (
    ("gamtl.model", "fit", "model.fit", _fit_counts),
    ("gamtl.rbf", "fit", "model.fit", _fit_counts),
    ("gamtl.rbf", "fit_rbf", "model.fit_rbf", None),
    ("gamtl.model", "learn_graph", "graph_learning", _graph_counts),
    ("gamtl.model", "solve_weights", "weight_solver", _weight_counts),
    ("gamtl.model", "ridge_independent", "weight_solver.ridge", None),
    ("gamtl.model", "joint_objective", "model.objective", None),
    ("gamtl.model", "pairwise_sq_distances", "graph.distances", None),
    ("gamtl.rbf", "kmeans_centers", "rbf.kmeans", None),
    ("gamtl.rbf", "optimal_widths", "rbf.widths", None),
    ("gamtl.rbf", "lift_matrix", "rbf.lift", None),
    ("gamtl.data", "gen_syn1", "data.generate", None),
    ("gamtl.data", "gen_wiener_network", "data.generate", None),
    ("gamtl.data", "train_test_split", "data.generate", None),
    ("gamtl.evaluate", "rmse", "evaluate.rmse", None),
)

# The CLI binds fit, rmse and the model I/O in its own namespace.
CLI_TARGETS = LIBRARY_TARGETS + (
    ("gamtl.cli", "fit", "model.fit", _fit_counts),
    ("gamtl.cli", "fit_rbf", "model.fit_rbf", None),
    ("gamtl.cli", "rmse", "evaluate.rmse", None),
    ("gamtl.cli", "save_model", "data.write", None),
    ("gamtl.cli", "load_model", "data.load", None),
    ("gamtl.data", "write_dataset", "data.write", None),
    ("gamtl.data", "load_csv_tasks", "data.load", None),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def install(self, targets):
        for module_name, attr, name, counts in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, counts):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            # Under tracemalloc (the memory pass), record the span's own peak.
            # Exact only for spans that call no other wrapped function, which
            # holds for the one peak that is read, rbf.kmeans.
            base = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else None
            if base is not None:
                tracemalloc.reset_peak()
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if base is not None:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            if counts is not None:
                span.update(counts(result))
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def extend(self, spans):
        """Append spans recorded by another process, keeping parent links."""
        offset = len(self.spans)
        for span in spans:
            if span["parent"] is not None:
                span["parent"] += offset
            self.spans.append(span)


def summarize(spans):
    """Per span name: calls, self seconds, summed counts, largest peak bytes."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out = {}
    for span, children in zip(spans, child_time):
        entry = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "peak_bytes": 0})
        entry["calls"] += 1
        entry["self_s"] += span["end"] - span["start"] - children
        entry["peak_bytes"] = max(entry["peak_bytes"], span.get("peak_bytes", 0))
        for key in ("iters", "capped", "cg_iters", "outer_iters"):
            if key in span:
                entry[key] = entry.get(key, 0) + span[key]
    return out
