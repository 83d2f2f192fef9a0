"""Span tracing for traced benchmark runs.

A traced iteration replaces the public names that the study driver and the
slab iteration look up as module globals by wrappers that record one span
per call: name, start, end, parent span and iteration id.  Spans stay in
memory and are written out by the caller when the iteration ends.  A span's
self time is its duration minus the part of it that its child spans cover;
each layer's metric is the summed self time of the spans mapped to it, so
the layer times of one iteration add up to its traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import threading
import time
from contextlib import contextmanager

# (module, global name) -> per-layer time metric that the span's self time adds to
LAYERS = {
    ("parahyp.study", "run"): "slab.factor_s",
    ("parahyp.study", "solve_reference"): "study.self_s",
    ("parahyp.study", "save_solution"): "checkpoint.save_s",
    ("parahyp.study", "load_solution"): "checkpoint.load_s",
    ("parahyp.study", "compare_solutions"): "errors.compare_s",
    ("parahyp.study", "export_snapshot"): "study.snapshot_s",
    ("parahyp.slab", "ScalarSpace"): "spaces.build_s",
    ("parahyp.slab", "VectorSpace"): "spaces.build_s",
    ("parahyp.slab", "build_block_system"): "assembly.block_system_s",
    ("parahyp.slab", "solve_slab"): "slab.step_s",
}
# the benchmark's own span around the user call; its self time is driver code
ROOT = "iteration"
ROOT_LAYER = "study.self_s"
_FILE_ARGS = ("save_solution", "load_solution")


class Tracer:
    """Collects the spans of one iteration."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.spans: list[dict] = []
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        self._root = None

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        # spans opened on a worker thread hang off the iteration's root span
        parent = stack[-1] if stack else self._root
        record = {"id": span_id, "name": name, "parent": parent,
                  "iteration": self.iteration, "start": time.perf_counter()}
        if self._root is None:
            self._root = span_id
        stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in _FILE_ARGS else None

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if signature is not None:
                path = signature.bind(*args, **kwargs).arguments["path"]
                record["bytes"] = os.path.getsize(path)
            elif name == "run":
                record["dof_slabs"] = int(result.coeffs.shape[0] * result.coeffs.shape[2])
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Swap every traced module global for its wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered([(max(a, s["start"]), min(b, s["end"]))
                        for a, b in children.get(s["id"], []) if b > a])
            for s in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self times and counts of one traced iteration."""
    layer_of = {attr: metric for (_, attr), metric in LAYERS.items()}
    layer_of[ROOT] = ROOT_LAYER
    out = {metric: 0.0 for metric in layer_of.values()}
    out.update({"slab.steps": 0, "errors.compares": 0, "study.snapshots": 0,
                "checkpoint.save_bytes": 0, "checkpoint.load_bytes": 0,
                "slab.dof_slabs": 0})
    counts = {"solve_slab": "slab.steps", "compare_solutions": "errors.compares",
              "export_snapshot": "study.snapshots"}
    own = self_times(spans)
    for s in spans:
        out[layer_of[s["name"]]] += own[s["id"]]
        if s["name"] in counts:
            out[counts[s["name"]]] += 1
        if s["name"] == "save_solution":
            out["checkpoint.save_bytes"] += s["bytes"]
        elif s["name"] == "load_solution":
            out["checkpoint.load_bytes"] += s["bytes"]
        elif s["name"] == "run":
            out["slab.dof_slabs"] += s["dof_slabs"]
    return out
