"""Spans recorded from outside the program, around calls at module boundaries.

A `Tracer` replaces a function binding in a module with a wrapper that
records one span per call: name, start, end, parent span and run id.  Spans
live in flat arrays while the benchmark runs and are written out at the end.
The wrappers go where each function is looked up, because `crystalfpp`
modules import each other's functions by name: wrapping
`crystalfpp.fpp.passage_times` would miss the estimator's calls, which go
through `crystalfpp.estimate.passage_times`.

A span name is `<layer>.<function>`; the layer is the `crystalfpp` module
whose work the span measures.  A layer's self time is the duration of its
spans minus the part covered by their child spans.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

LAYERS = ("fpp", "lattice", "quotient", "estimate", "cli")
PROBE_CALLS = 100_000


def _window_vertices(counts, args, kwargs, result):
    counts["lattice.window_vertices"] += len(result.vertices)


def _edges_scanned(counts, args, kwargs, result):
    # two searches per call (full and margin-restricted), each relaxing every
    # undirected orbit from both ends
    config = args[0] if args else kwargs["config"]
    counts["fpp.edges_scanned"] += 4 * len(config.window.orbit_keys)


# (module, attribute, span name, count hook).  Each entry is a place where a
# benchmarked call path looks the function up.
WRAP_POINTS = (
    ("crystalfpp.estimate", "passage_times", "fpp.passage_times", _edges_scanned),
    ("crystalfpp.estimate", "_dijkstra", "fpp.dijkstra", None),
    ("crystalfpp.estimate", "sample_configuration", "fpp.sample_configuration", None),
    ("crystalfpp.estimate", "instantiate_window", "lattice.instantiate_window",
     _window_vertices),
    ("crystalfpp.lattice", "instantiate_window", "lattice.instantiate_window",
     _window_vertices),
    ("crystalfpp.estimate", "edge_connectivity_estimate",
     "lattice.edge_connectivity_estimate", None),
    ("crystalfpp.estimate", "build_quotient", "quotient.build_quotient", None),
    ("crystalfpp.estimate", "_map_replicas", "estimate.map_replicas", None),
    ("crystalfpp.estimate", "estimate_time_constant", "estimate.estimate_time_constant",
     None),
    ("crystalfpp.estimate", "monotonicity_experiment", "estimate.monotonicity_experiment",
     None),
    ("crystalfpp.estimate", "positivity_scan", "estimate.positivity_scan", None),
    ("crystalfpp.estimate", "lifting_inequality_check",
     "estimate.lifting_inequality_check", None),
    ("crystalfpp.cli", "build_preset", "lattice.build_preset", None),
    ("crystalfpp.cli", "estimate_shape", "estimate.estimate_shape", None),
    ("crystalfpp.cli", "render_shape_svg", "cli.render_shape_svg", None),
    ("crystalfpp.cli", "run_experiment", "cli.run_experiment", None),
    ("crystalfpp.cli", "write_artifacts", "cli.write_artifacts", None),
    ("crystalfpp.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; one run id per workload iteration."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr with a span-recording wrapper."""
        original = getattr(module, attr)
        nid = self._intern(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts[self.run_id], args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped binding, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every point of WRAP_POINTS for the duration of the block, then restore."""
        try:
            for module_name, attr, name, count in WRAP_POINTS:
                self.wrap(importlib.import_module(module_name), attr, name, count)
            yield self
        finally:
            self.unwrap_all()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans as arrays, with the span-name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def run_summary(self, run_id: int) -> dict:
        """Per-name call counts and busy time, per-layer self time, for one run.

        Returns {"calls", "busy_s", "own_s"} keyed by span name (busy time
        includes child spans, own time excludes them), "self_s" keyed by
        layer, "root_s" (the run's top-level spans), "spans" and "counts".
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        own = dur - np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                minlength=len(dur))
        sel = a["run"] == run_id
        ids, dur, own = a["name_id"][sel], dur[sel], own[sel]
        calls = dict(zip(self.names, np.bincount(ids, minlength=len(self.names)).tolist()))
        busy = dict(zip(self.names, np.bincount(ids, weights=dur,
                                                minlength=len(self.names)).tolist()))
        own_s = dict(zip(self.names, np.bincount(ids, weights=own,
                                                 minlength=len(self.names)).tolist()))
        self_s = dict.fromkeys(LAYERS, 0.0)
        for name, t in own_s.items():
            self_s[name.split(".", 1)[0]] += t
        return {"calls": calls, "busy_s": busy, "own_s": own_s, "self_s": self_s,
                "root_s": float(dur[~has_parent[sel]].sum()), "spans": int(sel.sum()),
                "counts": dict(self.counts[run_id])}


def wrapper_cost_s() -> float:
    """Seconds that one span wrapper adds to a call, timed on a no-op function.

    The median of three rounds; each times PROBE_CALLS calls bare and wrapped.
    """
    host = SimpleNamespace(noop=lambda: None)
    bare = host.noop
    tracer = Tracer()
    tracer.wrap(host, "noop", "probe.noop")
    wrapped = host.noop
    costs = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            bare()
        t1 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / PROBE_CALLS)
    tracer.unwrap_all()
    return statistics.median(costs)
