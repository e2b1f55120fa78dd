"""Benchmark-owned spans around calls into each layer's public functions.

Nothing under ``src/`` is edited: :func:`install` replaces functions and
methods of the already-imported program with thin wrappers that time the
call and hand over to the original. Spans are aggregated per op while they
close (self time = duration minus the part covered by child spans) and
stay in memory until :meth:`Recorder.dump` writes them once at the end.

Recording is switched on per op (:meth:`Recorder.begin`), so one
instrumented process can interleave recorded and unrecorded ops; their
latency difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

#: Header the HTTP client sends on every request; ``1`` records the op.
RECORD_HEADER = "X-Perfbench-Record"
TRACE_HEADER = "X-Repro-Trace-Id"

#: Every per-layer metric, in the order BENCHMARK.json lists them.
#: Time metrics are the p50 over recorded ops of the per-op self time;
#: counts are per-op means; ratios are taken over the recorded ops.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("http.server_ms", "ms"),
    ("http.wait_ms", "ms"),
    ("http.server_cpu_ms", "ms"),
    ("http.decode_ms", "ms"),
    ("http.encode_ms", "ms"),
    ("http.write_ms", "ms"),
    ("http.request_kb", "KiB"),
    ("http.response_kb", "KiB"),
    ("engine.search_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.cache_hits", "count"),
    ("norm.apply_ms", "ms"),
    ("norm.calls", "count"),
    ("distances.sliding_ms", "ms"),
    ("distances.lockstep_ms", "ms"),
    ("distances.elastic_ms", "ms"),
    ("distances.kernel_ms", "ms"),
    ("distances.pairs", "count"),
    ("index.filter_ms", "ms"),
    ("index.refine_ms", "ms"),
    ("index.candidates", "count"),
    ("index.refined", "count"),
    ("index.prune_ratio", "ratio"),
    ("stream.append_ms", "ms"),
    ("stream.state_ms", "ms"),
    ("stream.profile_ms", "ms"),
    ("stream.detect_ms", "ms"),
    ("stream.read_ms", "ms"),
    ("stream.points", "count"),
    ("stream.dropped", "count"),
    ("stream.alerts", "count"),
    ("search.mass_ms", "ms"),
    ("search.mass_calls", "count"),
    ("classify.matrix_ms", "ms"),
    ("classify.tune_ms", "ms"),
    ("classify.tune_trials", "count"),
    ("classify.one_nn_ms", "ms"),
    ("sweep.engine_ms", "ms"),
    ("sweep.cells", "count"),
    ("embed.fit_ms", "ms"),
    ("embed.transform_ms", "ms"),
    ("setup.import_s", "s"),
    ("setup.data_s", "s"),
    ("setup.fit_s", "s"),
    ("setup.load_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("calib.fft_ms", "ms"),
    ("calib.loop_ms", "ms"),
)

#: metric -> span whose per-op self time it reports.
_SELF_TIME = {
    "http.decode_ms": ("http.decode",),
    "http.encode_ms": ("http.encode",),
    "http.write_ms": ("http.write",),
    "engine.self_ms": ("engine.search",),
    "norm.apply_ms": ("norm.apply",),
    "distances.sliding_ms": ("dist.sliding",),
    "distances.lockstep_ms": ("dist.lockstep",),
    "distances.elastic_ms": ("dist.elastic",),
    "distances.kernel_ms": ("dist.kernel",),
    "index.filter_ms": ("index.search", "index.bounds"),
    "index.refine_ms": ("index.refine",),
    "stream.append_ms": ("stream.monitor",),
    "stream.state_ms": ("stream.state",),
    "stream.profile_ms": ("stream.profile",),
    "stream.detect_ms": ("stream.detect",),
    "search.mass_ms": ("search.mass",),
    "classify.matrix_ms": ("classify.matrix",),
    "classify.tune_ms": ("classify.tune",),
    "classify.one_nn_ms": ("classify.one_nn",),
    "sweep.engine_ms": ("sweep.run",),
    "embed.fit_ms": ("embed.fit",),
    "embed.transform_ms": ("embed.transform",),
}
#: metric -> per-op counter attribute summed from span results.
_COUNTS = {
    "engine.cache_hits": "cache_hits",
    "distances.pairs": "pairs",
    "index.candidates": "candidates",
    "index.refined": "refined",
    "stream.points": "points",
    "stream.dropped": "dropped",
    "stream.alerts": "alerts",
    "classify.tune_trials": "trials",
    "sweep.cells": "cells",
}
ROOT_SPANS = ("http.request", "sweep.run")


class Recorder:
    """In-memory per-op span aggregation (thread-aware)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.ops: dict[str, dict] = {}
        self.setup: dict[str, float] = {}

    def begin(self, op_id: str, **meta) -> None:
        record = {"layers": {}, "counts": {}, "meta": meta}
        self._local.op = record
        self._local.stack = []
        with self._lock:
            self.ops[str(op_id)] = record

    def end(self) -> None:
        self._local.op = None

    def call(self, name, fn, args, kwargs, counts=None):
        """Run ``fn`` inside span ``name`` when the current op records."""
        op = getattr(self._local, "op", None)
        if op is None:
            return fn(*args, **kwargs)
        stack = self._local.stack
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            entry = op["layers"].setdefault(name, [0.0, 0.0, 0])
            entry[0] += duration - frame[0]
            entry[1] += duration
            entry[2] += 1
        if counts is not None:
            tally = op["counts"]
            for key, value in counts(args, kwargs, result).items():
                tally[key] = tally.get(key, 0) + value
        return result

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": self.ops, "setup": self.setup}, fh)


# ----------------------------------------------------------------------
# wrapper installation
# ----------------------------------------------------------------------
def _method(rec, owner, attr, name, counts=None) -> bool:
    """Wrap ``owner.attr`` (a plain function in the class dict)."""
    original = owner.__dict__.get(attr)
    if original is None or not callable(original):
        return False
    label = name if callable(name) else (lambda args, _n=name: _n)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return rec.call(label(args), original, args, kwargs, counts)

    setattr(owner, attr, wrapper)
    return True


def _function(rec, original, name, counts=None) -> int:
    """Wrap a module-level function wherever a loaded ``repro`` module
    refers to it — modules that import a name directly hold their own
    reference, so each use site is rebound. Returns the sites rebound."""
    if original is None:
        return 0
    label = name if callable(name) else (lambda args, _n=name: _n)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return rec.call(label(args), original, args, kwargs, counts)

    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                rebound += 1
    return rebound


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        seen.append(current)
        todo.extend(current.__subclasses__())
    return seen


def install(rec: Recorder) -> list[str]:
    """Wrap every layer boundary the benchmark reports; returns the
    boundaries that were missing (a refactor renamed them)."""
    from importlib import import_module

    # import_module, not ``import a.b as m``: a package attribute can
    # shadow its submodule (``repro.search.mass`` is also a function).
    matrices = import_module("repro.classification.matrices")
    one_nn = import_module("repro.classification.one_nn")
    tuning = import_module("repro.classification.tuning")
    mass_module = import_module("repro.search.mass")
    engine_module = import_module("repro.serving.engine")
    server_module = import_module("repro.serving.server")
    detectors = import_module("repro.streaming.detectors")
    from repro.distances.base import DistanceMeasure
    from repro.embeddings.base import Embedding
    from repro.index.base import ReferenceIndex
    from repro.normalization.base import Normalizer
    from repro.serving.artifact import ModelArtifact
    from repro.serving.engine import QueryEngine
    from repro.streaming import StreamingMatrixProfile, StreamMonitor, StreamState

    missing: list[str] = []

    def need(ok, what):
        if not ok:
            missing.append(what)

    # -- HTTP: the root span is installed by wrap_handler ---------------
    handler = server_module._Handler
    need(_method(rec, handler, "_read_json_body", "http.decode"), "_Handler._read_json_body")
    need(_function(rec, getattr(server_module, "_parse_queries", None), "http.decode"), "_parse_queries")
    need(_method(rec, handler, "_respond", "http.encode"), "_Handler._respond")
    need(_method(rec, handler, "_send_staged", "http.write"), "_Handler._send_staged")

    # -- engine + normalization ------------------------------------------
    need(
        _method(
            rec, QueryEngine, "search", "engine.search",
            lambda a, k, r: {"cache_hits": int(r.cache_hits)},
        ),
        "QueryEngine.search",
    )
    need(_method(rec, Normalizer, "apply_dataset", "norm.apply"), "Normalizer.apply_dataset")
    need(_method(rec, Normalizer, "apply_pair", "norm.apply"), "Normalizer.apply_pair")

    # -- distances ---------------------------------------------------------
    need(
        _method(
            rec, DistanceMeasure, "pairwise",
            lambda a: f"dist.{a[0].category}",
            lambda a, k, r: {"pairs": int(r.size)},
        ),
        "DistanceMeasure.pairwise",
    )
    need(
        _function(
            rec, getattr(matrices, "_pairwise_normalized", None),
            lambda a: f"dist.{a[0].category}",
            lambda a, k, r: {"pairs": int(r.size)},
        ),
        "_pairwise_normalized",
    )
    for fn_name in ("ncc_c_matrix_from_reference", "cc_max_from_reference"):
        need(
            _function(
                rec, getattr(engine_module, fn_name, None), "dist.sliding",
                lambda a, k, r: {"pairs": int(r.size)},
            ),
            fn_name,
        )

    # -- index -------------------------------------------------------------
    def index_counts(a, k, r):
        stats = r[2]
        return {"candidates": int(stats.candidates), "refined": int(stats.refined)}

    found_search = False
    for cls in _subclasses(ReferenceIndex):
        found_search |= _method(rec, cls, "search", "index.search", index_counts)
        _method(rec, cls, "lower_bounds", "index.bounds")
        _method(rec, cls, "_refine_euclidean", "index.refine")
        _method(rec, cls, "_refine_dtw", "index.refine")
    need(found_search, "ReferenceIndex.search")

    # -- streaming + search ------------------------------------------------
    need(
        _method(
            rec, StreamMonitor, "append", "stream.monitor",
            lambda a, k, r: {"alerts": len(r)},
        ),
        "StreamMonitor.append",
    )
    need(
        _method(
            rec, StreamState, "append", "stream.state",
            lambda a, k, r: {"points": int(r), "dropped": len(a[1]) - int(r)},
        ),
        "StreamState.append",
    )
    need(_method(rec, StreamingMatrixProfile, "append", "stream.profile"), "StreamingMatrixProfile.append")
    for cls_name in ("DiscordDetector", "MotifDetector", "DriftDetector", "LabelMonitor"):
        cls = getattr(detectors, cls_name, None)
        need(cls is not None and _method(rec, cls, "update", "stream.detect"), f"{cls_name}.update")
    need(_function(rec, getattr(mass_module, "mass", None), "search.mass"), "mass")

    # -- classification + embeddings -----------------------------------------
    need(
        _function(rec, getattr(matrices, "dissimilarity_matrix", None), "classify.matrix"),
        "dissimilarity_matrix",
    )
    need(
        _function(
            rec, getattr(tuning, "tune_parameters", None), "classify.tune",
            lambda a, k, r: {"trials": len(r.trials)},
        ),
        "tune_parameters",
    )
    for fn_name in ("one_nn_predict", "one_nn_accuracy", "leave_one_out_accuracy"):
        need(_function(rec, getattr(one_nn, fn_name, None), "classify.one_nn"), fn_name)
    for cls in _subclasses(Embedding):
        _method(rec, cls, "fit", "embed.fit")
        _method(rec, cls, "transform", "embed.transform")

    # -- artifact load: recorded once, outside any op ------------------
    load = ModelArtifact.__dict__["load"].__func__

    def timed_load(cls, *args, **kwargs):
        start = time.perf_counter()
        try:
            return load(cls, *args, **kwargs)
        finally:
            rec.setup["load_s"] = time.perf_counter() - start

    ModelArtifact.load = classmethod(functools.wraps(load)(timed_load))
    return missing


def wrap_handler(rec: Recorder) -> None:
    """Make each HTTP request one op: its root span is ``http.request``,
    keyed by the client's trace id, recorded when the client asks."""
    from importlib import import_module

    handler = import_module("repro.serving.server")._Handler
    for attr in ("do_GET", "do_POST", "do_DELETE"):
        original = handler.__dict__[attr]

        def wrapper(self, _orig=original, _method=attr[3:]):
            if self.headers.get(RECORD_HEADER) != "1":
                return _orig(self)
            rec.begin(
                self.headers.get(TRACE_HEADER, ""),
                method=_method,
                path=self.path,
            )
            try:
                return rec.call("http.request", _orig, (self,), {})
            finally:
                rec.end()

        setattr(handler, attr, functools.wraps(original)(wrapper))


# ----------------------------------------------------------------------
# per-layer metrics from recorded ops
# ----------------------------------------------------------------------
def _p50(values) -> float:
    import numpy as np

    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(records: list[dict], latencies_s: list[float]) -> dict[str, float]:
    """Per-layer metrics of recorded ops (one record per op, in order,
    paired with each op's end-to-end latency)."""
    out: dict[str, float] = {}

    def self_s(record, span):
        return record["layers"].get(span, (0.0, 0.0, 0))[0]

    def total_s(record, span):
        return record["layers"].get(span, (0.0, 0.0, 0))[1]

    for metric, spans in _SELF_TIME.items():
        out[metric] = _p50(
            [sum(self_s(r, s) for s in spans) * 1e3 for r in records]
        )
    for metric, key in _COUNTS.items():
        values = [r["counts"].get(key, 0) for r in records]
        out[metric] = float(sum(values) / len(values)) if values else 0.0
    out["engine.search_ms"] = _p50([total_s(r, "engine.search") * 1e3 for r in records])
    for metric, span in (("norm.calls", "norm.apply"), ("search.mass_calls", "search.mass")):
        calls = [r["layers"].get(span, (0, 0, 0))[2] for r in records]
        out[metric] = sum(calls) / len(calls) if calls else 0.0
    candidates = sum(r["counts"].get("candidates", 0) for r in records)
    refined = sum(r["counts"].get("refined", 0) for r in records)
    out["index.prune_ratio"] = 1.0 - refined / candidates if candidates else 0.0

    server = [total_s(r, "http.request") for r in records]
    if any(server):
        out["http.server_ms"] = _p50([s * 1e3 for s in server])
        out["http.wait_ms"] = _p50(
            [(lat - s) * 1e3 for lat, s in zip(latencies_s, server)]
        )
    else:
        out["http.server_ms"] = out["http.wait_ms"] = 0.0
    unattributed = []
    for record in records:
        for root in ROOT_SPANS:
            if root in record["layers"]:
                own, total, _ = record["layers"][root]
                unattributed.append(100.0 * own / total if total else 0.0)
    out["trace.unattributed_pct"] = _p50(unattributed)
    return out
