"""Load harness for the online serving subsystem.

Two measurements, mirroring the two halves of the serving stack:

1. **In-process engine latency** — each batched ``QueryEngine.search``
   timed with ``time.perf_counter``, reporting exact p50/p95/p99 per
   route (sliding FFT vs the DTW cascade, served by a full-resolution
   ``paa_lb`` index that refines LB_Keogh-ordered candidates in blocks
   through the pair-batched DP) for both cold (cache-miss) and hot (cache-hit)
   batches. The ``serve.predict`` histogram buckets sit about 9% apart,
   too coarse to see a change smaller than one bucket.

2. **Closed-loop HTTP load** — a live :class:`~repro.serving.ReproServer`
   hammered by concurrent client threads, each issuing requests
   back-to-back. A deliberately small admission gate makes the server
   shed under the burst, and the harness verifies the backpressure
   contract: every admitted (HTTP 200) response carries labels
   bitwise-identical to the offline ``one_nn_predict`` answer, every
   rejected request is a clean 503 + ``Retry-After``, and nothing hangs.

The rendered report quotes the server-side ``serve.request`` percentiles
next to the shed counts, so EXPERIMENTS.md can track serving latency the
same way it tracks the paper's Figure 9 runtimes.
"""

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.classification.one_nn import one_nn_predict
from repro.datasets import default_archive
from repro.distances import get_measure
from repro.normalization import get_normalizer
from repro.serving import ModelArtifact, QueryEngine, ReproServer

from conftest import run_once

#: Engine-side measurement: batches per route, queries per batch.
ENGINE_BATCHES = 20
ENGINE_BATCH_SIZE = 8

#: Closed-loop client shape: threads x requests each, queries per request.
CLIENT_THREADS = 8
REQUESTS_PER_THREAD = 15
REQUEST_BATCH = 4

#: Gate deliberately smaller than the client concurrency so the burst
#: exercises the shedding path, not just the happy path.
MAX_INFLIGHT = 2


def _fit(dataset, measure, **kwargs):
    return ModelArtifact.fit_dataset(
        dataset, measure=measure, normalization="zscore", **kwargs
    )


def _offline_labels(artifact, queries):
    normalized = get_normalizer("zscore").apply_dataset(queries)
    E = get_measure(artifact.measure).pairwise(
        normalized, artifact.train_X, **artifact.params
    )
    return one_nn_predict(E, artifact.train_y)


def _aggregates(sink, name):
    """(attrs, aggregate) pairs of one span name from a metrics sink."""
    return [
        (rec["attrs"], rec["aggregate"])
        for rec in sink.to_dicts()
        if rec["name"] == name
    ]


def _engine_latencies(dataset):
    """Per-route cold/hot batch latencies: ``(measure, route, phase,
    {"p50", "p95", "p99"})`` in seconds, exact over the batches."""
    rng = np.random.default_rng(20200607)
    queries = rng.standard_normal(
        (ENGINE_BATCHES * ENGINE_BATCH_SIZE, dataset.train_X.shape[1])
    )
    rows = []
    for measure, params in (("nccc", None), ("dtw", {"delta": 10.0})):
        engine = QueryEngine(_fit(dataset, measure, params=params))
        for phase in ("cold", "hot"):
            times = []
            for i in range(ENGINE_BATCHES):
                batch = queries[
                    i * ENGINE_BATCH_SIZE : (i + 1) * ENGINE_BATCH_SIZE
                ]
                start = time.perf_counter()
                route = engine.search(batch).engine
                times.append(time.perf_counter() - start)
            p50, p95, p99 = np.percentile(times, [50, 95, 99])
            rows.append(
                (measure, route, phase, {"p50": p50, "p95": p95, "p99": p99})
            )
    return rows


def _post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _closed_loop(dataset):
    """Concurrent client burst against a live server; returns the tally."""
    artifact = _fit(dataset, "nccc")
    engine = QueryEngine(artifact, cache_size=0)
    server = ReproServer(engine, port=0, max_inflight=MAX_INFLIGHT)
    rng = np.random.default_rng(7)
    batches = [
        rng.standard_normal((REQUEST_BATCH, dataset.train_X.shape[1]))
        for _ in range(CLIENT_THREADS * REQUESTS_PER_THREAD)
    ]
    expected = [_offline_labels(artifact, b).tolist() for b in batches]

    def client(worker):
        ok = shed = wrong = 0
        for r in range(REQUESTS_PER_THREAD):
            i = worker * REQUESTS_PER_THREAD + r
            status, body = _post(
                server.url + "/predict", {"queries": batches[i].tolist()}
            )
            if status == 200:
                ok += 1
                if body["labels"] != expected[i]:
                    wrong += 1
            elif status == 503:
                shed += 1
        return ok, shed, wrong

    with server.start_background():
        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
            tallies = list(pool.map(client, range(CLIENT_THREADS)))
        request_aggs = _aggregates(server.sink, "serve.request")
    ok = sum(t[0] for t in tallies)
    shed = sum(t[1] for t in tallies)
    wrong = sum(t[2] for t in tallies)
    return ok, shed, wrong, request_aggs


def test_serving_load(benchmark, save_result):
    dataset = default_archive(n_datasets=4, size_scale=0.4, seed=3).subset(1)[0]

    def experiment():
        return _engine_latencies(dataset), _closed_loop(dataset)

    engine_rows, (ok, shed, wrong, request_aggs) = run_once(
        benchmark, experiment
    )

    lines = [
        "Serving: engine latency percentiles (per batch of "
        f"{ENGINE_BATCH_SIZE}) and closed-loop HTTP load",
        "",
        f"{'measure':<8} {'route':<12} {'phase':<5} "
        f"{'p50':>10} {'p95':>10} {'p99':>10}",
    ]
    for measure, route, phase, agg in engine_rows:
        lines.append(
            f"{measure:<8} {route:<12} {phase:<5} "
            f"{agg['p50'] * 1e3:9.3f}ms {agg['p95'] * 1e3:9.3f}ms "
            f"{agg['p99'] * 1e3:9.3f}ms"
        )
    total = CLIENT_THREADS * REQUESTS_PER_THREAD
    lines += [
        "",
        f"closed loop: {CLIENT_THREADS} threads x {REQUESTS_PER_THREAD} "
        f"requests, max_inflight={MAX_INFLIGHT}",
        f"  admitted 200s: {ok}/{total}   shed 503s: {shed}/{total}   "
        f"wrong answers on admitted: {wrong}",
    ]
    for attrs, agg in sorted(
        request_aggs, key=lambda rec: str(rec[0])
    ):
        lines.append(
            f"  serve.request {attrs}: count={agg['count']} "
            f"p50={agg['p50'] * 1e3:.3f}ms p95={agg['p95'] * 1e3:.3f}ms"
        )

    # The backpressure contract: every response accounted for, every
    # admitted answer correct, and the tiny gate actually shed load.
    assert ok + shed == total
    assert wrong == 0
    assert ok > 0
    predict_p95 = max(
        agg["p95"]
        for attrs, agg in request_aggs
        if attrs.get("path") == "/predict" and attrs.get("status") == 200
    )
    assert predict_p95 > 0.0

    # Hot (cache-hit) batches must not be slower than cold ones.
    by_key = {
        (measure, phase): agg["p50"]
        for measure, route, phase, agg in engine_rows
    }
    for measure in ("nccc", "dtw"):
        assert by_key[(measure, "hot")] <= by_key[(measure, "cold")] * 1.5

    save_result("serving_load", "\n".join(lines))
