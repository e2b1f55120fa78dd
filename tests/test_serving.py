"""Tests for the online query-serving subsystem (repro.serving).

Covers the three layers and their contracts:

- **artifacts**: fit/save/load round-trips, fingerprint stability, and
  integrity refusal on tampered bytes;
- **engine**: online predictions bitwise-identical to the offline
  ``one_nn_predict`` path for all three measure families, LRU cache
  semantics, and 8-thread concurrency determinism;
- **server**: endpoint behavior, malformed-request handling, 503 load
  shedding with zero wrong answers on admitted requests, metrics
  exposure, and graceful shutdown flushing in-flight requests.
"""

from __future__ import annotations

import base64
import io
import json
import shutil
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.classification.one_nn import one_nn_predict
from repro.datasets import default_archive
from repro.distances import get_measure
from repro.exceptions import ArtifactError, ServingError
from repro.normalization import get_normalizer
from repro.serving import (
    ARTIFACT_SCHEMA,
    AdmissionGate,
    ModelArtifact,
    QueryEngine,
    ReproServer,
)

#: (measure, normalization, params) triples spanning every engine route:
#: lock-step matrix kernel, sliding reference-FFT, banded DTW through
#: the full-resolution paa_lb index (LB_Keogh-ordered candidates
#: refined in blocks by the pair-batched DP), and the generic matrix
#: fallback of the other elastic measures.
FAMILY_CASES = [
    ("euclidean", "zscore", None),
    ("nccc", "zscore", None),
    ("dtw", "zscore", {"delta": 10.0}),
    ("msm", None, {"c": 0.5}),
]


@pytest.fixture(scope="module")
def dataset():
    return default_archive(n_datasets=4, size_scale=0.4, seed=3).subset(1)[0]


@pytest.fixture(scope="module")
def nccc_artifact(dataset):
    return ModelArtifact.fit_dataset(
        dataset, measure="nccc", normalization="zscore"
    )


def offline_labels(artifact: ModelArtifact, queries: np.ndarray) -> np.ndarray:
    """The offline reference path: normalize, full matrix, Algorithm 1."""
    if artifact.normalization is not None:
        queries = get_normalizer(artifact.normalization).apply_dataset(queries)
    E = get_measure(artifact.measure).pairwise(
        queries, artifact.train_X, **artifact.params
    )
    return one_nn_predict(E, artifact.train_y)


def post_json(url: str, payload: dict, timeout: float = 10.0):
    """POST helper returning ``(status, decoded_body)`` without raising."""
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestModelArtifact:
    def test_roundtrip_preserves_everything(self, dataset, tmp_path):
        art = ModelArtifact.fit_dataset(
            dataset, measure="nccc", normalization="zscore"
        )
        art.save(tmp_path / "a")
        loaded = ModelArtifact.load(tmp_path / "a")
        assert loaded.fingerprint == art.fingerprint
        assert loaded.measure == "nccc"
        assert loaded.normalization == "zscore"
        np.testing.assert_array_equal(loaded.train_X, art.train_X)
        np.testing.assert_array_equal(loaded.train_y, art.train_y)

    def test_fingerprint_is_config_and_data_sensitive(self, dataset):
        base = ModelArtifact.fit_dataset(dataset, measure="nccc")
        assert base.fingerprint == ModelArtifact.fit_dataset(
            dataset, measure="nccc"
        ).fingerprint
        assert base.fingerprint != ModelArtifact.fit_dataset(
            dataset, measure="euclidean"
        ).fingerprint
        assert base.fingerprint != ModelArtifact.fit_dataset(
            dataset, measure="nccc", normalization="zscore"
        ).fingerprint
        perturbed = dataset.train_X.copy()
        perturbed[0, 0] += 1.0
        assert base.fingerprint != ModelArtifact.fit(
            perturbed, dataset.train_y, measure="nccc"
        ).fingerprint

    def test_precomputations_per_family(self, dataset, tmp_path):
        """Derived arrays are built by the engine, never stored: only
        the reference arrays reach ``arrays.npz``."""
        n, m = dataset.train_X.shape
        for measure, params in (
            ("nccc", None), ("dtw", {"delta": 10.0}), ("euclidean", None),
        ):
            art = ModelArtifact.fit_dataset(
                dataset, measure=measure, params=params
            )
            path = art.save(tmp_path / measure)
            with np.load(path / "arrays.npz") as bundle:
                assert sorted(bundle.files) == ["train_X", "train_y"]
        sliding = QueryEngine(ModelArtifact.fit_dataset(dataset, measure="nccc"))
        assert sliding.searcher._reference.fft_conj.shape[0] == n
        elastic = QueryEngine(
            ModelArtifact.fit_dataset(
                dataset, measure="dtw", params={"delta": 10.0}
            )
        )
        (full,) = elastic.searcher._exact
        assert full.segments == m
        # At one frame per sample the frames are the envelopes, held once.
        assert set(full.arrays()) == {"frames"}
        assert full.arrays()["frames"].shape == (n, 2, m)

    def test_pairwise_normalization_rejected(self, dataset):
        with pytest.raises(ArtifactError, match="pairwise"):
            ModelArtifact.fit_dataset(
                dataset, measure="euclidean", normalization="adaptive"
            )

    def test_tampered_arrays_refused(self, dataset, tmp_path):
        art = ModelArtifact.fit_dataset(dataset, measure="euclidean")
        path = art.save(tmp_path / "a")
        with np.load(path / "arrays.npz") as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        arrays["train_X"][0, 0] += 1.0
        np.savez(path / "arrays.npz", **arrays)
        with pytest.raises(ArtifactError, match="integrity"):
            ModelArtifact.load(path)

    def test_tampered_manifest_refused(self, dataset, tmp_path):
        art = ModelArtifact.fit_dataset(dataset, measure="euclidean")
        path = art.save(tmp_path / "a")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["params"] = {"bogus": 1.0}
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="fingerprint"):
            ModelArtifact.load(path)

    def test_schema_and_missing_files_refused(self, dataset, tmp_path):
        with pytest.raises(ArtifactError, match="not an artifact"):
            ModelArtifact.load(tmp_path / "nope")
        art = ModelArtifact.fit_dataset(dataset, measure="euclidean")
        path = art.save(tmp_path / "a")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema"] = "repro.artifact/999"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="schema"):
            ModelArtifact.load(path)
        assert ARTIFACT_SCHEMA == "repro.artifact/1"


#: Artifacts written while derived arrays were still stored (see
#: :class:`TestParentFormatArtifacts`).
PARENT_ARTIFACTS = Path(__file__).parent / "data" / "parent_artifacts"


class TestParentFormatArtifacts:
    """Artifacts saved by earlier formats still load, verify and answer:

    - ``nccc`` and ``dtw`` list stored ``precomputed`` arrays (the
      sliding FFTs and norms, the DTW envelopes), saved by the last
      commit that stored those arrays;
    - ``dft_lb`` and ``isax`` carry the arrays of the retired Euclidean
      index kinds, saved by the last commit that had them; they load as
      the ``ed_scan`` kernel.

    Each was saved from the repository root with::

        PYTHONPATH=src python -c "
        import numpy as np
        from repro.serving import ModelArtifact
        rng = np.random.default_rng(1717)
        X = rng.normal(size=(6, 16)); y = np.arange(6) % 2
        ModelArtifact.fit(X, y, measure='nccc', normalization='zscore'
            ).save('tests/data/parent_artifacts/nccc')
        ModelArtifact.fit(X, y, measure='dtw', normalization='zscore',
            params={'delta': 10.0}).save('tests/data/parent_artifacts/dtw')
        for kind in ('dft_lb', 'isax'):
            ModelArtifact.fit(X, y, measure='euclidean',
                normalization='zscore', index=kind
                ).save('tests/data/parent_artifacts/' + kind)
        "
    """

    #: fixture -> (measure, params, index)
    CASES = {
        "nccc": ("nccc", None, None),
        "dtw": ("dtw", {"delta": 10.0}, None),
        "dft_lb": ("euclidean", None, "dft_lb"),
        "isax": ("euclidean", None, "isax"),
    }

    @staticmethod
    def fresh_fit(measure, params, index):
        rng = np.random.default_rng(1717)
        X = rng.normal(size=(6, 16))
        return ModelArtifact.fit(
            X, np.arange(6) % 2, measure=measure, normalization="zscore",
            params=params, index=index,
        )

    @staticmethod
    def stored_arrays(manifest):
        """The fixture's arrays beyond the reference set."""
        return manifest.get("precomputed") or manifest["index_arrays"]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_loads_with_recorded_fingerprint(self, name):
        path = PARENT_ARTIFACTS / name
        manifest = json.loads((path / "manifest.json").read_text())
        assert self.stored_arrays(manifest), "fixture lost its stored arrays"
        loaded = ModelArtifact.load(path)
        assert loaded.fingerprint == manifest["fingerprint"]
        fresh = self.fresh_fit(*self.CASES[name])
        if self.CASES[name][2] is None:
            assert fresh.fingerprint == manifest["fingerprint"]
        else:
            # A retired kind now fits (and records) the kernel.
            assert loaded.index_specs == tuple(manifest["indexes"])
            assert fresh.index_specs == ({"kind": "ed_scan"},)
            assert [ix.kind for ix in loaded.indexes] == ["ed_scan"]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_answers_like_a_fresh_fit(self, name):
        loaded = QueryEngine(ModelArtifact.load(PARENT_ARTIFACTS / name))
        fresh = QueryEngine(self.fresh_fit(*self.CASES[name]))
        queries = np.random.default_rng(3).normal(size=(5, 16))
        for k in (1, 3, 6):
            for mode in ("exact", "brute"):
                got = loaded.search(queries, k=k, mode=mode)
                want = fresh.search(queries, k=k, mode=mode)
                np.testing.assert_array_equal(got.indices, want.indices)
                np.testing.assert_array_equal(got.distances, want.distances)

    @pytest.mark.parametrize("measure", sorted(CASES))
    def test_flipped_stored_array_byte_refused(self, measure, tmp_path):
        path = tmp_path / measure
        shutil.copytree(PARENT_ARTIFACTS / measure, path)
        manifest = json.loads((path / "manifest.json").read_text())
        with np.load(path / "arrays.npz") as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        name = self.stored_arrays(manifest)[0]
        arrays[name] = arrays[name].copy()
        arrays[name].view(np.uint8).reshape(-1)[0] ^= 1
        np.savez(path / "arrays.npz", **arrays)
        with pytest.raises(ArtifactError, match=f"integrity.*{name}"):
            ModelArtifact.load(path)


class TestServedDistancesAreTheDefinition:
    """Every served NCC_c and ED distance is the scalar measure's, bitwise,
    also for references and queries of near-zero norm (scaled by 1e-7 and
    1e-13, and zero), where NCC_c's zero rule decides."""

    @pytest.fixture(scope="class")
    def near_zero(self):
        gen = np.random.default_rng(31)
        X = gen.normal(size=(8, 24))
        X[[1, 5]] *= 1e-7
        X[[2, 6]] *= 1e-13
        X[3] = 0.0
        Q = np.vstack([gen.normal(size=(2, 24)), 0.5 * X[[1, 2, 3, 6]]])
        return X, Q

    @pytest.mark.parametrize("measure", ["nccc", "euclidean"])
    def test_search_answers_the_scalar_measure(self, near_zero, measure):
        X, Q = near_zero
        engine = QueryEngine(
            ModelArtifact.fit(X, np.arange(8) % 2, measure=measure),
            cache_size=0,
        )
        m = get_measure(measure)
        want = np.array([[m(q, x) for x in X] for q in Q])
        order = np.argsort(want, axis=1, kind="stable")
        for mode in ("exact", "brute"):
            got = engine.search(Q, k=X.shape[0], mode=mode)
            np.testing.assert_array_equal(got.indices, order, err_msg=mode)
            np.testing.assert_array_equal(
                got.distances, np.take_along_axis(want, order, axis=1),
                err_msg=mode,
            )


class TestQueryEngine:
    @pytest.mark.parametrize("measure,norm,params", FAMILY_CASES)
    def test_online_equals_offline_bitwise(
        self, dataset, tmp_path, measure, norm, params
    ):
        art = ModelArtifact.fit_dataset(
            dataset, measure=measure, normalization=norm, params=params
        )
        # Through a save/load cycle, as production would run it.
        art.save(tmp_path / measure)
        engine = QueryEngine(ModelArtifact.load(tmp_path / measure))
        online = engine.predict(dataset.test_X)
        np.testing.assert_array_equal(
            online, offline_labels(art, dataset.test_X)
        )

    def test_routes(self, dataset):
        def route(measure, **kw):
            return QueryEngine(
                ModelArtifact.fit_dataset(dataset, measure=measure, **kw)
            ).route

        assert route("euclidean") == "index"
        assert route("nccc") == "sliding"
        assert route("dtw", params={"delta": 10.0}) == "index"
        assert route("msm") == "matrix"

    def test_cascade_toggle_agrees(self, dataset):
        """Pruning on (exact) and off (brute) agree with the offline
        pairwise answer; the LB_Keogh cut pruned something on smooth
        data."""
        art = ModelArtifact.fit_dataset(
            dataset, measure="dtw", normalization="zscore",
            params={"delta": 10.0},
        )
        engine = QueryEngine(art)
        with_cascade = engine.search(dataset.test_X)
        without = engine.search(dataset.test_X, mode="brute")
        offline = offline_labels(art, dataset.test_X)
        np.testing.assert_array_equal(
            art.train_y[with_cascade.indices[:, 0]], offline
        )
        np.testing.assert_array_equal(
            art.train_y[without.indices[:, 0]], offline
        )
        np.testing.assert_array_equal(
            with_cascade.distances, without.distances
        )
        assert with_cascade.stats.pruned > 0
        assert without.stats.pruned == 0

    def test_query_shape_validated(self, nccc_artifact):
        engine = QueryEngine(nccc_artifact)
        with pytest.raises(ServingError, match="length"):
            engine.predict(np.zeros(7))

    def test_cache_hits_and_eviction(self, dataset, nccc_artifact):
        engine = QueryEngine(nccc_artifact, cache_size=4)
        batch = dataset.test_X[:3]
        first = engine.search(batch)
        assert first.cache_hits == 0
        second = engine.search(batch)
        assert second.cache_hits == 3
        np.testing.assert_array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(first.distances, second.distances)
        stats = engine.cache_stats()
        assert stats.hits == 3 and stats.misses == 3 and stats.size == 3
        # Overflow the 4-entry cache: oldest entries evict, size bounded.
        engine.predict(dataset.test_X[3:9])
        stats = engine.cache_stats()
        assert stats.size == 4
        assert stats.evictions > 0

    def test_cache_disabled(self, dataset, nccc_artifact):
        engine = QueryEngine(nccc_artifact, cache_size=0)
        engine.predict(dataset.test_X[:2])
        engine.predict(dataset.test_X[:2])
        stats = engine.cache_stats()
        assert stats.hits == 0 and stats.size == 0 and stats.capacity == 0

    def test_single_series_query(self, dataset, nccc_artifact):
        engine = QueryEngine(nccc_artifact)
        label = engine.predict(dataset.test_X[0])
        assert label.shape == (1,)
        np.testing.assert_array_equal(
            label, offline_labels(nccc_artifact, dataset.test_X[:1])
        )


class TestConcurrency:
    @pytest.mark.parametrize("measure,norm,params", FAMILY_CASES[:3])
    def test_8_threads_bitwise_equal_serial(
        self, dataset, measure, norm, params
    ):
        art = ModelArtifact.fit_dataset(
            dataset, measure=measure, normalization=norm, params=params
        )
        serial = QueryEngine(art, cache_size=64).predict(dataset.test_X)
        engine = QueryEngine(art, cache_size=64)
        # 8 threads x 4 rounds over overlapping slices: plenty of cache
        # races, identical answers required.
        slices = [
            dataset.test_X[i % dataset.test_X.shape[0]:][:5]
            for i in range(32)
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(engine.predict, slices))
        for q, labels in zip(slices, results):
            offset = next(
                i for i in range(dataset.test_X.shape[0])
                if np.array_equal(dataset.test_X[i], q[0])
            )
            np.testing.assert_array_equal(
                labels, serial[offset:offset + q.shape[0]]
            )

    def test_cache_counters_consistent_under_race(self, dataset, nccc_artifact):
        engine = QueryEngine(nccc_artifact, cache_size=1024)
        batch = dataset.test_X[:6]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: engine.search(batch), range(16))
            )
        for result in results[1:]:
            np.testing.assert_array_equal(results[0].indices, result.indices)
            np.testing.assert_array_equal(
                results[0].distances, result.distances
            )
        stats = engine.cache_stats()
        # Every query was either a hit or a miss, nothing lost or
        # double-counted even when threads raced on the same keys.
        assert stats.hits + stats.misses == 16 * 6
        assert stats.misses >= 6  # at least the first computation
        assert stats.size == 6


class TestAdmissionGate:
    def test_admit_and_release(self):
        gate = AdmissionGate(2)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        gate.leave()
        assert gate.depth == 1
        assert gate.try_enter()

    def test_invalid_limit(self):
        with pytest.raises(ServingError):
            AdmissionGate(0)


@pytest.fixture()
def live_server(dataset, nccc_artifact):
    engine = QueryEngine(nccc_artifact)
    server = ReproServer(engine, port=0, max_inflight=4, retry_after=0.5)
    server.start_background()
    yield server, engine
    if server._thread is not None:
        server.shutdown()


class TestServer:
    def test_predict_json(self, dataset, live_server):
        server, engine = live_server
        status, body, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:4].tolist()},
        )
        assert status == 200
        expected = offline_labels(engine.artifact, dataset.test_X[:4])
        assert body["labels"] == expected.tolist()
        assert body["batch"] == 4
        assert len(body["indices"]) == len(body["distances"]) == 4

    def test_predict_npy_b64(self, dataset, live_server):
        server, engine = live_server
        buf = io.BytesIO()
        np.save(buf, dataset.test_X[:3])
        status, body, _ = post_json(
            server.url + "/predict",
            {"queries_npy_b64": base64.b64encode(buf.getvalue()).decode()},
        )
        assert status == 200
        expected = offline_labels(engine.artifact, dataset.test_X[:3])
        assert body["labels"] == expected.tolist()

    def test_healthz(self, live_server):
        server, engine = live_server
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as r:
            body = json.loads(r.read())
        assert body["status"] == "ok"
        assert body["artifact"]["fingerprint"] == engine.artifact.fingerprint
        assert body["artifact"]["measure"] == "nccc"

    def test_metrics_reports_request_percentiles(self, dataset, live_server):
        server, _ = live_server
        for _ in range(3):
            post_json(
                server.url + "/predict",
                {"queries": dataset.test_X[:2].tolist()},
            )
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
            body = json.loads(r.read())
        requests = [
            rec for rec in body["metrics"] if rec["name"] == "serve.request"
        ]
        assert sum(rec["aggregate"]["count"] for rec in requests) >= 3
        assert max(rec["aggregate"]["p95"] for rec in requests) > 0.0
        predicts = [
            rec for rec in body["metrics"] if rec["name"] == "serve.predict"
        ]
        assert predicts and all(
            rec["attrs"].get("measure") == "nccc" for rec in predicts
        )
        assert body["cache"]["capacity"] > 0

    def test_bad_requests(self, live_server):
        server, _ = live_server
        status, body, _ = post_json(server.url + "/predict", {"nope": 1})
        assert status == 400 and "queries" in body["error"]
        status, body, _ = post_json(
            server.url + "/predict", {"queries": [["x"]]}
        )
        assert status == 400
        status, body, _ = post_json(server.url + "/nothing", {"queries": []})
        assert status == 404


@pytest.fixture()
def indexed_server(dataset):
    """A live server whose artifact carries both an exact and an ANN index."""
    artifact = ModelArtifact.fit_dataset(
        dataset, measure="euclidean", normalization="zscore",
        index=["dft_lb", "grail_ann"],
    )
    engine = QueryEngine(artifact)
    server = ReproServer(engine, port=0, max_inflight=4)
    server.start_background()
    yield server, engine
    if server._thread is not None:
        server.shutdown()


class TestServerSearchAPI:
    """Schema negotiation and index counters on the redesigned /predict."""

    def test_legacy_request_gets_v1_shape(self, dataset, indexed_server):
        server, _ = indexed_server
        status, body, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:3].tolist()},
        )
        assert status == 200
        assert "schema" not in body
        assert set(body) == {
            "labels", "indices", "distances", "cache_hits", "batch",
        }
        assert not isinstance(body["indices"][0], list)  # flat, not nested

    def test_k_request_upgrades_to_v2(self, dataset, indexed_server):
        server, engine = indexed_server
        status, body, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:3].tolist(), "k": 3},
        )
        assert status == 200
        assert body["schema"] == 2
        assert body["k"] == 3 and body["mode"] == "exact"
        assert len(body["neighbor_indices"]) == 3
        assert len(body["neighbor_indices"][0]) == 3
        expected = engine.search(dataset.test_X[:3], k=3)
        assert body["neighbor_indices"] == expected.indices.tolist()
        assert body["pruned"] + body["full_computations"] > 0

    def test_explicit_schema_2_without_k(self, dataset, indexed_server):
        server, _ = indexed_server
        status, body, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:2].tolist(), "schema": 2},
        )
        assert status == 200
        assert body["schema"] == 2 and body["k"] == 1

    def test_v1_with_k_gt_1_rejected(self, dataset, indexed_server):
        server, _ = indexed_server
        status, body, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:2].tolist(), "schema": 1, "k": 3},
        )
        assert status == 400 and "schema" in body["error"]

    def test_mode_approx_and_brute(self, dataset, indexed_server):
        server, _ = indexed_server
        status, body, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:3].tolist(), "mode": "approx"},
        )
        assert status == 200 and body["mode"] == "approx"
        status, exact, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:3].tolist(), "mode": "exact", "k": 2},
        )
        status, brute, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:3].tolist(), "mode": "brute", "k": 2},
        )
        assert exact["neighbor_distances"] == brute["neighbor_distances"]
        status, body, _ = post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:2].tolist(), "mode": "fastest"},
        )
        assert status == 400

    def test_retired_index_pins_resolve_to_the_kernel(
        self, dataset, indexed_server
    ):
        """The artifact was fitted with ``dft_lb``, which fits ``ed_scan``;
        a pin on any retired Euclidean kind answers through it."""
        server, engine = indexed_server
        queries = dataset.test_X[:3].tolist()
        expected = engine.search(dataset.test_X[:3], k=2)
        assert expected.engine == "index:ed_scan"
        for pin in ("ed_scan", "dft_lb", "isax", "paa_lb"):
            status, body, _ = post_json(
                server.url + "/predict",
                {"queries": queries, "k": 2, "index": pin},
            )
            assert status == 200, body
            assert body["neighbor_indices"] == expected.indices.tolist()
            assert body["neighbor_distances"] == expected.distances.tolist()

    def test_index_counters_in_both_metrics_formats(
        self, dataset, indexed_server
    ):
        server, _ = indexed_server
        post_json(
            server.url + "/predict",
            {"queries": dataset.test_X[:4].tolist(), "k": 2},
        )
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
            body = json.loads(r.read())
        assert body["counters"].get("serve.index.candidates", 0) > 0
        assert "serve.index.pruned" in body["counters"]
        req = urllib.request.Request(
            server.url + "/metrics?format=prometheus"
        )
        with urllib.request.urlopen(req, timeout=10) as r:
            text = r.read().decode()
        assert "repro_serve_index_candidates_total" in text
        assert "repro_serve_index_pruned_total" in text

    def test_overload_sheds_with_503_and_no_wrong_answers(
        self, dataset, nccc_artifact
    ):
        engine = QueryEngine(nccc_artifact, cache_size=0)
        server = ReproServer(engine, port=0, max_inflight=1, retry_after=2.0)
        entered, release = threading.Event(), threading.Event()
        inner = engine.search

        def slow_search(queries, **kwargs):
            entered.set()
            assert release.wait(10.0)
            return inner(queries, **kwargs)

        engine.search = slow_search  # type: ignore[method-assign]
        expected = offline_labels(nccc_artifact, dataset.test_X[:2])
        with server.start_background():
            first: dict = {}

            def admitted_request():
                first["response"] = post_json(
                    server.url + "/predict",
                    {"queries": dataset.test_X[:2].tolist()},
                )

            thread = threading.Thread(target=admitted_request)
            thread.start()
            assert entered.wait(10.0)
            # Gate full: the second request must shed immediately.
            status, body, headers = post_json(
                server.url + "/predict",
                {"queries": dataset.test_X[:2].tolist()},
            )
            assert status == 503
            assert headers.get("Retry-After") == "2"
            assert body["limit"] == 1
            release.set()
            thread.join(timeout=10.0)
        status, body, _ = first["response"]
        assert status == 200
        assert body["labels"] == expected.tolist()

    def test_graceful_shutdown_flushes_inflight(self, dataset, nccc_artifact):
        engine = QueryEngine(nccc_artifact, cache_size=0)
        server = ReproServer(engine, port=0, max_inflight=4)
        entered, release = threading.Event(), threading.Event()
        inner = engine.search

        def slow_search(queries, **kwargs):
            entered.set()
            assert release.wait(10.0)
            return inner(queries, **kwargs)

        engine.search = slow_search  # type: ignore[method-assign]
        server.start_background()
        result: dict = {}

        def inflight_request():
            result["response"] = post_json(
                server.url + "/predict",
                {"queries": dataset.test_X[:1].tolist()},
            )

        request_thread = threading.Thread(target=inflight_request)
        request_thread.start()
        assert entered.wait(10.0)
        shutdown_thread = threading.Thread(target=server.shutdown)
        shutdown_thread.start()
        # Shutdown must block on the in-flight request, not abort it.
        shutdown_thread.join(timeout=0.3)
        assert shutdown_thread.is_alive()
        release.set()
        request_thread.join(timeout=10.0)
        shutdown_thread.join(timeout=10.0)
        assert not shutdown_thread.is_alive()
        status, body, _ = result["response"]
        assert status == 200
        assert body["labels"] == offline_labels(
            nccc_artifact, dataset.test_X[:1]
        ).tolist()
