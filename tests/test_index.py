"""Tests for the sub-linear query path (repro.index + engine modes).

The index layer is exactness-critical in four different ways:

- **admissibility** — ``paa_lb``'s DTW lower bound must never exceed
  the true distance, for *any* inputs, across the paper's Table-4
  parameter grid (checked property-style against brute-force oracles);
- **the Euclidean kernel** — ``ed_scan`` must equal an independent
  brute oracle (the row-wise distance to every reference, then
  ``np.lexsort``) bitwise on adversarial inputs, with its certified
  slack load-bearing and its screen blocked under a memory budget;
- **the DTW route** — ``paa_lb``'s ascending-bound blocks must equal
  stable argsort over ``pairwise("dtw")`` bitwise on the same inputs,
  with rounds spanning several DP chunks and its bound arrays held
  under a memory budget;
- **parity** — ``mode="exact"`` answers must be bitwise-identical to
  ``mode="brute"`` (same refine arithmetic, pruning toggled), and the
  approximate path must clear a measured recall@1 gate on a pinned
  clustered workload.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import get_measure
from repro.distances.elastic import _dp, dtw
from repro.exceptions import (
    ArtifactError,
    IndexBuildError,
    ServingError,
    ValidationError,
)
from repro.index import (
    EuclideanScan,
    PAALowerBoundIndex,
    build_index,
    indexable_kinds,
    list_index_kinds,
    normalize_index_specs,
    restore_index,
)
from repro.index import base as index_base
from repro.index import lower_bound, scan
from repro.normalization import get_normalizer
from repro.search import NeighborResult, nearest_neighbors
from repro.serving import ModelArtifact, QueryEngine

#: Banded-DTW deltas from the paper's Table 4 tuning grid (percent band).
TABLE4_DELTAS = [0.0, 5.0, 10.0, 20.0, 100.0]


def clustered_dataset(seed=11, prototypes=8, members=25, length=64, noise=0.25):
    """Multi-prototype z-normalized data where truncated representations
    can discriminate (iid noise would concentrate all distances)."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 2 * np.pi, length)
    protos = [
        np.sin((i % 4 + 1) * t + rng.uniform(0, np.pi)) for i in range(prototypes)
    ]
    X = np.vstack(
        [p + rng.normal(0, noise, length) for p in protos for _ in range(members)]
    )
    X = (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, keepdims=True)
    y = np.repeat(np.arange(prototypes), members)
    Q = X[:: members // 2] + rng.normal(0, noise / 4, (len(X[:: members // 2]), length))
    Q = (Q - Q.mean(axis=1, keepdims=True)) / Q.std(axis=1, keepdims=True)
    return X, y, Q


@pytest.fixture(scope="module")
def workload():
    return clustered_dataset()


@st.composite
def pair_sets(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=3, max_value=10))
    m = draw(st.integers(min_value=8, max_value=40))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, m)) * draw(
        st.sampled_from([0.1, 1.0, 10.0])
    ), rng.normal(size=m)


class TestAdmissibility:
    """LB(q, x) <= d(q, x) for ``paa_lb`` over DTW, any real inputs."""

    @given(
        pair_sets(),
        st.sampled_from(TABLE4_DELTAS),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_paa_dtw_lower_bound_admissible(self, data, delta, segments):
        X, q = data
        index = PAALowerBoundIndex.build(
            X, measure="dtw", params={"delta": delta}, segments=segments
        )
        bounds = index.lower_bounds(q)
        true = np.array([dtw(q, x, delta) for x in X])
        assert np.all(bounds <= true * (1 + 1e-9) + 1e-9)


def row_wise_oracle(X, Q, k):
    """Independent brute top-k: the row-wise distance to every
    reference, then stable ``(distance, index)`` order via lexsort."""
    D = np.sqrt(((X[None, :, :] - Q[:, None, :]) ** 2).sum(axis=2))
    index = np.arange(X.shape[0])
    order = np.array([np.lexsort((index, row))[:k] for row in D])
    return order, np.take_along_axis(D, order, axis=1)


class TestEuclideanKernel:
    """``ed_scan`` against the row-wise brute oracle, bitwise."""

    @pytest.fixture(scope="class")
    def cases(self, adversarial_batches):
        """``(references, queries)`` per input: the references' first
        rows themselves (exact ties on duplicates) plus perturbed copies."""
        rng = np.random.default_rng(19)
        out = {}
        for name, X in adversarial_batches.items():
            Q = np.vstack(
                [X[:3], X[:3] + 0.01 * rng.normal(size=(3, X.shape[1]))]
            )
            out[name] = (X, Q)
        X, _, Q = clustered_dataset()
        out["clustered"] = (X, np.vstack([X[:3], Q]))
        return out

    @pytest.mark.parametrize("k", ["1", "3", "n"])
    @pytest.mark.parametrize(
        "name",
        [
            "more_rows_than_one_block", "zero_row", "constant_rows",
            "duplicate_rows", "large_offset", "length_1", "length_2",
            "clustered",
        ],
    )
    def test_equals_row_wise_oracle(self, cases, name, k):
        X, Q = cases[name]
        k = X.shape[0] if k == "n" else int(k)
        index = build_index("ed_scan", X, measure="euclidean", params={})
        idx, dist, stats = index.search(Q, k)
        want_idx, want_dist = row_wise_oracle(X, Q, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_dist)
        assert stats.candidates == Q.shape[0] * X.shape[0]
        assert stats.refined >= k * Q.shape[0]

    @pytest.mark.parametrize("chunk_rows", [None, 1])
    @pytest.mark.parametrize("k", ["1", "3", "n"])
    def test_brute_scan_equals_row_wise_oracle(
        self, cases, k, chunk_rows, monkeypatch
    ):
        """``prune=False`` (``mode="brute"``) merges each refine chunk into
        the running top k; with one row per chunk every tie and
        duplicate crosses a chunk boundary."""
        for name, (X, Q) in cases.items():
            kk = X.shape[0] if k == "n" else int(k)
            index = build_index("ed_scan", X, measure="euclidean", params={})
            with monkeypatch.context() as patch:
                if chunk_rows is not None:
                    patch.setattr(
                        index_base, "REFINE_BUDGET", chunk_rows * X.shape[1]
                    )
                idx, dist, stats = index.search(Q, kk, prune=False)
            want_idx, want_dist = row_wise_oracle(X, Q, kk)
            np.testing.assert_array_equal(idx, want_idx, err_msg=name)
            np.testing.assert_array_equal(dist, want_dist, err_msg=name)
            assert stats.refined == stats.candidates == Q.shape[0] * X.shape[0]

    def test_slack_is_load_bearing(self, adversarial_batches, monkeypatch):
        """Near-duplicates at a large offset: the GEMM screen's rounding
        (~1e-2 here) dwarfs their spread (~1e-5), so without the slack
        the screen keeps the wrong references."""
        X = adversarial_batches["large_offset"]
        Q = X + 1e-4
        index = build_index("ed_scan", X, measure="euclidean", params={})
        want = row_wise_oracle(X, Q, 3)
        got = index.search(Q, 3)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[2].refined == Q.shape[0] * X.shape[0]  # all survive
        monkeypatch.setattr(
            scan, "screen_slack", lambda m, weight: np.zeros_like(weight)
        )
        unslacked = index.search(Q, 3)
        assert not np.array_equal(unslacked[0], want[0])

    def test_blocks_and_chunks_equal_one_block(self, monkeypatch):
        X, _, Q = clustered_dataset()
        Q = np.vstack([Q, X[::7]])
        index = build_index("ed_scan", X, measure="euclidean", params={})
        for k in (1, 5):
            one_idx, one_dist, one_stats = index.search(Q, k)
            with monkeypatch.context() as patch:
                patch.setattr(scan, "SCREEN_BUDGET", 3 * X.shape[0] - 1)
                patch.setattr(scan, "REFINE_BUDGET", 1)
                idx, dist, stats = index.search(Q, k)
            np.testing.assert_array_equal(idx, one_idx)
            np.testing.assert_array_equal(dist, one_dist)
            assert stats == one_stats

    def test_screen_memory_bounded_by_budget(self):
        """256 queries x 2e4 references: one block would hold 5.12e6
        screen values (plus ``np.partition``'s copy, 82 MB); the budget
        keeps the peak at a block's screen and copy."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20_000, 32))
        Q = X[:256] + 0.01 * rng.normal(size=(256, 32))
        index = EuclideanScan(X, "euclidean", {})
        tracemalloc.start()
        try:
            index.search(Q, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * scan.SCREEN_BUDGET, peak

    def test_norms_are_not_stored(self, workload):
        X, _, Q = workload
        index = build_index("ed_scan", X, measure="euclidean", params={})
        assert index.spec() == {"kind": "ed_scan"} and index.arrays() == {}
        revived = restore_index(
            index.spec(), {}, X, measure="euclidean", params={}
        )
        np.testing.assert_array_equal(revived.search(Q, 3)[1], index.search(Q, 3)[1])


class TestExactParity:
    """mode='exact' must equal the unpruned scan bitwise, while pruning."""

    @pytest.mark.parametrize("kind", ["ed_scan", "dft_lb", "paa_lb", "isax"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_euclidean_bitwise_parity(self, workload, kind, k):
        X, _, Q = workload
        index = build_index(kind, X, measure="euclidean", params={})
        exact_idx, exact_dist, stats = index.search(Q, k)
        brute_idx, brute_dist, _ = index.search(Q, k, prune=False)
        np.testing.assert_array_equal(exact_idx, brute_idx)
        np.testing.assert_array_equal(exact_dist, brute_dist)
        assert exact_idx.shape == (Q.shape[0], k)
        assert stats.candidates == Q.shape[0] * X.shape[0]
        assert index.kind == "ed_scan"

    @pytest.mark.parametrize("delta", [5.0, 10.0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_dtw_bitwise_parity(self, workload, delta, k):
        X, _, Q = workload
        index = build_index(
            "paa_lb", X[:60], measure="dtw", params={"delta": delta}
        )
        exact_idx, exact_dist, stats = index.search(Q[:4], k)
        brute_idx, brute_dist, _ = index.search(Q[:4], k, prune=False)
        np.testing.assert_array_equal(exact_idx, brute_idx)
        np.testing.assert_array_equal(exact_dist, brute_dist)
        assert stats.pruned > 0

    def test_lower_bound_indexes_prune_clustered_data(self, workload):
        X, _, Q = workload
        for kind in ("dft_lb", "paa_lb"):
            index = build_index(kind, X, measure="euclidean", params={})
            _, _, stats = index.search(Q, 1)
            assert stats.pruning_rate > 0.4, (kind, stats)

    def test_tie_breaking_prefers_lowest_index(self):
        X = np.tile(np.linspace(-1, 1, 16), (5, 1))  # five identical rows
        index = build_index("dft_lb", X, measure="euclidean", params={})
        idx, dist, _ = index.search(X[:1], 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2]])
        np.testing.assert_array_equal(dist, [[0.0, 0.0, 0.0]])

    def test_k_out_of_range_rejected(self, workload):
        X, _, Q = workload
        index = build_index("dft_lb", X, measure="euclidean", params={})
        with pytest.raises(ValidationError):
            index.search(Q, 0)
        with pytest.raises(ValidationError):
            index.search(Q, X.shape[0] + 1)


class TestRegistry:
    def test_kinds_registered(self):
        assert list_index_kinds() == [
            "ed_scan", "grail_ann", "paa_lb", "spiral_ann",
        ]

    def test_indexable_kinds_exact_only(self):
        assert indexable_kinds("euclidean") == ["ed_scan"]
        assert list(indexable_kinds("dtw")) == ["paa_lb"]
        assert indexable_kinds("msm") == []

    def test_spec_normalization(self):
        assert normalize_index_specs(None, "dtw") == ()
        assert normalize_index_specs("paa_lb", "dtw") == ({"kind": "paa_lb"},)
        specs = normalize_index_specs([{"kind": "paa_lb", "segments": 4}], "dtw")
        assert specs[0]["segments"] == 4
        with pytest.raises(IndexBuildError):
            normalize_index_specs(["paa_lb", "paa_lb"], "dtw")  # duplicate kind

    def test_retired_kinds_resolve_under_euclidean(self):
        """The retired Euclidean kinds name the kernel (their build
        parameters configured a bound that no longer exists); under DTW
        ``paa_lb`` stays itself."""
        for spec in ("dft_lb", "isax", {"kind": "paa_lb", "segments": 4}):
            assert normalize_index_specs(spec, "euclidean") == (
                {"kind": "ed_scan"},
            )
        assert normalize_index_specs(
            {"kind": "paa_lb", "segments": 4}, "dtw"
        ) == ({"kind": "paa_lb", "segments": 4},)
        with pytest.raises(IndexBuildError, match="duplicate"):
            normalize_index_specs(["dft_lb", "isax"], "euclidean")

    def test_unknown_kind_rejected(self, workload):
        X, _, _ = workload
        with pytest.raises(IndexBuildError, match="unknown"):
            build_index("btree", X, measure="euclidean", params={})

    def test_unsupported_measure_rejected(self, workload):
        X, _, _ = workload
        with pytest.raises(IndexBuildError):
            build_index("dft_lb", X, measure="dtw", params={"delta": 10.0})


class TestRetiredKinds:
    """Under ED, ``dft_lb``, ``isax`` and ``paa_lb`` name the kernel at
    fit time, in the CLI and in the facade (request pins:
    ``TestEngineModes`` and ``test_serving``)."""

    @pytest.mark.parametrize("kind", ["dft_lb", "isax", "paa_lb"])
    def test_artifact_fit_records_the_kernel(self, workload, kind):
        X, y, Q = workload
        art = ModelArtifact.fit(X, y, measure="euclidean", index=kind)
        assert art.index_specs == ({"kind": "ed_scan"},)
        plain = QueryEngine(ModelArtifact.fit(X, y, measure="euclidean"))
        got = QueryEngine(art).search(Q, k=3)
        want = plain.search(Q, k=3)
        assert got.engine == want.engine == "index:ed_scan"
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.distances, want.distances)

    @pytest.mark.parametrize("kind", ["dft_lb", "isax", "paa_lb"])
    def test_facade_index_argument(self, workload, kind):
        X, _, Q = workload
        res = nearest_neighbors(Q, X, k=2, index=kind)
        assert res.engine == "index:ed_scan"
        np.testing.assert_array_equal(res.indices, row_wise_oracle(X, Q, 2)[0])

    def test_cli_fit_index(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "model"
        assert main([
            "fit", "euclidean", "--normalization", "zscore",
            "--datasets", "1", "--scale", "0.3", "--out", str(out),
            "--index", "dft_lb", "--index", "grail_ann",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [spec["kind"] for spec in manifest["indexes"]] == [
            "ed_scan", "grail_ann",
        ]
        assert main([
            "fit", "euclidean", "--datasets", "1", "--scale", "0.3",
            "--out", str(tmp_path / "paa"), "--index", "paa_lb:segments=16",
        ]) == 0
        manifest = json.loads((tmp_path / "paa" / "manifest.json").read_text())
        assert manifest["indexes"] == [{"kind": "ed_scan"}]

    def test_retired_names_stay_unknown_elsewhere(self, workload):
        X, _, _ = workload
        for kind in ("dft_lb", "isax"):
            with pytest.raises(IndexBuildError, match="unknown"):
                build_index(kind, X, measure="dtw", params={"delta": 10.0})
        with pytest.raises(IndexBuildError, match="does not support"):
            build_index("ed_scan", X, measure="dtw", params={"delta": 10.0})


class TestDTWBlockRoute:
    """``paa_lb``'s ascending-bound blocks, at full resolution and at 8
    segments, pruned or not, against stable argsort over
    ``pairwise("dtw")`` — indices and distances bitwise."""

    PARAMS = {"delta": 10.0}

    @pytest.fixture(scope="class")
    def cases(self, adversarial_batches):
        """``(references, queries)`` per input: the references' first
        rows themselves (exact ties on duplicates) plus perturbed copies."""
        rng = np.random.default_rng(29)
        out = {}
        for name, X in adversarial_batches.items():
            Q = np.vstack(
                [X[:3], X[:3] + 0.01 * rng.normal(size=(3, X.shape[1]))]
            )
            out[name] = (X, Q)
        X, _, Q = clustered_dataset()
        out["clustered"] = (X[::2], np.vstack([X[:3], Q]))
        return out

    def oracle(self, X, Q, k):
        E = get_measure("dtw").pairwise(Q, X, **self.PARAMS)
        order = np.argsort(E, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(E, order, axis=1)

    def paa_lb(self, X, segments):
        return build_index(
            {"kind": "paa_lb", "segments": segments}, X, measure="dtw",
            params=self.PARAMS,
        )

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("segments", ["8", "m"])
    @pytest.mark.parametrize("k", ["1", "3", "n"])
    @pytest.mark.parametrize(
        "name",
        [
            "more_rows_than_one_block", "zero_row", "constant_rows",
            "duplicate_rows", "large_offset", "length_1", "length_2",
            "clustered",
        ],
    )
    def test_equals_pairwise_oracle(self, cases, name, k, segments, prune):
        X, Q = cases[name]
        k = X.shape[0] if k == "n" else int(k)
        segments = X.shape[1] if segments == "m" else int(segments)
        idx, dist, stats = self.paa_lb(X, segments).search(Q, k, prune=prune)
        want_idx, want_dist = self.oracle(X, Q, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_dist)
        assert stats.candidates == Q.shape[0] * X.shape[0]
        assert k * Q.shape[0] <= stats.refined <= stats.candidates

    def test_small_blocks_and_chunks(self, monkeypatch):
        """One-candidate first blocks and 4-pair DP chunks: a round spans
        several DP chunks, queries finish in different rounds, and the
        LB_Keogh stage empties a query's block while the query goes on
        drawing — it ends only when it draws no candidate."""
        X, _, Q = clustered_dataset()
        X, Q = X[::2], np.vstack([X[:3], Q])
        index = self.paa_lb(X, 8)
        monkeypatch.setattr(lower_bound, "FIRST_BLOCK", 1)
        monkeypatch.setattr(_dp, "PAIR_BUDGET", 4 * (X.shape[1] + 1))
        log = []  # per round: (live queries, queries refined, DP chunks)
        chunks = []
        top_k_rows, dtw_pairs = lower_bound.top_k_rows, lower_bound.dtw_pairs

        def spy_top_k_rows(owner, index, distance, r, k):
            log.append((r, np.unique(owner[r * k :]).size, len(chunks)))
            chunks.clear()
            return top_k_rows(owner, index, distance, r, k)

        def spy_dtw_pairs(A, B, delta):
            chunks.append(A.shape[0])
            return dtw_pairs(A, B, delta)

        monkeypatch.setattr(lower_bound, "top_k_rows", spy_top_k_rows)
        monkeypatch.setattr(lower_bound, "dtw_pairs", spy_dtw_pairs)
        for k in (1, 3):
            log.clear()
            idx, dist, _ = index.search(Q, k)
            want_idx, want_dist = self.oracle(X, Q, k)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(dist, want_dist)
            live = [r for r, _, _ in log] + [0]
            ended = [live[t] - live[t + 1] for t in range(len(log))]
            emptied = [
                r - refined - gone for (r, refined, _), gone in zip(log, ended)
            ]
            assert max(c for _, _, c in log) > 1, log
            assert sum(gone > 0 for gone in ended) > 1, log
            assert max(emptied) > 0, log

    def test_bound_memory_bounded_by_budget(self):
        """256 queries x 2e4 references: one group would hold the bounds,
        their order and the sorted bounds as 3 x 5.12e6 values (123 MB).
        Groups of ``SCREEN_BUDGET // n`` queries keep the peak at one
        group's three arrays (measured 2.98 budgets of float64 values)."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20_000, 32))
        Q = X[:256] + 0.001 * rng.normal(size=(256, 32))
        index = self.paa_lb(X, 32)
        tracemalloc.start()
        try:
            index.search(Q, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * scan.SCREEN_BUDGET, peak


class TestTopKRows:
    """The one stable ``(distance, index)`` selection behind ``ed_scan``,
    the ``prune=False`` scan, ``paa_lb``'s rounds and the ANN re-rank."""

    def test_equals_sorted_tuples(self):
        rng = np.random.default_rng(8)
        owner = rng.integers(0, 5, size=300)
        index = rng.permutation(300)
        distance = rng.integers(0, 6, size=300).astype(float)
        distance[rng.integers(0, 300, size=20)] = np.inf
        idx, dist = index_base.top_k_rows(owner, index, distance, 5, 7)
        for q in range(5):
            mine = owner == q
            want = sorted(zip(distance[mine].tolist(), index[mine].tolist()))
            assert dist[q].tolist() == [d for d, _ in want[:7]]
            assert idx[q].tolist() == [i for _, i in want[:7]]

    def test_ann_rerank_as_before(self, workload):
        """The re-rank keeps the ``k`` smallest ``(distance, index)`` of
        its ascending shortlist, ties on duplicate rows included."""
        X, _, Q = workload
        X = np.vstack([X[:40], X[:40]])
        index = build_index(
            {"kind": "grail_ann", "dimensions": 16, "rerank": 12}, X,
            measure="euclidean", params={},
        )
        euclidean = get_measure("euclidean")
        for k in (1, 5, 12):
            idx, dist, stats = index.search(Q, k)
            assert stats.refined == 12 * Q.shape[0]
            for q, got_i, got_d in zip(Q, idx, dist):
                emb = index._embedding.transform(q[None, :])[0]
                emb_d = euclidean.pairwise(emb[None, :], index._embeddings)[0]
                shortlist = np.sort(np.argsort(emb_d, kind="stable")[:12])
                true = euclidean.pairwise(q[None, :], X[shortlist])[0]
                want = sorted(zip(true.tolist(), shortlist.tolist()))[:k]
                assert got_d.tolist() == [d for d, _ in want]
                assert got_i.tolist() == [i for _, i in want]


class TestApproximateRecall:
    """grail_ann on the pinned clustered workload must clear recall@1."""

    def test_recall_gate(self, workload):
        X, _, Q = workload
        index = build_index(
            {"kind": "grail_ann", "dimensions": 16}, X,
            measure="euclidean", params={},
        )
        spec = index.spec()
        assert spec["recall"] >= 0.95
        approx_idx, _, _ = index.search(Q, 1)
        exact = build_index("dft_lb", X, measure="euclidean", params={})
        exact_idx, _, _ = exact.search(Q, 1)
        recall = float(np.mean(approx_idx[:, 0] == exact_idx[:, 0]))
        assert recall >= 0.95

    def test_min_recall_build_gate_fails_on_noise(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 48))  # iid noise: embeddings can't rank
        with pytest.raises(IndexBuildError, match="recall"):
            build_index(
                {"kind": "grail_ann", "dimensions": 4, "min_recall": 0.99},
                X, measure="euclidean", params={},
            )

    def test_k_capped_by_rerank(self, workload):
        X, _, Q = workload
        index = build_index(
            {"kind": "grail_ann", "rerank": 8}, X,
            measure="euclidean", params={},
        )
        with pytest.raises(ValidationError):
            index.search(Q, 9)


class TestSerialization:
    def test_roundtrip_preserves_answers_and_fingerprint(
        self, workload, tmp_path
    ):
        X, y, Q = workload
        art = ModelArtifact.fit(
            X, y, measure="euclidean", normalization="zscore",
            index=["dft_lb", "grail_ann"],
        )
        art.save(tmp_path / "art")
        loaded = ModelArtifact.load(tmp_path / "art")
        assert loaded.fingerprint == art.fingerprint
        assert loaded.index_specs == art.index_specs
        before = QueryEngine(art).search(Q, k=3)
        after = QueryEngine(loaded).search(Q, k=3)
        np.testing.assert_array_equal(before.indices, after.indices)
        np.testing.assert_array_equal(before.distances, after.distances)
        ap_before = QueryEngine(art).search(Q, k=1, mode="approx")
        ap_after = QueryEngine(loaded).search(Q, k=1, mode="approx")
        np.testing.assert_array_equal(
            ap_before.indices, ap_after.indices
        )

    def test_index_changes_fingerprint(self, workload):
        X, y, _ = workload
        plain = ModelArtifact.fit(X, y, measure="euclidean")
        indexed = ModelArtifact.fit(X, y, measure="euclidean", index="dft_lb")
        assert plain.fingerprint != indexed.fingerprint
        assert plain.index_specs == ()

    def test_tampered_index_array_refused(self, workload, tmp_path):
        X, y, _ = workload
        art = ModelArtifact.fit(
            X, y, measure="dtw", params={"delta": 10.0},
            index={"kind": "paa_lb", "segments": 8},
        )
        art.save(tmp_path / "art")
        path = tmp_path / "art" / "arrays.npz"
        with np.load(path) as z:
            arrays = {name: z[name].copy() for name in z.files}
        key = next(name for name in arrays if name.startswith("index0_"))
        arrays[key][0] += 1e-3
        np.savez_compressed(path, **arrays)
        with pytest.raises(ArtifactError):
            ModelArtifact.load(tmp_path / "art")

    def test_standalone_index_restore(self, workload):
        X, _, Q = workload
        params = {"delta": 10.0}
        index = build_index(
            {"kind": "paa_lb", "segments": 8}, X[:60], measure="dtw",
            params=params,
        )
        revived = restore_index(
            index.spec(), index.arrays(), X[:60], measure="dtw", params=params
        )
        a = index.search(Q[:4], 2)
        b = revived.search(Q[:4], 2)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestEngineModes:
    @pytest.fixture(scope="class")
    def engine(self, workload):
        X, y, _ = workload
        art = ModelArtifact.fit(
            X, y, measure="euclidean", normalization="zscore",
            index=["dft_lb", "grail_ann"],
        )
        return QueryEngine(art)

    def test_exact_equals_brute_bitwise(self, workload, engine):
        _, _, Q = workload
        exact = engine.search(Q, k=3, mode="exact")
        brute = engine.search(Q, k=3, mode="brute")
        np.testing.assert_array_equal(exact.indices, brute.indices)
        np.testing.assert_array_equal(exact.distances, brute.distances)
        assert exact.stats.pruned > 0 and brute.stats.pruned == 0

    def test_predict_is_k1_search(self, workload, engine):
        _, _, Q = workload
        labels = engine.predict(Q)
        top = engine.search(Q).indices
        assert top.shape == (Q.shape[0], 1)
        np.testing.assert_array_equal(labels, engine.artifact.train_y[top[:, 0]])

    def test_named_index_selection(self, workload, engine):
        _, _, Q = workload
        default = engine.search(Q, k=2)
        assert default.engine == "index:ed_scan"
        for pin in ("ed_scan", "dft_lb", "isax", "paa_lb"):
            named = engine.search(Q, k=2, index=pin)
            assert named.engine == "index:ed_scan"
            np.testing.assert_array_equal(named.indices, default.indices)
            np.testing.assert_array_equal(named.distances, default.distances)
        with pytest.raises(ServingError, match="no fitted index"):
            engine.search(Q, index="spiral_ann", mode="approx")

    def test_mode_index_mismatch_rejected(self, workload, engine):
        _, _, Q = workload
        with pytest.raises(ServingError):
            engine.search(Q, mode="approx", index="dft_lb")
        with pytest.raises(ServingError):
            engine.search(Q, mode="exact", index="grail_ann")
        with pytest.raises(ServingError, match="mode"):
            engine.search(Q, mode="fastest")

    def test_k_validated(self, workload, engine):
        X, _, Q = workload
        with pytest.raises(ServingError):
            engine.search(Q, k=0)
        with pytest.raises(ServingError):
            engine.search(Q, k=X.shape[0] + 1)

    def test_approx_without_ann_index_rejected(self, workload):
        X, y, Q = workload
        art = ModelArtifact.fit(X, y, measure="euclidean", index="dft_lb")
        with pytest.raises(ServingError, match="approx"):
            QueryEngine(art).search(Q, mode="approx")

    def test_cache_keyed_by_k_and_mode(self, workload, engine):
        _, _, Q = workload
        fresh = QueryEngine(engine.artifact, cache_size=64)
        assert fresh.search(Q[:3], k=2).cache_hits == 0
        assert fresh.search(Q[:3], k=2).cache_hits == 3
        # Different k or mode must not alias the cached rows.
        assert fresh.search(Q[:3], k=3).cache_hits == 0
        assert fresh.search(Q[:3], k=2, mode="brute").cache_hits == 0
        assert fresh.search(Q[:3], k=2, mode="approx").cache_hits == 0

    def test_scan_engine_supports_topk(self, workload):
        X, y, Q = workload
        art = ModelArtifact.fit(X, y, measure="euclidean")  # no index
        pred = QueryEngine(art).search(Q, k=4)
        assert pred.engine == "index:ed_scan"
        want_idx, want_dist = row_wise_oracle(X, Q, 4)
        np.testing.assert_array_equal(pred.indices, want_idx)
        np.testing.assert_array_equal(pred.distances, want_dist)


class TestFacade:
    def test_whole_series_index_matches_exhaustive(self, workload):
        X, _, Q = workload
        plain = nearest_neighbors(Q, X, measure="euclidean", k=3)
        indexed = nearest_neighbors(Q, X, measure="euclidean", k=3,
                                    index="paa_lb")
        assert isinstance(plain, NeighborResult)
        np.testing.assert_array_equal(plain.indices, indexed.indices)
        np.testing.assert_array_equal(plain.distances, indexed.distances)
        assert plain.engine == indexed.engine == "index:ed_scan"

    def test_dtw_cascade_route(self, workload):
        """DTW without index= runs a transient full-resolution paa_lb
        index: LB_Keogh order, then the DP in blocks."""
        X, _, Q = workload
        res = nearest_neighbors(
            Q[:3], X[:40], measure="dtw", k=1, params={"delta": 10.0}
        )
        assert res.engine == "index:paa_lb"
        assert res.stats.pruned > 0
        true = np.array([[dtw(q, x, 10.0) for x in X[:40]] for q in Q[:3]])
        np.testing.assert_array_equal(
            res.indices[:, 0], true.argmin(axis=1)
        )
        np.testing.assert_array_equal(res.distances[:, 0], true.min(axis=1))

    def test_subsequence_domain(self):
        rng = np.random.default_rng(5)
        pattern = np.sin(np.linspace(0, 4 * np.pi, 50))
        stream = np.concatenate(
            [rng.normal(0, 1, 200), pattern, rng.normal(0, 1, 200)]
        )
        res = nearest_neighbors(pattern, stream, domain="subsequence", k=2)
        assert res.engine == "mass"
        assert res.indices[0, 0] == 200

    def test_profile_domain(self):
        rng = np.random.default_rng(6)
        series = rng.normal(size=400)
        res = nearest_neighbors(series, domain="profile", window=40)
        assert res.engine == "matrix_profile"
        assert res.indices.shape == (400 - 40 + 1, 1)

    def test_domain_validation(self, workload):
        X, _, Q = workload
        with pytest.raises(ValidationError, match="domain"):
            nearest_neighbors(Q, X, domain="nearest")
        with pytest.raises(ValidationError, match="references"):
            nearest_neighbors(Q, domain="whole")
        with pytest.raises(ValidationError, match="window"):
            nearest_neighbors(X[0], domain="profile")
        with pytest.raises(ValidationError, match="self-join"):
            nearest_neighbors(X[0], X[1], domain="profile", window=8)


class TestDTWTieOracle:
    """Every DTW top-k path equals stable argsort over ``pairwise("dtw")``
    — indices and distances bitwise — when duplicate rows tie exactly.

    Paper Algorithm 1 is a strict-``<`` scan: among equal distances the
    lowest reference index wins. Copies of the nearest row sit both
    below and above it, and ``n > 16`` so that an unstable sort (numpy
    introsort) would visit tied candidates out of index order.
    """

    DELTA = 10.0
    N, M = 20, 24

    @pytest.fixture(scope="class", params=range(4))
    def case(self, request, tmp_path_factory):
        rng = np.random.default_rng(100 + request.param)
        X = rng.normal(size=(self.N, self.M))
        slots = np.sort(rng.choice(self.N, size=6, replace=False))
        X[slots] = X[slots[3]]  # copies below and above slots[3]
        # One exact copy plus noisy ones: each query visits the tied
        # candidates in a different bound order.
        Q = X[slots[3]] + rng.normal(0, 1, (9, self.M)) * np.linspace(
            0, 0.5, 9
        )[:, None]
        art = ModelArtifact.fit(
            X, np.arange(self.N) % 3, measure="dtw",
            normalization="zscore", params={"delta": self.DELTA},
        )
        path = tmp_path_factory.mktemp("dtw_ties") / "art"
        art.save(path)
        loaded = ModelArtifact.load(path)
        Qn = get_normalizer("zscore").apply_dataset(Q)
        E = get_measure("dtw").pairwise(Qn, loaded.train_X, delta=self.DELTA)
        return loaded, Q, Qn, E

    @staticmethod
    def oracle(E, k):
        order = np.argsort(E, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(E, order, axis=1)

    @pytest.mark.parametrize("k", [1, 3, N])
    @pytest.mark.parametrize("mode", ["exact", "brute"])
    def test_engine_after_roundtrip(self, case, k, mode):
        art, Q, _, E = case
        pred = QueryEngine(art).search(Q, k=k, mode=mode)
        idx, dist = self.oracle(E, k)
        np.testing.assert_array_equal(pred.indices, idx)
        np.testing.assert_array_equal(pred.distances, dist)

    @pytest.mark.parametrize("k", [1, 3, N])
    def test_facade(self, case, k):
        art, _, Qn, E = case
        res = nearest_neighbors(
            Qn, art.train_X, measure="dtw", k=k,
            params={"delta": self.DELTA},
        )
        idx, dist = self.oracle(E, k)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)

    @pytest.mark.parametrize("k", [1, 3, N])
    def test_paa_lb_index(self, case, k):
        art, _, Qn, E = case
        index = build_index(
            "paa_lb", art.train_X, measure="dtw",
            params={"delta": self.DELTA},
        )
        idx, dist = self.oracle(E, k)
        for prune in (True, False):
            got_idx, got_dist, _ = index.search(Qn, k, prune=prune)
            np.testing.assert_array_equal(got_idx, idx)
            np.testing.assert_array_equal(got_dist, dist)


class TestOneCoreParity:
    """``nearest_neighbors(domain="whole")`` and ``QueryEngine.search``
    (no normalization) are one search: indices and distances bitwise
    equal on every route, and equal to the row-wise oracle under ED and
    to stable argsort over ``pairwise`` wherever no index answers."""

    DTW = {"delta": 10.0}
    CASES = [
        ("nccc", None, None),
        ("nccu", None, None),
        ("euclidean", None, None),
        ("msm", None, None),
        ("dtw", DTW, None),
        ("euclidean", None, "dft_lb"),
        ("euclidean", None, "paa_lb"),
        ("euclidean", None, "isax"),
        ("dtw", DTW, "paa_lb"),
    ]
    WORKLOADS = [
        "more_rows_than_one_block",
        "zero_row",
        "constant_rows",
        "duplicate_rows",
        "large_offset",
        "length_1",
        "length_2",
        "clustered",
    ]

    @pytest.fixture(scope="class")
    def workloads(self, adversarial_batches):
        """``(references, queries)`` per workload: the first rows
        themselves (exact ties on duplicates) plus perturbed copies."""
        rng = np.random.default_rng(5)
        out = {}
        for name, X in adversarial_batches.items():
            Q = np.vstack(
                [X[:3], X[:3] + 0.01 * rng.normal(size=(3, X.shape[1]))]
            )
            out[name] = (X, Q)
        X, _, Q = clustered_dataset()
        out["clustered"] = (X[::4], Q[:4])
        return out

    @pytest.mark.parametrize("k", ["1", "3", "n"])
    @pytest.mark.parametrize("workload_name", WORKLOADS)
    @pytest.mark.parametrize(
        "measure,params,index", CASES,
        ids=[f"{m}-{ix or 'scan'}" for m, _, ix in CASES],
    )
    def test_facade_equals_engine(
        self, workloads, workload_name, measure, params, index, k
    ):
        X, Q = workloads[workload_name]
        k = X.shape[0] if k == "n" else int(k)
        try:
            art = ModelArtifact.fit(
                X, np.arange(X.shape[0]) % 2, measure=measure,
                params=params, index=index,
            )
        except IndexBuildError:
            pytest.skip(f"{index} rejects shape {X.shape}")
        served = QueryEngine(art).search(Q, k=k)
        res = nearest_neighbors(
            Q, X, measure=measure, k=k, params=params, index=index
        )
        assert isinstance(res, NeighborResult)
        assert res.engine == served.engine
        np.testing.assert_array_equal(res.indices, served.indices)
        np.testing.assert_array_equal(res.distances, served.distances)
        if index is None and measure == "euclidean":
            # ED answers in the row-wise form, not pairwise's expanded one.
            order, dist = row_wise_oracle(X, Q, k)
            np.testing.assert_array_equal(res.indices, order)
            np.testing.assert_array_equal(res.distances, dist)
        elif index is None:
            E = get_measure(measure).pairwise(Q, X, **(params or {}))
            order = np.argsort(E, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(res.indices, order)
            np.testing.assert_array_equal(
                res.distances, np.take_along_axis(E, order, axis=1)
            )


def test_fitted_paa_dtw_refine_is_exact_and_counts_unchanged():
    """A fitted ``paa_lb`` below full resolution (8 segments) over DTW
    answers like stable argsort over ``pairwise("dtw")``, bitwise, and
    refines as many candidates as the block rule gives: each round a
    query draws its next block in ascending LB_PAA order (8, then
    doubling), cut at the first deflated bound above its k-th distance,
    and the drawn candidates whose LB_Keogh also loses are dropped. A
    block is refined whole, so more pairs are refined than by a
    candidate-by-candidate refine (counts recorded with the block rule)."""
    X, _, Q = clustered_dataset()
    X, Q = X[:120], Q[:6]
    index = build_index(
        {"kind": "paa_lb", "segments": 8}, X, measure="dtw",
        params={"delta": 10.0},
    )
    E = get_measure("dtw").pairwise(Q, X, delta=10.0)
    for k, refined in ((1, 188), (3, 361), (120, 720)):
        idx, dist, stats = index.search(Q, k)
        order = np.argsort(E, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(idx, order)
        np.testing.assert_array_equal(dist, np.take_along_axis(E, order, axis=1))
        assert stats.refined == refined
