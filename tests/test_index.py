"""Tests for the sub-linear query path (repro.index + engine modes).

The index layer is exactness-critical in two different ways:

- **admissibility** — every exact index's lower bound must never exceed
  the true distance, for *any* inputs, across the paper's Table-4
  parameter grid (checked property-style against brute-force oracles);
- **parity** — ``mode="exact"`` answers must be bitwise-identical to
  ``mode="brute"`` (same refine kernel, pruning toggled), and the
  approximate path must clear a measured recall@1 gate on a pinned
  clustered workload.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import get_measure
from repro.distances.elastic import dtw
from repro.exceptions import (
    ArtifactError,
    IndexBuildError,
    ServingError,
    ValidationError,
)
from repro.index import (
    DFTLowerBoundIndex,
    ISAXTreeIndex,
    PAALowerBoundIndex,
    build_index,
    indexable_kinds,
    list_index_kinds,
    normalize_index_specs,
    restore_index,
)
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
    """LB(q, x) <= d(q, x) for every exact index, any real inputs."""

    @given(pair_sets(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_dft_lower_bound_admissible(self, data, coefficients):
        X, q = data
        index = DFTLowerBoundIndex.build(
            X, measure="euclidean", params={}, coefficients=coefficients
        )
        true = np.sqrt(((X - q) ** 2).sum(axis=1))
        bounds = index.lower_bounds(q)
        assert np.all(bounds <= true * (1 + 1e-9) + 1e-9)

    @given(pair_sets(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_paa_euclidean_lower_bound_admissible(self, data, segments):
        X, q = data
        index = PAALowerBoundIndex.build(
            X, measure="euclidean", params={}, segments=segments
        )
        true = np.sqrt(((X - q) ** 2).sum(axis=1))
        assert np.all(index.lower_bounds(q) <= true * (1 + 1e-9) + 1e-9)

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

    @given(pair_sets(), st.integers(min_value=2, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_isax_region_mindist_admissible(self, data, segments):
        X, q = data
        index = ISAXTreeIndex.build(
            X, measure="euclidean", params={}, segments=segments, leaf_size=4
        )
        true = np.sqrt(((X - q) ** 2).sum(axis=1))
        assert np.all(index.lower_bounds(q) <= true * (1 + 1e-9) + 1e-9)


class TestExactParity:
    """mode='exact' must equal the unpruned scan bitwise, while pruning."""

    @pytest.mark.parametrize("kind", ["dft_lb", "paa_lb", "isax"])
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
        kinds = list_index_kinds()
        for kind in ("dft_lb", "paa_lb", "isax", "grail_ann", "spiral_ann"):
            assert kind in kinds

    def test_indexable_kinds_exact_only(self):
        assert "dft_lb" in indexable_kinds("euclidean")
        assert "grail_ann" not in indexable_kinds("euclidean")
        assert list(indexable_kinds("dtw")) == ["paa_lb"]

    def test_spec_normalization(self):
        assert normalize_index_specs(None) == ()
        assert normalize_index_specs("dft_lb") == ({"kind": "dft_lb"},)
        specs = normalize_index_specs([{"kind": "paa_lb", "segments": 4}])
        assert specs[0]["segments"] == 4
        with pytest.raises(IndexBuildError):
            normalize_index_specs(["dft_lb", "dft_lb"])  # duplicate kind

    def test_unknown_kind_rejected(self, workload):
        X, _, _ = workload
        with pytest.raises(IndexBuildError, match="unknown"):
            build_index("btree", X, measure="euclidean", params={})

    def test_unsupported_measure_rejected(self, workload):
        X, _, _ = workload
        with pytest.raises(IndexBuildError):
            build_index("dft_lb", X, measure="dtw", params={"delta": 10.0})


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
        art = ModelArtifact.fit(X, y, measure="euclidean", index="dft_lb")
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
        index = build_index("isax", X, measure="euclidean", params={})
        revived = restore_index(
            index.spec(), index.arrays(), X, measure="euclidean", params={}
        )
        a = index.search(Q, 2)
        b = revived.search(Q, 2)
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
        named = engine.search(Q, k=2, index="dft_lb")
        default = engine.search(Q, k=2)
        np.testing.assert_array_equal(named.indices, default.indices)
        with pytest.raises(ServingError, match="no fitted index"):
            engine.search(Q, index="paa_lb")

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
        matrix_order = np.argsort(
            ((Q[:, None, :] - X[None]) ** 2).sum(axis=2), axis=1, kind="stable"
        )[:, :4]
        np.testing.assert_array_equal(pred.indices, matrix_order)


class TestFacade:
    def test_whole_series_index_matches_exhaustive(self, workload):
        X, _, Q = workload
        plain = nearest_neighbors(Q, X, measure="euclidean", k=3)
        indexed = nearest_neighbors(Q, X, measure="euclidean", k=3,
                                    index="paa_lb")
        assert isinstance(plain, NeighborResult)
        np.testing.assert_array_equal(plain.indices, indexed.indices)
        np.testing.assert_allclose(
            plain.distances, indexed.distances, rtol=1e-9
        )
        assert indexed.engine == "index:paa_lb"

    def test_dtw_cascade_route(self, workload):
        """DTW without index= runs the LB_Keogh -> early-abandon cascade
        as a transient full-resolution paa_lb index."""
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
    equal on every route, and equal to stable argsort over ``pairwise``
    wherever no index answers."""

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
        if index is None:
            E = get_measure(measure).pairwise(Q, X, **(params or {}))
            order = np.argsort(E, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(res.indices, order)
            np.testing.assert_array_equal(
                res.distances, np.take_along_axis(E, order, axis=1)
            )


def test_fitted_paa_dtw_refine_is_exact_and_counts_unchanged():
    """A fitted ``paa_lb`` below full resolution (8 segments) over DTW
    answers like stable argsort over ``pairwise("dtw")``, bitwise, and
    its LB_Keogh stage refines exactly as many candidates as the
    validating ``lb_keogh`` per survivor did (counts recorded with it)."""
    X, _, Q = clustered_dataset()
    X, Q = X[:120], Q[:6]
    index = build_index(
        {"kind": "paa_lb", "segments": 8}, X, measure="dtw",
        params={"delta": 10.0},
    )
    E = get_measure("dtw").pairwise(Q, X, delta=10.0)
    for k, refined in ((1, 152), (3, 354), (120, 720)):
        idx, dist, stats = index.search(Q, k)
        order = np.argsort(E, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(idx, order)
        np.testing.assert_array_equal(dist, np.take_along_axis(E, order, axis=1))
        assert stats.refined == refined
