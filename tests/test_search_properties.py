"""Property-based oracles for the search substrate.

The pruned DTW search and the matrix profile are exactness-critical: a
bug would silently change answers rather than crash. Both are checked
against brute-force oracles over randomized inputs. The DTW search (a
full-resolution ``paa_lb`` index: candidates in ascending LB_Keogh order,
refined in blocks by the pair-batched DP) is the DTW route of the search
facade and of the serving engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances.elastic import dtw
from repro.normalization import zscore
from repro.search import mass, matrix_profile, nearest_neighbors
from repro.serving import ModelArtifact, QueryEngine


@st.composite
def corpora(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=3, max_value=10))
    m = draw(st.integers(min_value=8, max_value=24))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, m)), rng.normal(size=m)


#: Neighbour counts up to the largest corpus ``corpora`` draws (k = n).
KS = st.integers(min_value=1, max_value=10)


def exhaustive_topk(query, corpus, delta, k):
    """Stable (distance, index) order over the full DTW scan."""
    exhaustive = np.array([dtw(query, c, delta) for c in corpus])
    order = np.argsort(exhaustive, kind="stable")[:k]
    return order, exhaustive[order]


class TestCascadeExactness:
    @given(corpora(), st.sampled_from([0.0, 10.0, 100.0]), KS)
    @settings(max_examples=25, deadline=None)
    def test_cascade_equals_exhaustive(self, data, delta, k):
        corpus, query = data
        k = min(k, corpus.shape[0])
        res = nearest_neighbors(
            query, corpus, measure="dtw", k=k, params={"delta": delta}
        )
        idx, dist = exhaustive_topk(query, corpus, delta, k)
        np.testing.assert_array_equal(res.indices[0], idx)
        np.testing.assert_array_equal(res.distances[0], dist)

    @given(corpora(), st.sampled_from([0.0, 10.0, 100.0]), KS)
    @settings(max_examples=25, deadline=None)
    def test_precomputed_envelopes_stay_exact(self, data, delta, k):
        """The serving path (candidate envelopes built once when the
        engine is constructed and amortized across queries) returns the
        exhaustive top-k."""
        corpus, query = data
        k = min(k, corpus.shape[0])
        art = ModelArtifact.fit(
            corpus, np.arange(corpus.shape[0]), measure="dtw",
            params={"delta": delta},
        )
        engine = QueryEngine(art)
        assert engine.searcher._exact[0].arrays()["frames"].shape == (
            corpus.shape[0], 2, corpus.shape[1]
        )
        pred = engine.search(query, k=k)
        idx, dist = exhaustive_topk(query, corpus, delta, k)
        np.testing.assert_array_equal(pred.indices[0], idx)
        np.testing.assert_array_equal(pred.distances[0], dist)


class TestMassOracle:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_mass_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=7)
        t = rng.normal(size=40)
        profile = mass(q, t)
        qz = zscore(q)
        brute = np.array(
            [
                float(np.linalg.norm(qz - zscore(t[i : i + 7])))
                for i in range(40 - 7 + 1)
            ]
        )
        assert np.allclose(profile, brute, atol=1e-6)


class TestMatrixProfileOracle:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_profile_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=60)
        window = 10
        mp = matrix_profile(t, window)
        n_sub = 60 - window + 1
        exclusion = window // 2
        subs = [zscore(t[i : i + window]) for i in range(n_sub)]
        for i in range(n_sub):
            candidates = [
                float(np.linalg.norm(subs[i] - subs[j]))
                for j in range(n_sub)
                if abs(i - j) > exclusion
            ]
            assert mp.profile[i] == pytest.approx(
                min(candidates), abs=1e-6
            )
