"""Tests for the UCR-suite-style cascading DTW nearest-neighbour search.

The cascade (LB_Keogh first, the DP only for candidates it does not rule
out, refined in blocks) runs as the refine of a full-resolution
``paa_lb`` index, which is what :func:`repro.search.nearest_neighbors`
builds for DTW.
"""

import numpy as np
import pytest

from repro.distances.elastic import dtw
from repro.index import IndexSearchStats
from repro.search import nearest_neighbors


def cascade_search(query, corpus, delta):
    """Exact 1-NN of one query through the facade's DTW route."""
    res = nearest_neighbors(
        query[None, :], corpus, measure="dtw", params={"delta": delta}
    )
    assert res.engine == "index:paa_lb"
    return int(res.indices[0, 0]), float(res.distances[0, 0]), res.stats


@pytest.fixture(scope="module")
def corpus(rng):
    base = np.sin(np.linspace(0, 6 * np.pi, 48))
    rows = [base + rng.normal(0, 0.2, size=48) for _ in range(8)]
    rows += [rng.normal(0, 1.0, size=48) + 5.0 * i for i in range(12)]
    return np.vstack(rows)


class TestCascadeSearch:
    @pytest.mark.parametrize("delta", [0.0, 10.0, 100.0])
    def test_matches_exhaustive(self, corpus, rng, delta):
        query = corpus[0] + rng.normal(0, 0.1, size=48)
        idx, dist, _ = cascade_search(query, corpus, delta)
        exhaustive = [dtw(query, c, delta) for c in corpus]
        assert idx == int(np.argmin(exhaustive))
        assert dist == min(exhaustive)

    def test_stats_partition_candidates(self, corpus, rng):
        query = corpus[0] + rng.normal(0, 0.1, size=48)
        _, _, stats = cascade_search(query, corpus, 10.0)
        assert stats.candidates == corpus.shape[0]
        assert stats.pruned + stats.refined == stats.candidates

    def test_cascade_prunes_diverse_corpus(self, corpus, rng):
        query = corpus[0] + rng.normal(0, 0.1, size=48)
        _, _, stats = cascade_search(query, corpus, 10.0)
        # The 12 offset-by-5i rows are trivially far: most must be pruned
        # by their bound before any DTW.
        assert stats.pruning_rate > 0.3

    def test_pruning_rate_zero_on_empty_stats(self):
        assert IndexSearchStats(candidates=0, refined=0).pruning_rate == 0.0
