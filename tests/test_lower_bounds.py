"""Tests for the DTW lower bounds (paper Section 10 pruning substrate)."""

import numpy as np
import pytest

from repro.distances.elastic import dtw, envelope, lb_keogh, lb_kim
from repro.evaluation.param_grids import full_grid
from repro.index.lower_bound import envelope_matrix
from repro.search import nearest_neighbors

#: Every banded-DTW delta of the paper's Table 4 tuning grid (% band).
TABLE4_DELTAS = [p["delta"] for p in full_grid("dtw")]


@pytest.fixture(scope="module")
def batch(rng):
    return rng.normal(size=(20, 32))


class TestLBKim:
    def test_lower_bounds_dtw(self, random_pairs):
        for x, y in random_pairs:
            assert lb_kim(x, y) <= dtw(x, y, delta=100.0) + 1e-9

    def test_zero_for_identical(self, sine_pair):
        x, _ = sine_pair
        assert lb_kim(x, x) == 0.0


class TestEnvelope:
    def test_envelope_sandwiches_series(self, sine_pair):
        x, _ = sine_pair
        upper, lower = envelope(x, delta=10.0)
        assert (lower <= x + 1e-12).all()
        assert (x <= upper + 1e-12).all()

    def test_full_window_is_global_min_max(self, sine_pair):
        x, _ = sine_pair
        upper, lower = envelope(x, delta=100.0)
        assert np.allclose(upper, x.max())
        assert np.allclose(lower, x.min())

    def test_zero_window_is_series_itself(self, sine_pair):
        x, _ = sine_pair
        upper, lower = envelope(x, delta=0.0)
        assert np.allclose(upper, x)
        assert np.allclose(lower, x)

    @pytest.mark.parametrize("delta", TABLE4_DELTAS)
    def test_envelope_matrix_matches_scalar(self, adversarial_batches, delta):
        """The vectorized envelopes fitting uses equal stacked scalar
        ``envelope`` bitwise: lengths 1, 2 and odd, constant rows, a
        1e6 offset."""
        gen = np.random.default_rng(5)
        batches = dict(adversarial_batches)
        batches["odd_length"] = gen.normal(size=(6, 37))
        batches["offset_odd_length"] = 1e6 + gen.normal(size=(5, 23))
        for name, X in batches.items():
            expected = np.stack(
                [np.stack(envelope(row, delta)) for row in X]
            )
            np.testing.assert_array_equal(
                envelope_matrix(X, delta), expected, err_msg=name
            )


class TestLBKeogh:
    @pytest.mark.parametrize("delta", [0.0, 5.0, 10.0, 100.0])
    def test_lower_bounds_banded_dtw(self, delta, random_pairs):
        for x, y in random_pairs:
            assert lb_keogh(x, y, delta) <= dtw(x, y, delta) + 1e-9

    def test_zero_inside_envelope(self, sine_pair):
        x, _ = sine_pair
        assert lb_keogh(x, x, delta=5.0) == 0.0

    def test_precomputed_envelope_matches(self, sine_pair):
        x, y = sine_pair
        env = envelope(y, delta=10.0)
        assert lb_keogh(x, y, 10.0, y_envelope=env) == pytest.approx(
            lb_keogh(x, y, 10.0)
        )


class TestPruning:
    def test_pruned_search_matches_exhaustive(self, batch):
        query = batch[0] + 0.1
        candidates = batch
        res = nearest_neighbors(
            query, candidates, measure="dtw", params={"delta": 10.0}
        )
        exhaustive = [dtw(query, c, 10.0) for c in candidates]
        assert res.indices[0, 0] == int(np.argmin(exhaustive))
        assert res.distances[0, 0] == min(exhaustive)
        assert 1 <= res.stats.refined <= candidates.shape[0]

    def test_pruning_actually_prunes_easy_case(self, rng):
        # One near-identical candidate among far-away ones: the bound
        # should skip most full DTW computations.
        base = np.sin(np.linspace(0, 6, 40))
        candidates = np.vstack(
            [base + 0.01] + [base + 10.0 + i for i in range(15)]
        )
        res = nearest_neighbors(
            base, candidates, measure="dtw", params={"delta": 10.0}
        )
        assert res.stats.refined < candidates.shape[0]
