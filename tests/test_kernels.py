"""Unit tests for the 4 kernel measures (paper Section 8)."""

import numpy as np
import pytest

from repro.distances import get_measure, list_measures
from repro.distances.kernels import (
    gak,
    gak_log_kernel,
    kdtw,
    kdtw_similarity,
    rbf,
    rbf_kernel,
    sink,
    sink_similarity,
)


class TestRBF:
    def test_kernel_value_known(self):
        x, y = np.zeros(2), np.array([3.0, 4.0])
        assert rbf_kernel(x, y, gamma=0.01) == pytest.approx(np.exp(-0.25))

    def test_distance_zero_for_identical(self, sine_pair):
        x, _ = sine_pair
        assert rbf(x, x) == 0.0

    @pytest.mark.parametrize("gamma", [0.01, 2.0])
    def test_rank_equivalent_to_ed(self, gamma):
        """The Table 6 footnote in code: RBF inherits ED's 1-NN ranking,
        also at the registry default gamma=2, where every pair of these
        series has gamma * ||x - y||^2 far past the ~37 at which
        1 - exp(-gamma * ||x - y||^2) rounds to 1.0."""
        from repro.classification import dissimilarity_matrix, one_nn_predict

        gen = np.random.default_rng(12345)
        train = gen.normal(size=(10, 64))
        test = gen.normal(size=(5, 64))
        labels = np.arange(10)
        ed_pred = one_nn_predict(
            dissimilarity_matrix("euclidean", test, train), labels
        )
        rbf_pred = one_nn_predict(
            dissimilarity_matrix("rbf", test, train, gamma=gamma), labels
        )
        assert np.array_equal(ed_pred, rbf_pred)

    def test_matrix_matches_scalar(self, rng):
        measure = get_measure("rbf")
        X, Y = rng.normal(size=(4, 16)), rng.normal(size=(3, 16))
        matrix = measure.pairwise(X, Y, gamma=0.1)
        for i in range(4):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(measure(X[i], Y[j], gamma=0.1))


@pytest.mark.parametrize("name", ["sink", "kdtw", "gak"])
def test_overlapping_views_keep_their_own_normalization(name):
    """X and Y may be distinct but overlapping views of one buffer:
    Y's self-similarities are Y's own, not X's (on whichever tier the
    registry resolves, the compiled one when numba is installed)."""
    measure = get_measure(name)
    A = np.random.default_rng(3).normal(size=(8, 24))
    X, Y = A[0:6], A[2:8]
    D = measure.pairwise(X, Y)
    np.testing.assert_array_equal(D, [[measure(a, b) for b in Y] for a in X])
    assert (D >= 0.0).all()


class TestSINK:
    @pytest.mark.parametrize("gamma", [1.0, 5.0, 20.0])
    def test_matrix_matches_scalar(self, adversarial_batches, gamma):
        """W and E from the batched path equal the scalar sink bitwise."""
        measure = get_measure("sink")
        for name, X in adversarial_batches.items():
            Q = np.vstack([X[:4], np.full((1, X.shape[1]), 0.5)])
            np.testing.assert_array_equal(
                measure.pairwise(X, gamma=gamma),
                [[sink(a, b, gamma) for b in X] for a in X],
                err_msg=name,
            )
            np.testing.assert_array_equal(
                measure.pairwise(Q, X, gamma=gamma),
                [[sink(a, b, gamma) for b in X] for a in Q],
                err_msg=name,
            )

    def test_self_similarity_is_one(self, sine_pair):
        x, _ = sine_pair
        assert sink_similarity(x, x, gamma=5.0) == pytest.approx(1.0)

    def test_similarity_bounded(self, random_pairs):
        for x, y in random_pairs:
            s = sink_similarity(x, y, gamma=5.0)
            assert 0.0 <= s <= 1.0 + 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=48)
        shifted = np.roll(x, 11)
        assert sink(x, shifted, gamma=10.0) < sink(x, rng.normal(size=48), gamma=10.0)

    def test_large_gamma_no_overflow(self, sine_pair):
        x, y = sine_pair
        assert np.isfinite(sink(x, y, gamma=20.0))

    def test_symmetric(self, random_pairs):
        for x, y in random_pairs:
            assert sink(x, y) == pytest.approx(sink(y, x), abs=1e-9)


class TestGAK:
    def test_zero_for_identical(self, sine_pair):
        x, _ = sine_pair
        assert gak(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self, random_pairs):
        for x, y in random_pairs:
            assert gak(x, y, gamma=0.5) >= 0.0

    def test_symmetric(self, random_pairs):
        for x, y in random_pairs:
            assert gak(x, y, gamma=0.5) == pytest.approx(gak(y, x, gamma=0.5))

    def test_no_underflow_on_long_series(self):
        t = np.linspace(0, 20, 400)
        x, y = np.sin(t), np.sin(t + 0.4)
        assert np.isfinite(gak_log_kernel(x, y, gamma=0.1))
        assert np.isfinite(gak(x, y, gamma=0.1))

    def test_similar_pairs_closer_than_dissimilar(self):
        t = np.linspace(0, 6, 40)
        x = np.sin(t)
        near = np.sin(t + 0.1)
        far = np.cos(3 * t) + 2.0
        assert gak(x, near, gamma=0.5) < gak(x, far, gamma=0.5)

    def test_unequal_lengths_supported(self):
        assert np.isfinite(gak(np.sin(np.linspace(0, 6, 30)), np.sin(np.linspace(0, 6, 40))))


class TestKDTW:
    def test_self_similarity_is_one(self, sine_pair):
        x, _ = sine_pair
        assert kdtw_similarity(x, x, gamma=0.125) == pytest.approx(1.0)

    def test_zero_distance_for_identical(self, sine_pair):
        x, _ = sine_pair
        assert kdtw(x, x, gamma=0.125) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric(self, random_pairs):
        for x, y in random_pairs:
            assert kdtw(x, y) == pytest.approx(kdtw(y, x), rel=1e-6)

    def test_no_underflow_on_long_series(self):
        t = np.linspace(0, 20, 400)
        x, y = np.sin(t), np.sin(t + 0.4)
        assert np.isfinite(kdtw(x, y, gamma=0.125))

    def test_warp_tolerant(self):
        t = np.linspace(0, 2 * np.pi, 40)
        x = np.sin(t)
        warped = np.sin(t + 0.3 * np.sin(t / 2.0))
        unrelated = np.cos(5 * t) * 2.0
        assert kdtw(x, warped, gamma=0.125) < kdtw(x, unrelated, gamma=0.125)

    def test_matrix_matches_scalar(self, rng):
        measure = get_measure("kdtw")
        X, Y = rng.normal(size=(3, 14)), rng.normal(size=(2, 14))
        matrix = measure.pairwise(X, Y, gamma=0.125)
        for i in range(3):
            for j in range(2):
                assert matrix[i, j] == pytest.approx(
                    measure(X[i], Y[j], gamma=0.125), rel=1e-7
                )


class TestKernelRegistry:
    def test_four_kernel_measures(self):
        assert len(list_measures("kernel")) == 4

    @pytest.mark.parametrize("name", list_measures("kernel"))
    def test_psd_on_small_sample(self, name, rng):
        """Kernel measures must come from p.s.d. similarities (Section 8).

        We reconstruct the similarity matrix from the distance definition
        and check its eigenvalues are nonnegative (up to numerics).
        """
        X = rng.normal(size=(6, 16))
        if name == "rbf":
            sims = np.exp(
                -0.1 * np.array(
                    [[np.sum((a - b) ** 2) for b in X] for a in X]
                )
            )
        elif name == "sink":
            sims = np.array(
                [[sink_similarity(a, b, gamma=5.0) for b in X] for a in X]
            )
        elif name == "kdtw":
            sims = np.array(
                [[kdtw_similarity(a, b, gamma=0.125) for b in X] for a in X]
            )
        else:  # gak: normalized kernel exp(-distance)
            sims = np.exp(
                -np.array([[gak(a, b, gamma=1.0) for b in X] for a in X])
            )
        eigvals = np.linalg.eigvalsh((sims + sims.T) / 2.0)
        assert eigvals.min() > -1e-6, name
