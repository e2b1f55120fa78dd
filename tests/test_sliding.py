"""Unit tests for the sliding measures (paper Section 6)."""

import importlib
import tracemalloc

import numpy as np
import pytest

from repro.distances import get_measure, list_measures
from repro.distances.sliding import (
    best_shift,
    cross_correlation,
    cross_correlation_naive,
    ncc,
    ncc_b,
    ncc_c,
    ncc_u,
    sbd,
)


class TestCrossCorrelationSequence:
    def test_length_is_2m_minus_1(self, sine_pair):
        x, y = sine_pair
        assert cross_correlation(x, y).shape == (2 * x.shape[0] - 1,)

    def test_fft_matches_naive(self, random_pairs):
        """Eq. (10)'s FFT path must equal the O(m^2) definition."""
        for x, y in random_pairs:
            assert np.allclose(
                cross_correlation(x, y), cross_correlation_naive(x, y), atol=1e-8
            )

    def test_zero_shift_entry_is_dot_product(self, sine_pair):
        x, y = sine_pair
        cc = cross_correlation(x, y)
        assert cc[x.shape[0] - 1] == pytest.approx(float(np.dot(x, y)))

    def test_single_point_series(self):
        assert cross_correlation(np.array([2.0]), np.array([3.0])).tolist() == [6.0]

    def test_detects_known_shift(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        y = np.roll(x, 7)
        # x equals y shifted by -7: best alignment at shift -7 of y... the
        # convention is pinned by this test: best_shift(x, np.roll(x, s)) == -s
        # for circular shifts within +-(m-1).
        assert best_shift(x, y) in (-7, 50 - 7)


class TestNCCVariants:
    def test_four_sliding_measures_registered(self):
        assert len(list_measures("sliding")) == 4

    def test_sbd_alias(self):
        assert get_measure("sbd").name == "nccc"
        assert sbd is ncc_c

    def test_nccc_zero_for_identical(self, sine_pair):
        x, _ = sine_pair
        assert ncc_c(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_nccc_shift_invariant(self):
        # Zero-padded cross-correlation is invariant to shifts of a
        # compact-support pattern (a rolled tail of nonzero values would
        # be lost to the padding — see Section 6's shifting discussion).
        rng = np.random.default_rng(4)
        x = np.zeros(64)
        x[20:44] = rng.normal(size=24)
        shifted = np.roll(x, 9)
        assert ncc_c(x, shifted) == pytest.approx(0.0, abs=1e-9)

    def test_nccc_bounded(self, random_pairs):
        for x, y in random_pairs:
            assert 0.0 - 1e-9 <= ncc_c(x, y) <= 2.0 + 1e-9

    def test_nccc_scale_invariant(self, sine_pair):
        x, y = sine_pair
        assert ncc_c(x, 10.0 * y) == pytest.approx(ncc_c(x, y), abs=1e-9)

    def test_nccc_of_zero_series_is_one(self):
        assert ncc_c(np.zeros(8), np.ones(8)) == 1.0

    def test_ncc_b_is_ncc_over_m(self, sine_pair):
        x, y = sine_pair
        assert ncc_b(x, y) == pytest.approx(ncc(x, y) / x.shape[0])

    def test_ncc_u_overweights_extreme_shifts(self):
        # A pair whose only correlation is at an extreme shift: the
        # unbiased divisor (overlap length 1) amplifies it.
        x = np.zeros(8)
        x[0] = 1.0
        y = np.zeros(8)
        y[7] = 1.0
        assert ncc_u(x, y) == pytest.approx(-1.0)
        assert ncc_b(x, y) == pytest.approx(-1.0 / 8.0)

    def test_symmetry_of_nccc(self, random_pairs):
        for x, y in random_pairs:
            assert ncc_c(x, y) == pytest.approx(ncc_c(y, x), abs=1e-9)


class TestSlidingMatrices:
    @pytest.mark.parametrize("name", ["ncc", "nccb", "nccu", "nccc"])
    def test_matrix_matches_scalar(self, name, rng):
        measure = get_measure(name)
        X = rng.normal(size=(5, 20))
        Y = rng.normal(size=(4, 20))
        np.testing.assert_array_equal(
            measure.pairwise(X, Y), [[measure(x, y) for y in Y] for x in X]
        )

    def test_self_matrix_diagonal_zero_for_sbd(self, rng):
        X = rng.normal(size=(6, 16))
        W = get_measure("nccc").pairwise(X)
        assert np.allclose(np.diag(W), 0.0, atol=1e-9)


class TestBlockBudget:
    """``cc_blocks`` splits rows and columns under one element budget;
    every pair's sequence is still one row's inverse transform."""

    # The subpackage re-exports a function under the module's name.
    cc = importlib.import_module("repro.distances.sliding.cross_correlation")

    def test_blocked_equals_one_block(self, adversarial_batches, monkeypatch):
        X = adversarial_batches["more_rows_than_one_block"]
        Q = X[:7] * 0.5 + 1.0
        reference = self.cc.sliding_reference(X)
        nfft = reference.nfft

        def results():
            return (
                self.cc.cc_max_from_reference(Q, reference, "none"),
                self.cc.cc_max_from_reference(Q, reference, "unbiased"),
                self.cc.ncc_c_matrix_from_reference(Q, reference),
                get_measure("sink").pairwise(X, Q),
                get_measure("sink").pairwise(X),
            )

        assert 40 * 40 * nfft <= self.cc.CC_BUDGET  # one block each
        whole = results()
        # Whole rows per block, then part-rows: several row and column
        # blocks, ragged at both ends.
        for budget in (3 * 40 * nfft, 15 * nfft, nfft):
            monkeypatch.setattr(self.cc, "CC_BUDGET", budget)
            for got, want in zip(results(), whole):
                np.testing.assert_array_equal(got, want, err_msg=str(budget))

    def test_predict_batch_is_one_block(self):
        """The serving shape (4 queries vs 500 references, m = 128)."""
        reference = self.cc.sliding_reference(np.ones((500, 128)))
        fx = np.ones((4, reference.fft_conj.shape[1]), dtype=complex)
        blocks = list(
            self.cc.cc_blocks(fx, reference.fft_conj, reference.nfft, 128)
        )
        assert len(blocks) == 1

    def test_peak_memory_is_bounded(self):
        """32 queries against 2e4 references (m = 128): one 32-row block
        of all columns held 32 * 2e4 * 255 values per array, ≈2.5 GB of
        peak. Blocks now hold at most CC_BUDGET values per array; the
        product, its inverse transform and the shift-ordered copy are a
        few such arrays, so the peak stays under six budgets' worth of
        float64 values plus the output (≈29 MiB)."""
        gen = np.random.default_rng(0)
        Q = gen.normal(size=(32, 128))
        reference = self.cc.sliding_reference(gen.normal(size=(20000, 128)))
        tracemalloc.start()
        try:
            out = self.cc.ncc_c_matrix_from_reference(Q, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (32, 20000)
        assert peak < 6 * self.cc.CC_BUDGET * 8 + out.nbytes


class TestSlidingBeatsLockstepOnShiftedData(object):
    def test_sbd_separates_shifted_classes_better_than_ed(self, shifted_dataset):
        """The core of misconception M3: on shift-dominated data the
        sliding measure must clearly beat the lock-step baseline."""
        from repro.classification import dissimilarity_matrix, one_nn_accuracy

        ds = shifted_dataset
        acc = {}
        for name in ("euclidean", "nccc"):
            E = dissimilarity_matrix(name, ds.test_X, ds.train_X)
            acc[name] = one_nn_accuracy(E, ds.test_y, ds.train_y)
        assert acc["nccc"] >= acc["euclidean"]
        assert acc["nccc"] >= 0.8
