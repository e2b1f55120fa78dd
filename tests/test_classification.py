"""Tests for the 1-NN framework (paper Algorithm 1) and LOOCV tuning."""

import numpy as np
import pytest

from repro.classification import (
    dissimilarity_matrix,
    evaluation_matrices,
    leave_one_out_accuracy,
    one_nn_accuracy,
    one_nn_predict,
    tune_parameters,
)
from repro.exceptions import EvaluationError, ValidationError


class TestOneNN:
    def test_perfect_separation(self):
        E = np.array([[0.1, 5.0], [5.0, 0.1]])
        assert one_nn_accuracy(E, [0, 1], [0, 1]) == 1.0

    def test_total_confusion(self):
        E = np.array([[5.0, 0.1], [0.1, 5.0]])
        assert one_nn_accuracy(E, [0, 1], [0, 1]) == 0.0

    def test_tie_breaks_to_first_index(self):
        """Algorithm 1 keeps the first minimum (strict < comparison)."""
        E = np.array([[1.0, 1.0, 1.0]])
        assert one_nn_predict(E, [7, 8, 9]).tolist() == [7]

    def test_fractional_accuracy(self):
        E = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert one_nn_accuracy(E, [0, 1], [0, 1]) == 0.5

    def test_nan_matrix_rejected(self):
        E = np.array([[np.nan, 1.0]])
        with pytest.raises(EvaluationError, match="NaN"):
            one_nn_predict(E, [0, 1])

    def test_label_length_checked(self):
        with pytest.raises(Exception):
            one_nn_predict(np.ones((2, 3)), [0, 1])


class TestLeaveOneOut:
    def test_diagonal_excluded(self):
        # Without masking, every series would pick itself (accuracy 1).
        W = np.array(
            [
                [0.0, 1.0, 9.0],
                [1.0, 0.0, 9.0],
                [9.0, 9.0, 0.0],
            ]
        )
        labels = np.array([0, 0, 1])
        # Series 2's nearest non-self neighbor has label 0 -> misclassified.
        assert leave_one_out_accuracy(W, labels) == pytest.approx(2.0 / 3.0)

    def test_nonsquare_rejected(self):
        with pytest.raises(EvaluationError):
            leave_one_out_accuracy(np.ones((2, 3)), [0, 1])

    def test_single_series_rejected(self):
        with pytest.raises(EvaluationError):
            leave_one_out_accuracy(np.zeros((1, 1)), [0])


class TestDissimilarityMatrix:
    def test_self_matrix_square(self, small_dataset):
        W = dissimilarity_matrix("euclidean", small_dataset.train_X)
        assert W.shape == (small_dataset.n_train,) * 2
        # The vectorized ED path uses the dot-product identity, which
        # carries ~1e-7 float error on the diagonal.
        assert np.allclose(np.diag(W), 0.0, atol=1e-6)

    def test_normalization_applied(self, small_dataset):
        raw = dissimilarity_matrix(
            "euclidean", small_dataset.test_X, small_dataset.train_X
        )
        normed = dissimilarity_matrix(
            "euclidean",
            small_dataset.test_X,
            small_dataset.train_X,
            normalization="minmax",
        )
        assert not np.allclose(raw, normed)

    def test_adaptive_scaling_path(self, small_dataset):
        """AdaptiveScaling is pairwise: the matrix must equal scaling each
        comparison's second series by the optimal factor."""
        from repro.normalization import adaptive_scaling_factor

        test_X = small_dataset.test_X[:3]
        train_X = small_dataset.train_X[:4]
        E = dissimilarity_matrix(
            "euclidean", test_X, train_X, normalization="adaptive"
        )
        for i in range(3):
            for j in range(4):
                a = adaptive_scaling_factor(test_X[i], train_X[j])
                expected = float(np.linalg.norm(test_X[i] - a * train_X[j]))
                assert E[i, j] == pytest.approx(expected)

    def test_adaptive_unequal_lengths_name_both(self):
        """Elastic measures take unequal lengths; AdaptiveScaling's
        point-by-point factor does not, on either entry path."""
        import repro

        gen = np.random.default_rng(8)
        X20, Y25 = gen.normal(size=(3, 20)), gen.normal(size=(4, 25))
        assert dissimilarity_matrix("dtw", X20, Y25).shape == (3, 4)
        with pytest.raises(ValidationError, match="20 and 25"):
            dissimilarity_matrix("dtw", X20, Y25, "adaptive")
        with pytest.raises(ValidationError, match="20 and 25"):
            repro.distance(X20[0], Y25[0], "dtw", normalization="adaptive")

    def test_evaluation_matrices_shapes(self, small_dataset):
        W, E = evaluation_matrices("lorentzian", small_dataset)
        assert W.shape == (small_dataset.n_train,) * 2
        assert E.shape == (small_dataset.n_test, small_dataset.n_train)

    def test_evaluation_matrices_skip_train(self, small_dataset):
        W, E = evaluation_matrices(
            "lorentzian", small_dataset, need_train_matrix=False
        )
        assert W is None and E is not None


@pytest.fixture(scope="module")
def adaptive_data():
    """Queries and references with a zero-norm reference row (factor 0)."""
    gen = np.random.default_rng(21)
    X = gen.normal(size=(4, 16))
    Y = gen.normal(size=(5, 16)) * gen.uniform(0.5, 3.0, size=(5, 1))
    Y[2] = 0.0
    return X, Y


def _adaptive_oracle(measure, X, Y):
    """Each entry through the measure's own ``pairwise`` on one pair."""
    from repro.distances import get_measure
    from repro.normalization import adaptive_scaling_factor

    m = get_measure(measure)
    return np.array(
        [
            [
                m.pairwise(x[None], (adaptive_scaling_factor(x, y) * y)[None])[0, 0]
                for y in Y
            ]
            for x in X
        ]
    )


class TestAdaptiveScalingMatrices:
    """AdaptiveScaling runs through each measure's batched kernel: every
    entry of E and of the full (asymmetric) W equals the measure's
    ``pairwise`` on that one scaled pair."""

    @pytest.mark.parametrize(
        "measure", ["lorentzian", "manhattan", "jaccard", "nccc", "dtw", "msm"]
    )
    def test_bitwise_per_entry(self, measure, adaptive_data):
        X, Y = adaptive_data
        E = dissimilarity_matrix(measure, X, Y, "adaptive")
        W = dissimilarity_matrix(measure, Y, None, "adaptive")
        assert E.tobytes() == _adaptive_oracle(measure, X, Y).tobytes()
        assert W.tobytes() == _adaptive_oracle(measure, Y, Y).tobytes()

    def test_euclidean_expanded_form_is_close(self, adaptive_data):
        X, Y = adaptive_data
        E = dissimilarity_matrix("euclidean", X, Y, "adaptive")
        W = dissimilarity_matrix("euclidean", Y, None, "adaptive")
        assert np.allclose(E, _adaptive_oracle("euclidean", X, Y), rtol=1e-12, atol=1e-6)
        assert np.allclose(W, _adaptive_oracle("euclidean", Y, Y), rtol=1e-12, atol=1e-6)

    def test_w_is_asymmetric(self, adaptive_data):
        _, Y = adaptive_data
        W = dissimilarity_matrix("lorentzian", Y, None, "adaptive")
        assert not np.array_equal(W, W.T)


class TestAdaptiveScalingStaysBatched:
    """A fallback to per-pair loops keeps every answer and only costs
    time, which the sweep's latency gate is too coarse to see; these
    count the calls instead."""

    def test_one_pairwise_call_per_query_row(self, adaptive_data, monkeypatch):
        from repro.distances.base import DistanceMeasure
        from repro.normalization.base import Normalizer

        calls = {"apply_pair": 0, "pairwise": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Normalizer, "apply_pair", counted("apply_pair", Normalizer.apply_pair)
        )
        monkeypatch.setattr(
            DistanceMeasure, "pairwise", counted("pairwise", DistanceMeasure.pairwise)
        )
        X, Y = adaptive_data
        dissimilarity_matrix("lorentzian", X, Y, "adaptive")
        assert calls == {"apply_pair": 0, "pairwise": len(X)}

    def test_elastic_measure_never_calls_its_scalar_function(self, adaptive_data):
        import dataclasses

        from repro.distances import get_measure

        calls = []
        msm = get_measure("msm")

        def scalar(x, y, **params):
            calls.append(1)
            return msm.func(x, y, **params)

        spied = dataclasses.replace(msm, func=scalar)
        X, Y = adaptive_data
        got = dissimilarity_matrix(spied, X, Y, "adaptive", backend="reference")
        want = dissimilarity_matrix(msm, X, Y, "adaptive", backend="reference")
        assert calls == []
        assert got.tobytes() == want.tobytes()


class TestTuning:
    def test_parameter_free_measure_short_circuits(self, small_dataset):
        result = tune_parameters(
            "euclidean", small_dataset.train_X, small_dataset.train_y
        )
        assert result.params == {}
        assert result.trials == ()

    def test_grid_is_swept_and_best_kept(self, small_dataset):
        grid = [{"delta": 0.0}, {"delta": 10.0}]
        result = tune_parameters(
            "dtw", small_dataset.train_X, small_dataset.train_y, grid=grid
        )
        assert result.params in grid
        assert len(result.trials) == 2
        best = max(acc for _, acc in result.trials)
        assert result.train_accuracy == best

    def test_tie_breaks_to_first_grid_entry(self, small_dataset):
        # Identical combinations force a tie; the first must win.
        grid = [{"delta": 10.0}, {"delta": 10.0}]
        result = tune_parameters(
            "dtw", small_dataset.train_X, small_dataset.train_y, grid=grid
        )
        assert result.params == {"delta": 10.0}
        assert result.trials[0][1] == result.trials[1][1]

    def test_tuning_on_shifted_data_prefers_wide_band(self, shifted_dataset):
        """On shift-dominated data LOOCV must not pick the diagonal band."""
        grid = [{"delta": 0.0}, {"delta": 100.0}]
        result = tune_parameters(
            "dtw", shifted_dataset.train_X, shifted_dataset.train_y, grid=grid
        )
        assert result.params == {"delta": 100.0}
