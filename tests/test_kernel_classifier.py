"""Tests for the kernel ridge classifier (Section 9 extension)."""

import math

import numpy as np
import pytest

from repro.classification.kernel_classifier import (
    KernelRidgeClassifier,
    kernel_matrix,
)
from repro.distances.kernels.gak import gak_log_kernel
from repro.distances.kernels.kdtw import kdtw_similarity
from repro.distances.kernels.rbf import rbf_kernel
from repro.distances.kernels.sink import sink_similarity
from repro.exceptions import EvaluationError, ParameterError


class TestKernelMatrix:
    @pytest.mark.parametrize("name", ["rbf", "sink", "gak", "kdtw"])
    def test_unit_diagonal(self, name, rng):
        X = rng.normal(size=(5, 16))
        K = kernel_matrix(name, X)
        assert np.allclose(np.diag(K), 1.0, atol=1e-6)

    @pytest.mark.parametrize("name", ["rbf", "sink", "gak", "kdtw"])
    def test_values_in_unit_interval(self, name, rng):
        X = rng.normal(size=(4, 16))
        K = kernel_matrix(name, X)
        assert (K >= -1e-9).all() and (K <= 1.0 + 1e-9).all()

    def test_rectangular_shape(self, rng):
        X = rng.normal(size=(4, 16))
        Y = rng.normal(size=(3, 16))
        assert kernel_matrix("rbf", X, Y).shape == (4, 3)

    def test_unknown_kernel_rejected(self, rng):
        with pytest.raises(ParameterError):
            kernel_matrix("nope", rng.normal(size=(2, 8)))

    @pytest.mark.parametrize("name", ["rbf", "sink", "gak", "kdtw"])
    def test_matches_pair_definitions(self, name, rng):
        """The registry-built matrix equals the per-pair kernel, to a
        relative 1e-12 — including RBF similarities far below 1e-16."""
        X = rng.normal(size=(6, 24))
        Y = rng.normal(size=(4, 24))
        gamma = {"rbf": 2.0, "sink": 5.0, "gak": 0.1, "kdtw": 0.125}[name]

        def pair(x, y):
            if name == "rbf":
                return rbf_kernel(x, y, gamma)
            if name == "sink":
                return sink_similarity(x, y, gamma)
            if name == "kdtw":
                return kdtw_similarity(x, y, gamma)
            log_xy = gak_log_kernel(x, y, gamma)
            log_xx, log_yy = gak_log_kernel(x, x, gamma), gak_log_kernel(y, y, gamma)
            return math.exp(min(0.0, log_xy - 0.5 * (log_xx + log_yy)))

        for A, B in ((X, None), (X, Y)):
            cols = A if B is None else B
            want = np.array([[pair(a, b) for b in cols] for a in A])
            np.testing.assert_allclose(
                kernel_matrix(name, A, B, gamma=gamma), want, rtol=1e-12
            )


class TestKernelRidgeClassifier:
    def test_separable_problem_perfect(self, small_dataset):
        clf = KernelRidgeClassifier(kernel="rbf", gamma=0.1).fit(
            small_dataset.train_X, small_dataset.train_y
        )
        assert clf.score(small_dataset.train_X, small_dataset.train_y) > 0.8

    def test_generalizes_to_test_set(self, small_dataset):
        clf = KernelRidgeClassifier(kernel="sink", gamma=5.0).fit(
            small_dataset.train_X, small_dataset.train_y
        )
        acc = clf.score(small_dataset.test_X, small_dataset.test_y)
        assert acc > 2.0 / small_dataset.n_classes

    def test_decision_function_shape(self, small_dataset):
        clf = KernelRidgeClassifier(kernel="rbf", gamma=0.1).fit(
            small_dataset.train_X, small_dataset.train_y
        )
        scores = clf.decision_function(small_dataset.test_X)
        assert scores.shape == (
            small_dataset.n_test,
            small_dataset.n_classes,
        )

    def test_predict_before_fit_rejected(self, small_dataset):
        clf = KernelRidgeClassifier()
        with pytest.raises(EvaluationError):
            clf.predict(small_dataset.test_X)

    def test_single_class_rejected(self, small_dataset):
        clf = KernelRidgeClassifier()
        labels = np.zeros(small_dataset.n_train, dtype=int)
        with pytest.raises(EvaluationError):
            clf.fit(small_dataset.train_X, labels)

    def test_invalid_regularization_rejected(self):
        with pytest.raises(ParameterError):
            KernelRidgeClassifier(regularization=0.0)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ParameterError):
            KernelRidgeClassifier(kernel="nope")

    def test_shift_invariant_kernel_beats_rbf_on_shifted_data(
        self, shifted_dataset
    ):
        """The Section 9 observation in miniature: with a richer
        classifier, the shift-invariant SINK kernel clearly beats the
        ED-bound RBF on shift-dominated data."""
        sink_clf = KernelRidgeClassifier(kernel="sink", gamma=5.0).fit(
            shifted_dataset.train_X, shifted_dataset.train_y
        )
        rbf_clf = KernelRidgeClassifier(kernel="rbf", gamma=0.1).fit(
            shifted_dataset.train_X, shifted_dataset.train_y
        )
        assert sink_clf.score(
            shifted_dataset.test_X, shifted_dataset.test_y
        ) >= rbf_clf.score(shifted_dataset.test_X, shifted_dataset.test_y)
