r"""Kernel classifier for the Section 9 extension experiment.

The paper notes that kernel and embedding measures "achieve much higher
accuracy under different evaluation frameworks (e.g., with SVM
classifiers)" and leaves that analysis for future work. This module
implements the experiment with **kernel ridge classification** — a convex
one-vs-rest least-squares classifier over a precomputed kernel matrix,
which exercises the same property the SVM result rests on (the p.s.d.
kernels of Section 8 admit convex learning):

.. math::
    \alpha_c = (K + \lambda I)^{-1} y_c,\qquad
    \hat y(x) = \arg\max_c \; k(x, \cdot)^\top \alpha_c

Any of the four Section 8 kernels can be plugged in by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_dataset, as_labels
from ..distances.base import get_measure, list_measures
from ..distances.kernels.sink import sink_similarity_matrix
from ..distances.sliding.cross_correlation import sliding_reference
from ..exceptions import EvaluationError, ParameterError


def _check_kernel(kernel: str) -> None:
    """Raise :class:`ParameterError` unless ``kernel`` names a kernel measure."""
    available = list_measures("kernel")
    if kernel not in available:
        raise ParameterError(
            f"unknown kernel {kernel!r}; available: {available}"
        )


def kernel_matrix(
    kernel: str, X, Y=None, gamma: float | None = None
) -> np.ndarray:
    """Similarity matrix ``K[i, j] = k(X[i], Y[j])`` for a named kernel.

    Built from the measure registry's batched kernels: SINK's similarity
    over each series' spectrum, ``exp(-d)`` of the normalized log-kernel
    distances of KDTW and GAK, and for RBF ``exp(-gamma * d)`` of the
    squared ED (the registered ``rbf`` distance ``gamma * d`` is its
    negative log too). ``gamma=None`` takes the registry's default (the
    paper's unsupervised pick).
    """
    _check_kernel(kernel)
    Xa = as_dataset(X, "X")
    Ya = None if Y is None else as_dataset(Y, "Y")
    params = {} if gamma is None else {"gamma": gamma}
    if kernel == "sink":
        rows = sliding_reference(Xa)
        cols = rows if Ya is None else sliding_reference(Ya)
        return sink_similarity_matrix(rows, cols, **params)
    if kernel == "rbf":
        gamma = get_measure("rbf").resolve_params(params)["gamma"]
        return np.exp(-gamma * get_measure("squaredeuclidean").pairwise(Xa, Ya))
    return np.exp(-get_measure(kernel).pairwise(Xa, Ya, **params))


@dataclass
class KernelRidgeClassifier:
    """One-vs-rest kernel ridge classifier over a precomputed kernel.

    Parameters
    ----------
    kernel:
        ``"rbf"``, ``"sink"``, ``"gak"`` or ``"kdtw"``.
    gamma:
        Kernel bandwidth (``None`` uses each kernel measure's registry
        default).
    regularization:
        Ridge term :math:`\\lambda > 0`.
    """

    kernel: str = "sink"
    gamma: float | None = None
    regularization: float = 0.1

    def __post_init__(self) -> None:
        if self.regularization <= 0:
            raise ParameterError("regularization must be positive")
        _check_kernel(self.kernel)
        self._train_X: np.ndarray | None = None
        self._alphas: np.ndarray | None = None
        self._classes: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "KernelRidgeClassifier":
        """Solve the ridge systems on the training kernel matrix."""
        X = as_dataset(X)
        y = as_labels(y, X.shape[0], "y")
        classes = np.unique(y)
        if classes.size < 2:
            raise EvaluationError("need at least 2 classes")
        K = kernel_matrix(self.kernel, X, gamma=self.gamma)
        K_reg = K + self.regularization * np.eye(K.shape[0])
        targets = np.where(y[:, None] == classes[None, :], 1.0, -1.0)
        self._alphas = np.linalg.solve(K_reg, targets)
        self._train_X = X
        self._classes = classes
        return self

    def decision_function(self, X) -> np.ndarray:
        """Per-class scores ``(n, n_classes)``."""
        if self._train_X is None:
            raise EvaluationError("classifier must be fitted first")
        K = kernel_matrix(self.kernel, X, self._train_X, gamma=self.gamma)
        return K @ self._alphas

    def predict(self, X) -> np.ndarray:
        """Most-probable class per input series."""
        scores = self.decision_function(X)
        assert self._classes is not None
        return self._classes[np.argmax(scores, axis=1)]

    def score(self, X, y) -> float:
        """Classification accuracy on a labelled set."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))
