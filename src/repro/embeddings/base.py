"""Embedding-measure abstraction (paper Section 9).

Embedding measures "employ a similarity measure only to construct new
representations"; the representations are similarity-preserving, so
comparing two of them with ED approximates comparing the original series
with the measure used during construction. Unlike the direct measures they
have a *fit* phase on the training set, so they expose a scikit-learn-style
``fit``/``transform`` interface plus an adapter producing the W/E
dissimilarity matrices the 1-NN evaluation framework consumes.

Following the paper, all embeddings default to representations of length
100 (capped by what the data supports), and the final comparison is always
plain Euclidean distance over the representations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from .._validation import as_dataset
from ..distances.lockstep.minkowski import EUCLIDEAN
from ..exceptions import EvaluationError, UnknownMeasureError

#: Representation length used across the paper's Table 7 ("for fairness").
DEFAULT_DIMENSIONS = 100


class Embedding(ABC):
    """Base class for similarity-preserving representation learners."""

    #: Canonical registry name; subclasses override.
    name: str = "embedding"
    #: Display label for paper-style tables.
    label: str = "Embedding"
    #: Measure the representation preserves (for documentation/figures).
    preserves: str = "euclidean"

    def __init__(self, dimensions: int = DEFAULT_DIMENSIONS, random_state: int = 0):
        self.dimensions = int(dimensions)
        self.random_state = int(random_state)
        self._fitted = False

    # ------------------------------------------------------------------
    @abstractmethod
    def _fit(self, X: np.ndarray) -> None:
        """Learn representation parameters from the training set."""

    @abstractmethod
    def _transform(self, X: np.ndarray) -> np.ndarray:
        """Map ``(n, m)`` series to ``(n, d)`` representations."""

    # ------------------------------------------------------------------
    def fit(self, X) -> "Embedding":
        """Fit the embedding on a training dataset."""
        X = as_dataset(X)
        self._fit(X)
        self._fitted = True
        return self

    def transform(self, X) -> np.ndarray:
        """Embed a dataset; requires :meth:`fit` to have run."""
        if not self._fitted:
            raise EvaluationError(
                f"{self.name} embedding must be fitted before transform()"
            )
        return self._transform(as_dataset(X))

    def fit_transform(self, X) -> np.ndarray:
        """Fit on *X* and return its representations."""
        return self.fit(X).transform(X)

    # ------------------------------------------------------------------
    def dissimilarity_matrices(
        self, train_X, test_X
    ) -> tuple[np.ndarray, np.ndarray]:
        """Paper-style ``(W, E)`` matrices: ED over learned representations.

        ``W`` compares training representations with themselves (used for
        leave-one-out tuning) and ``E`` compares test against training.
        """
        self.fit(train_X)
        z_train = self.transform(train_X)
        z_test = self.transform(test_X)
        ed = EUCLIDEAN.matrix_func
        return ed(z_train, z_train), ed(z_test, z_train)

    def _rng(self) -> np.random.Generator:
        """Deterministic generator derived from ``random_state``."""
        return np.random.default_rng(self.random_state)

    def _effective_dims(self, *limits: int) -> int:
        """Representation size honoring data-imposed caps."""
        return max(1, min(self.dimensions, *limits))


_REGISTRY: dict[str, type[Embedding]] = {}


def register_embedding(cls: type[Embedding]) -> type[Embedding]:
    """Class decorator adding an embedding to the registry."""
    _REGISTRY[cls.name.lower()] = cls
    return cls


def get_embedding(name: str, **kwargs) -> Embedding:
    """Instantiate an embedding by name (``grail``, ``sidl``, ``spiral``,
    ``rws``)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise UnknownMeasureError(name, list_embeddings())
    return _REGISTRY[key](**kwargs)


def list_embeddings() -> list[str]:
    """Canonical names of registered embeddings."""
    return sorted(_REGISTRY)


def iter_embeddings(**kwargs) -> Iterator[Embedding]:
    """Instantiate every registered embedding with shared kwargs."""
    for name in list_embeddings():
        yield get_embedding(name, **kwargs)
