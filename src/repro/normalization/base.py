"""Normalizer abstraction and registry.

The paper (Section 4) studies 8 normalization methods as preprocessing steps
before distance computation. Seven of them transform a single series in
isolation; one (AdaptiveScaling) computes a scaling factor *per pair* of
series at comparison time. This module provides a uniform wrapper for both
kinds plus a name-based registry, so evaluation code can sweep methods by
name exactly as the paper's Tables 2 and 3 do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .._validation import as_dataset, as_series
from ..exceptions import UnknownNormalizationError

#: Row-wise along the last axis: maps an ``(..., m)`` array to one of the
#: same shape, each row normalized on its own.
SeriesTransform = Callable[[np.ndarray], np.ndarray]
#: Maps ``(x, Y)`` to ``(x', Y')``: series ``x`` against every row of
#: ``Y`` along the last axis (one series or a whole dataset).
PairTransform = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Normalizer:
    """A named time-series normalization method.

    Attributes
    ----------
    name:
        Canonical registry name (e.g. ``"zscore"``).
    label:
        Human-readable label used in reports (e.g. ``"z-score"``).
    transform:
        Row-wise function along the last axis of an ``(..., m)`` array:
        it normalizes one series, or every row of a dataset in one call,
        each row independently and bitwise as if alone. Inputs are
        validated by the caller. ``None`` for purely pairwise methods.
    pair_transform:
        For pairwise methods (AdaptiveScaling): maps ``(x, Y)`` to what is
        actually compared, ``x`` against every row of ``Y`` along the
        last axis (``Y`` one series or a dataset). ``None`` for
        per-series methods, whose :meth:`apply_pair` applies
        :attr:`transform` to both sides.
    description:
        One-line summary shown by :func:`describe_normalizations`.
    """

    name: str
    label: str
    transform: SeriesTransform | None
    description: str
    pair_transform: PairTransform | None = None
    aliases: tuple[str, ...] = field(default=())

    @property
    def is_pairwise(self) -> bool:
        """Whether the method needs both series of a comparison."""
        return self.transform is None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Normalize a single series (identity for pairwise methods)."""
        x = as_series(x)
        if self.transform is None:
            return x
        return self.transform(x)

    def apply_pair(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalize both sides of a pairwise comparison."""
        if self.pair_transform is not None:
            return self.pair_transform(as_series(x), as_series(y))
        return self(x), self(y)

    def apply_dataset(self, X: np.ndarray) -> np.ndarray:
        """Normalize every row of an ``(n, m)`` dataset independently,
        in one call of :attr:`transform`.

        Pairwise methods return the dataset unchanged (they act at
        comparison time instead).
        """
        X = as_dataset(X)
        if self.transform is None:
            return X
        return self.transform(X)


_REGISTRY: dict[str, Normalizer] = {}


def register_normalizer(normalizer: Normalizer) -> Normalizer:
    """Add a normalizer (and its aliases) to the global registry."""
    keys = (normalizer.name, *normalizer.aliases)
    for key in keys:
        _REGISTRY[_canonical(key)] = normalizer
    return normalizer


def _canonical(name: str) -> str:
    return name.replace("-", "").replace("_", "").replace(" ", "").lower()


def get_normalizer(name: str | Normalizer) -> Normalizer:
    """Look up a normalizer by name (case/punctuation-insensitive)."""
    if isinstance(name, Normalizer):
        return name
    key = _canonical(name)
    if key not in _REGISTRY:
        raise UnknownNormalizationError(name, list_normalizers())
    return _REGISTRY[key]


def list_normalizers() -> list[str]:
    """Canonical names of all registered normalization methods."""
    return sorted({n.name for n in _REGISTRY.values()})


def iter_normalizers() -> Iterator[Normalizer]:
    """Iterate unique registered normalizers in name order."""
    seen: dict[str, Normalizer] = {}
    for norm in _REGISTRY.values():
        seen.setdefault(norm.name, norm)
    for name in sorted(seen):
        yield seen[name]


def normalize(x, method: str = "zscore") -> np.ndarray:
    """Normalize a single series with the named method.

    This is the convenience entry point used throughout examples::

        >>> import numpy as np
        >>> from repro.normalization import normalize
        >>> z = normalize(np.array([1.0, 2.0, 3.0]), "zscore")
        >>> round(float(z.mean()), 12)
        0.0
    """
    return get_normalizer(method)(x)


def normalize_dataset(X, method: str = "zscore") -> np.ndarray:
    """Normalize every series (row) of a dataset with the named method."""
    return get_normalizer(method).apply_dataset(X)


def describe_normalizations() -> list[tuple[str, str]]:
    """Return ``(name, description)`` rows for the 8 studied methods."""
    return [(n.label, n.description) for n in iter_normalizers()]
