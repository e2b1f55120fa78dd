"""Input validation and coercion helpers shared across the library.

Every public distance/normalization entry point funnels its inputs through
:func:`as_series` (single time series) or :func:`as_dataset` (matrix of time
series), so the numerical kernels can assume clean, contiguous float64
arrays and concentrate on mathematics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import ValidationError

#: Numerical floor used to guard divisions and logarithms across measures.
EPS = 1e-12


def guarded_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, and 0 wherever ``den < EPS`` (a constant or zero
    series), without ever dividing by such a denominator."""
    out = np.zeros(np.broadcast_shapes(np.shape(num), np.shape(den)))
    return np.divide(num, den, out=out, where=~(den < EPS))


def as_series(x: Sequence[float] | np.ndarray, name: str = "x") -> np.ndarray:
    """Coerce *x* to a 1-D contiguous float64 array.

    Parameters
    ----------
    x:
        Any sequence of numbers (list, tuple, 1-D ndarray, or an
        ``(1, m)``/``(m, 1)`` array, which is flattened).
    name:
        Argument name used in error messages.

    Returns
    -------
    numpy.ndarray
        1-D float64 array of length >= 1 with no NaN/inf values.

    Raises
    ------
    ValidationError
        If the input is empty, not 1-D-like, or contains non-finite values.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise ValidationError(
            f"{name} must be a 1-D time series, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(
            f"{name} contains NaN or infinite values; interpolate or clean "
            "the series first (see repro.datasets.preprocessing)"
        )
    return np.ascontiguousarray(arr)


def as_pair(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    require_equal_length: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a pair of series, optionally enforcing equal length."""
    xa = as_series(x, "x")
    ya = as_series(y, "y")
    if require_equal_length and xa.shape[0] != ya.shape[0]:
        raise ValidationError(
            f"x and y must have equal length, got {xa.shape[0]} and "
            f"{ya.shape[0]}; resample first (repro.datasets.preprocessing)"
        )
    return xa, ya


def as_dataset(X: Sequence | np.ndarray, name: str = "X") -> np.ndarray:
    """Coerce *X* to a 2-D ``(n, m)`` float64 array of n time series.

    A single series is promoted to shape ``(1, m)``.
    """
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be a 2-D array of time series, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def as_labels(y: Sequence | np.ndarray, n: int, name: str = "labels") -> np.ndarray:
    """Coerce labels to a 1-D integer array of length *n*."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] != n:
        raise ValidationError(
            f"{name} must have length {n}, got {arr.shape[0]}"
        )
    return arr


def check_positive(value: float, name: str) -> float:
    """Validate that a scalar parameter is strictly positive."""
    if not np.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a positive number, got {value}")
    return float(value)


def check_probability_like(x: np.ndarray) -> np.ndarray:
    """Shift a series to be strictly positive for probability-style measures.

    Measures of the Fidelity and Entropy families interpret inputs as
    (unnormalized) probability density functions and are undefined for
    negative values. Following the paper's practice of pairing such measures
    with MinMax-style scalings, we clip at :data:`EPS` rather than raising,
    so z-normalized inputs degrade gracefully instead of producing NaN.
    """
    return np.maximum(x, EPS)
