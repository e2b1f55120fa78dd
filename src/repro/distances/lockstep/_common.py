"""Shared helpers for the lock-step measure families.

Lock-step measures compare the *i*-th point of one series with the *i*-th
point of the other, so every measure here reduces to elementwise arithmetic
followed by a reduction. Each measure is written once, as a function
``f(a, b)`` that reduces the last axis of two broadcastable arrays: the
scalar distance is ``f(x, y)`` on two series, and the matrix is
:func:`elementwise_matrix` of the same ``f``, so the two agree bitwise by
construction (each row is one pairwise-summed reduction whatever array
holds it).

Six measures built from ``‖x‖²``, ``‖y‖²`` and ``⟨x, y⟩`` (euclidean,
squaredeuclidean, rbf, innerproduct, cosine, asd) take their matrices from
:func:`gram_matrix` instead: one GEMM is an order of magnitude faster than
the broadcast from a few dozen series up, and their ``f`` stays the
definition the GEMM form is tested against, within the rounding bound of
:func:`~repro.index.scan.screen_slack`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..._validation import EPS

#: Shared numerical floor (re-exported for the family modules).
__all__ = [
    "EPS",
    "safe_div",
    "safe_log",
    "elementwise_matrix",
    "gram_matrix",
    "squared_gap",
]

#: Element budget of one :func:`elementwise_matrix` block: a block's
#: broadcast temporaries hold at most this many values each (``rows x
#: columns x m``). Whole rows of columns fill a block first, so a
#: 12 x 12 sweep matrix of length-32 series is one block; against a large
#: reference set a block splits the columns.
BROADCAST_BUDGET = 1 << 16


def safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise division with a tiny-denominator guard.

    Probability-style measures divide by values that can legitimately reach
    zero (e.g. MinMax-scaled series contain exact zeros); flooring the
    denominator keeps every distance finite and deterministic, which is what
    the registry promises the 1-NN classifier.
    """
    den = np.where(np.abs(den) < EPS, np.copysign(EPS, den + EPS), den)
    return num / den


def safe_log(values: np.ndarray) -> np.ndarray:
    """Natural log with the argument floored at :data:`EPS`."""
    return np.log(np.maximum(values, EPS))


def elementwise_matrix(
    f: Callable[..., np.ndarray]
) -> Callable[..., np.ndarray]:
    """The ``matrix_func`` of a measure defined by a last-axis reduction.

    ``f`` receives blocks of shapes ``(r, 1, m)`` and ``(1, c, m)`` plus
    the measure's parameters, and returns ``(r, c)``. Blocks span rows
    and columns under :data:`BROADCAST_BUDGET`, so peak memory does not
    grow with the reference set; every entry is ``f`` on one pair of
    rows, whatever the blocking.
    """

    def matrix_func(X: np.ndarray, Y: np.ndarray, **params) -> np.ndarray:
        n_x, n_y, m = X.shape[0], Y.shape[0], X.shape[1]
        per_row = n_y * m
        if per_row <= BROADCAST_BUDGET:
            row_step, col_step = BROADCAST_BUDGET // per_row, n_y
        else:
            row_step, col_step = 1, max(1, BROADCAST_BUDGET // m)
        out = np.empty((n_x, n_y), dtype=np.float64)
        for r0 in range(0, n_x, row_step):
            rows = slice(r0, r0 + row_step)
            for c0 in range(0, n_y, col_step):
                cols = slice(c0, c0 + col_step)
                out[rows, cols] = f(X[rows, None, :], Y[None, cols, :], **params)
        return out

    return matrix_func


def gram_matrix(
    form: Callable[..., np.ndarray]
) -> Callable[..., np.ndarray]:
    """The ``matrix_func`` of a measure written over the Gram quantities.

    ``form(xx, yy, xy, **params)`` receives the row sums ``‖x‖²`` as a
    column, ``‖y‖²`` as a row and ``⟨x, y⟩`` as one GEMM, ``X @ Y.T``.
    The norms are the row-wise reductions the measures' ``f`` take; only
    the inner product is summed in BLAS order.
    """

    def matrix_func(X: np.ndarray, Y: np.ndarray, **params) -> np.ndarray:
        xx = np.sum(X * X, axis=1)[:, None]
        yy = np.sum(Y * Y, axis=1)[None, :]
        return form(xx, yy, X @ Y.T, **params)

    return matrix_func


def squared_gap(xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """``‖x − y‖² = ‖x‖² + ‖y‖² − 2⟨x, y⟩`` from the Gram quantities,
    clamped at 0 against cancellation."""
    return np.maximum(xx + yy - 2.0 * xy, 0.0)
