r"""Longest Common Subsequence distance (paper Section 7).

LCSS [7, 141] adapts character edit-distances to real values: two points
match when their absolute difference is at most a threshold ``epsilon``,
and the warping window is constrained by ``delta`` (a percentage of the
series length, as in DTW). The distance is the standard complement

.. math::
    \mathrm{LCSS}_{dist}(x, y) = 1 - \frac{|\mathrm{LCSS}(x, y)|}{\min(m, n)}

so it lies in ``[0, 1]``. The paper finds LCSS the only elastic measure
that does not significantly beat NCC_c even under supervised tuning.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..base import DistanceMeasure, ParamSpec, register_measure
from ._dp import as_float_list, band_width, pairwise_dp

_EPSILON_GRID = (
    0.001, 0.003, 0.005, 0.007, 0.009, 0.01, 0.03, 0.05,
    0.07, 0.09, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


def lcss(
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float = 0.2,
    delta: float = 5.0,
) -> float:
    """LCSS distance in ``[0, 1]`` (0 means one series subsumes the other)."""
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    w = band_width(m, n, delta)
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        xi = xs[i - 1]
        cur = [0] * (n + 1)
        j_lo = max(1, i - w)
        j_hi = min(n, i + w)
        for j in range(j_lo, j_hi + 1):
            if abs(xi - ys[j - 1]) <= epsilon:
                cur[j] = prev[j - 1] + 1
            else:
                up = prev[j]
                left = cur[j - 1]
                cur[j] = up if up >= left else left
        prev = cur
    return 1.0 - prev[n] / float(min(m, n))


def _lcss_setup(xs: np.ndarray, ys: np.ndarray):
    row0 = np.zeros((ys.shape[0] + 1, 1))
    col0 = np.zeros((xs.shape[0] + 1, 1))
    return row0, col0, (xs,), (ys,)


def _lcss_cell(diag, up, left, xi, yj, *, epsilon: float):
    return np.where(np.abs(xi - yj) <= epsilon, diag + 1, np.maximum(up, left))


def _lcss_matrix(
    X: np.ndarray, Y: np.ndarray, epsilon: float = 0.2, delta: float = 5.0
) -> np.ndarray:
    """:func:`lcss` of every pair through :func:`pairwise_dp`, bitwise."""
    m, n = X.shape[1], Y.shape[1]
    lengths = pairwise_dp(
        X,
        Y,
        _lcss_setup,
        partial(_lcss_cell, epsilon=epsilon),
        band=band_width(m, n, delta),
        fill=0.0,
    )
    return 1.0 - lengths / float(min(m, n))


LCSS = register_measure(
    DistanceMeasure(
        name="lcss",
        label="LCSS",
        category="elastic",
        family="elastic",
        func=lcss,
        matrix_func=_lcss_matrix,
        params=(
            ParamSpec(
                name="epsilon",
                default=0.2,
                grid=_EPSILON_GRID,
                description="Matching threshold on |x_i - y_j|.",
            ),
            ParamSpec(
                name="delta",
                default=5.0,
                grid=(5.0, 10.0),
                description="Warping window, % of series length.",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Longest common subsequence complement.",
    )
)
