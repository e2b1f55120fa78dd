r"""Edit Distance on Real sequence (paper Section 7).

EDR [28] quantifies each pointwise comparison as 0 (match, when
``|x_i - y_j| <= epsilon``) or 1 (mismatch), and charges 1 for every gap,
penalizing unmatched stretches between matched subsequences. The result is
an integer edit count; we return it unnormalized (for the equal-length UCR
setting normalization is a constant factor and cannot change 1-NN ranks).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..base import DistanceMeasure, ParamSpec, register_measure
from ._dp import as_float_list, pairwise_dp

_EPSILON_GRID = (
    0.001, 0.003, 0.005, 0.007, 0.009, 0.01, 0.03, 0.05,
    0.07, 0.09, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


def edr(x: np.ndarray, y: np.ndarray, epsilon: float = 0.1) -> float:
    """EDR edit count between two series (lower is more similar)."""
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        xi = xs[i - 1]
        cur = [i] + [0] * n
        cur_jm1 = float(i)
        prev_row = prev
        for j in range(1, n + 1):
            sub = prev_row[j - 1] + (0 if abs(xi - ys[j - 1]) <= epsilon else 1)
            gap_x = prev_row[j] + 1
            gap_y = cur_jm1 + 1
            best = sub
            if gap_x < best:
                best = gap_x
            if gap_y < best:
                best = gap_y
            cur[j] = best
            cur_jm1 = best
        prev = cur
    return float(prev[n])


def _edr_setup(xs: np.ndarray, ys: np.ndarray):
    row0 = np.arange(ys.shape[0] + 1, dtype=np.float64)[:, None]
    col0 = np.arange(xs.shape[0] + 1, dtype=np.float64)[:, None]
    return row0, col0, (xs,), (ys,)


def _edr_cell(diag, up, left, xi, yj, *, epsilon: float):
    sub = diag + (np.abs(xi - yj) > epsilon)
    return np.minimum(np.minimum(sub, up + 1), left + 1)


def _edr_matrix(X: np.ndarray, Y: np.ndarray, epsilon: float = 0.1) -> np.ndarray:
    """:func:`edr` of every pair through :func:`pairwise_dp`, bitwise."""
    return pairwise_dp(X, Y, _edr_setup, partial(_edr_cell, epsilon=epsilon))


EDR = register_measure(
    DistanceMeasure(
        name="edr",
        label="EDR",
        category="elastic",
        family="elastic",
        func=edr,
        matrix_func=_edr_matrix,
        params=(
            ParamSpec(
                name="epsilon",
                default=0.1,
                grid=_EPSILON_GRID,
                description="Match threshold on |x_i - y_j| (Table 4).",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Edit distance on real sequences (0/1 point costs).",
    )
)
