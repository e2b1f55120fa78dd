r"""Sequence Weighted Alignment model (paper Section 7).

Swale [100] scores alignments with a *reward* ``r`` for every matched pair
of points (``|x_i - y_j| <= epsilon``) and a *penalty* ``p`` for every gap,
maximizing the total score. The paper's Table 4 fixes ``p = 5, r = 1`` and
sweeps ``epsilon``. Higher scores mean more similar, so the registered
dissimilarity is the negated optimal score.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..base import DistanceMeasure, ParamSpec, register_measure
from ._dp import as_float_list, pairwise_dp

_EPSILON_GRID = (
    0.01, 0.03, 0.05, 0.07, 0.09, 0.1,
    0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


def swale_score(
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float = 0.2,
    p: float = 5.0,
    r: float = 1.0,
) -> float:
    """Optimal Swale alignment score (higher = more similar)."""
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    # Deleting an entire prefix costs one penalty per dropped point.
    prev = [-p * j for j in range(n + 1)]
    for i in range(1, m + 1):
        xi = xs[i - 1]
        cur = [-p * i] + [0.0] * n
        cur_jm1 = cur[0]
        prev_row = prev
        for j in range(1, n + 1):
            if abs(xi - ys[j - 1]) <= epsilon:
                score = prev_row[j - 1] + r
            else:
                gap_x = prev_row[j]
                gap_y = cur_jm1
                score = (gap_x if gap_x >= gap_y else gap_y) - p
            cur[j] = score
            cur_jm1 = score
        prev = cur
    return float(prev[n])


def swale(
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float = 0.2,
    p: float = 5.0,
    r: float = 1.0,
) -> float:
    """Swale dissimilarity: negated optimal alignment score."""
    return -swale_score(x, y, epsilon=epsilon, p=p, r=r)


def _swale_setup(xs: np.ndarray, ys: np.ndarray, p: float):
    row0 = -p * np.arange(ys.shape[0] + 1, dtype=np.float64)[:, None]
    col0 = -p * np.arange(xs.shape[0] + 1, dtype=np.float64)[:, None]
    return row0, col0, (xs,), (ys,)


def _swale_cell(diag, up, left, xi, yj, *, epsilon: float, p: float, r: float):
    return np.where(np.abs(xi - yj) <= epsilon, diag + r, np.maximum(up, left) - p)


def _swale_matrix(
    X: np.ndarray,
    Y: np.ndarray,
    epsilon: float = 0.2,
    p: float = 5.0,
    r: float = 1.0,
) -> np.ndarray:
    """:func:`swale` of every pair through :func:`pairwise_dp`, bitwise."""
    return -pairwise_dp(
        X,
        Y,
        partial(_swale_setup, p=p),
        partial(_swale_cell, epsilon=epsilon, p=p, r=r),
    )


SWALE = register_measure(
    DistanceMeasure(
        name="swale",
        label="Swale",
        category="elastic",
        family="elastic",
        func=swale,
        matrix_func=_swale_matrix,
        params=(
            ParamSpec(
                name="epsilon",
                default=0.2,
                grid=_EPSILON_GRID,
                description="Match threshold on |x_i - y_j| (Table 4).",
            ),
            ParamSpec(
                name="p",
                default=5.0,
                grid=(5.0,),
                description="Gap penalty (fixed at 5 in Table 4).",
            ),
            ParamSpec(
                name="r",
                default=1.0,
                grid=(1.0,),
                description="Match reward (fixed at 1 in Table 4).",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Reward/penalty alignment model (negated score).",
    )
)
