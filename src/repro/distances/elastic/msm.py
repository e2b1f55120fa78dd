r"""Move-Split-Merge distance (paper Section 7).

MSM [137] edits one series into the other with three operations: *move*
(substitute a value, costing the value change), *split* (duplicate a value)
and *merge* (collapse equal adjacent values), the latter two costing a
constant ``c``. Unlike DTW/LCSS/EDR, MSM is a metric. It is the paper's
headline elastic result for misconception M4: the only measure that
significantly outperforms DTW under supervised settings, and (with TWE)
significantly better than DTW unsupervised. The paper's unsupervised choice
is ``c = 0.5``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..base import DistanceMeasure, ParamSpec, register_measure
from ._dp import as_float_list, pairwise_dp


def _split_merge_cost(new: float, left: float, right: float, c: float) -> float:
    """Cost of splitting/merging *new* between neighbors *left*/*right*."""
    if left <= new <= right or right <= new <= left:
        return c
    return c + min(abs(new - left), abs(new - right))


def msm(x: np.ndarray, y: np.ndarray, c: float = 0.5) -> float:
    """MSM distance with split/merge cost *c* (Stefan et al., TKDE 2013)."""
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    prev = [0.0] * n
    # First row/column accumulate split/merge chains from the corner cell.
    prev[0] = abs(xs[0] - ys[0])
    for j in range(1, n):
        prev[j] = prev[j - 1] + _split_merge_cost(ys[j], ys[j - 1], xs[0], c)
    for i in range(1, m):
        xi = xs[i]
        xim1 = xs[i - 1]
        cur = [0.0] * n
        cur[0] = prev[0] + _split_merge_cost(xi, xim1, ys[0], c)
        cur_jm1 = cur[0]
        prev_row = prev
        for j in range(1, n):
            yj = ys[j]
            move = prev_row[j - 1] + abs(xi - yj)
            split = prev_row[j] + _split_merge_cost(xi, xim1, yj, c)
            merge = cur_jm1 + _split_merge_cost(yj, ys[j - 1], xi, c)
            best = move
            if split < best:
                best = split
            if merge < best:
                best = merge
            cur[j] = best
            cur_jm1 = best
        prev = cur
    return float(prev[n - 1])


def _split_merge_costs(new, left, right, c: float) -> np.ndarray:
    """:func:`_split_merge_cost` elementwise."""
    between = ((left <= new) & (new <= right)) | ((right <= new) & (new <= left))
    return np.where(
        between, c, c + np.minimum(np.abs(new - left), np.abs(new - right))
    )


def _msm_setup(xs: np.ndarray, ys: np.ndarray, c: float):
    # Grid cell (i, j) is msm's (x[i], y[j]): the corner and its
    # split/merge chains are the boundary, interior rows start at x[1].
    corner = np.abs(xs[0] - ys[0])[None]
    row0 = np.cumsum(
        np.vstack([corner, _split_merge_costs(ys[1:], ys[:-1], xs[0], c)]), axis=0
    )
    col0 = np.cumsum(
        np.vstack([corner, _split_merge_costs(xs[1:], xs[:-1], ys[0], c)]), axis=0
    )
    return row0, col0, (xs[1:], xs[:-1]), (ys[1:], ys[:-1])


def _msm_cell(diag, up, left, xi, xim1, yj, yjm1, *, c: float):
    move = diag + np.abs(xi - yj)
    split = up + _split_merge_costs(xi, xim1, yj, c)
    merge = left + _split_merge_costs(yj, yjm1, xi, c)
    return np.minimum(np.minimum(move, split), merge)


def _msm_matrix(X: np.ndarray, Y: np.ndarray, c: float = 0.5) -> np.ndarray:
    """:func:`msm` of every pair through :func:`pairwise_dp`, bitwise."""
    return pairwise_dp(X, Y, partial(_msm_setup, c=c), partial(_msm_cell, c=c))


MSM = register_measure(
    DistanceMeasure(
        name="msm",
        label="MSM",
        category="elastic",
        family="elastic",
        func=msm,
        matrix_func=_msm_matrix,
        params=(
            ParamSpec(
                name="c",
                default=0.5,
                grid=(0.01, 0.1, 1.0, 10.0, 100.0, 0.05, 0.5, 5.0, 50.0, 500.0),
                description="Split/merge operation cost (Table 4 grid).",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Move-split-merge metric; beats DTW (Table 5).",
    )
)
