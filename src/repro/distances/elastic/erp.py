r"""Edit distance with Real Penalty (paper Section 7).

ERP [27] "bridges DTW and EDR" by charging gaps their real distance to a
constant reference value ``g`` (0 for z-normalized series), which makes ERP
a metric while keeping elastic alignment. ERP is the paper's only
*parameter-free* elastic measure that significantly beats NCC_c in both the
supervised and unsupervised pairwise comparisons (Table 5).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..base import DistanceMeasure, register_measure
from ._dp import as_float_list, pairwise_dp


def erp(x: np.ndarray, y: np.ndarray, g: float = 0.0) -> float:
    """ERP distance with gap reference value *g* (default 0)."""
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    gap_y = [abs(v - g) for v in ys]
    # First row: delete every prefix of y against the gap value.
    prev = [0.0] * (n + 1)
    for j in range(1, n + 1):
        prev[j] = prev[j - 1] + gap_y[j - 1]
    for i in range(1, m + 1):
        xi = xs[i - 1]
        gap_xi = abs(xi - g)
        cur = [prev[0] + gap_xi] + [0.0] * n
        cur_jm1 = cur[0]
        prev_row = prev
        for j in range(1, n + 1):
            match = prev_row[j - 1] + abs(xi - ys[j - 1])
            del_x = prev_row[j] + gap_xi
            del_y = cur_jm1 + gap_y[j - 1]
            best = match
            if del_x < best:
                best = del_x
            if del_y < best:
                best = del_y
            cur[j] = best
            cur_jm1 = best
        prev = cur
    return float(prev[n])


def _erp_setup(xs: np.ndarray, ys: np.ndarray, g: float):
    gap_x, gap_y = np.abs(xs - g), np.abs(ys - g)
    row0 = np.cumsum(np.vstack([np.zeros((1, ys.shape[1])), gap_y]), axis=0)
    col0 = np.cumsum(np.vstack([np.zeros((1, xs.shape[1])), gap_x]), axis=0)
    return row0, col0, (xs, gap_x), (ys, gap_y)


def _erp_cell(diag, up, left, xi, gap_xi, yj, gap_yj):
    match = diag + np.abs(xi - yj)
    del_x = up + gap_xi
    del_y = left + gap_yj
    return np.minimum(np.minimum(match, del_x), del_y)


def _erp_matrix(X: np.ndarray, Y: np.ndarray, g: float = 0.0) -> np.ndarray:
    """:func:`erp` of every pair through :func:`pairwise_dp`, bitwise."""
    return pairwise_dp(X, Y, partial(_erp_setup, g=g), _erp_cell)


ERP = register_measure(
    DistanceMeasure(
        name="erp",
        label="ERP",
        category="elastic",
        family="elastic",
        func=erp,
        matrix_func=_erp_matrix,
        complexity="O(m^2)",
        equal_length_only=False,
        description="Metric edit distance with real gap penalties (g = 0).",
    )
)
