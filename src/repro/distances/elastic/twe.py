r"""Time Warp Edit distance (paper Section 7).

TWE [92] combines LCSS-style editing with DTW-style warping: a stiffness
parameter ``nu`` charges for warping in time (multiplying the index gap)
and a constant ``lambda`` penalizes every delete operation. TWE is a metric
for ``nu > 0``. Together with MSM it significantly outperforms both NCC_c
and DTW in the unsupervised setting (Table 5 / Figure 6); the paper's
unsupervised choice is ``lambda = 1, nu = 1e-4``.

Following Marteau's reference implementation, both series are implicitly
padded with a zero sample at time 0 and pointwise costs use the absolute
difference.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..base import DistanceMeasure, ParamSpec, register_measure
from ._dp import INF, as_float_list, pairwise_dp


def twe(
    x: np.ndarray,
    y: np.ndarray,
    lam: float = 1.0,
    nu: float = 1e-4,
) -> float:
    """TWE distance with delete penalty *lam* and stiffness *nu*."""
    xs = [0.0] + as_float_list(np.asarray(x, dtype=np.float64))
    ys = [0.0] + as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs) - 1, len(ys) - 1
    prev = [INF] * (n + 1)
    prev[0] = 0.0
    delete_cost = nu + lam
    for i in range(1, m + 1):
        xi = xs[i]
        xim1 = xs[i - 1]
        cur = [INF] * (n + 1)
        cur_jm1 = INF
        prev_row = prev
        for j in range(1, n + 1):
            yj = ys[j]
            match = (
                prev_row[j - 1]
                + abs(xi - yj)
                + abs(xim1 - ys[j - 1])
                + 2.0 * nu * abs(i - j)
            )
            del_x = prev_row[j] + abs(xi - xim1) + delete_cost
            del_y = cur_jm1 + abs(yj - ys[j - 1]) + delete_cost
            best = match
            if del_x < best:
                best = del_x
            if del_y < best:
                best = del_y
            cur[j] = best
            cur_jm1 = best
        prev = cur
    return float(prev[n])


def _twe_setup(xs: np.ndarray, ys: np.ndarray):
    def inputs(vs):
        # vs[i - 1] and its predecessor (the zero pad before the first),
        # their gap, and the grid index i for the stiffness term.
        before = np.vstack([np.zeros((1, vs.shape[1])), vs[:-1]])
        index = np.arange(1, vs.shape[0] + 1, dtype=np.float64)[:, None]
        return vs, before, np.abs(vs - before), index

    row0 = np.full((ys.shape[0] + 1, 1), INF)
    col0 = np.full((xs.shape[0] + 1, 1), INF)
    row0[0] = col0[0] = 0.0
    return row0, col0, inputs(xs), inputs(ys)


def _twe_cell(
    diag, up, left, xi, xim1, dxi, i, yj, yjm1, dyj, j, *, lam: float, nu: float
):
    delete_cost = nu + lam
    match = diag + np.abs(xi - yj) + np.abs(xim1 - yjm1) + 2.0 * nu * np.abs(i - j)
    del_x = up + dxi + delete_cost
    del_y = left + dyj + delete_cost
    return np.minimum(np.minimum(match, del_x), del_y)


def _twe_matrix(
    X: np.ndarray, Y: np.ndarray, lam: float = 1.0, nu: float = 1e-4
) -> np.ndarray:
    """:func:`twe` of every pair through :func:`pairwise_dp`, bitwise."""
    return pairwise_dp(X, Y, _twe_setup, partial(_twe_cell, lam=lam, nu=nu))


TWE = register_measure(
    DistanceMeasure(
        name="twe",
        label="TWE",
        category="elastic",
        family="elastic",
        func=twe,
        matrix_func=_twe_matrix,
        params=(
            ParamSpec(
                name="lam",
                default=1.0,
                grid=(0.0, 0.25, 0.5, 0.75, 1.0),
                description="Delete penalty lambda (Table 4 grid).",
            ),
            ParamSpec(
                name="nu",
                default=1e-4,
                grid=(1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
                description="Warping stiffness nu (Table 4 grid).",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Time-warp edit metric; beats DTW unsupervised.",
    )
)
