r"""Global Alignment Kernel (paper Section 8).

GAK [38] sums the Gaussian-kernel score of *all* monotone alignments
between two series (DTW keeps only the best one), which makes it positive
semi-definite when the local kernel is "geodesically" normalized as Cuturi
recommends:

.. math::
    \kappa(a, b) = \frac{e^{-\phi(a,b)}}{2 - e^{-\phi(a,b)}},\qquad
    \phi(a, b) = \frac{(a-b)^2}{2\gamma^2}

with the DP recurrence
:math:`K_{i,j} = \kappa(x_i, y_j)(K_{i-1,j} + K_{i,j-1} + K_{i-1,j-1})`.

Because the kernel value shrinks geometrically with series length the DP is
computed with per-row rescaling and a tracked log-scale, and the registered
dissimilarity is the (always nonnegative) normalized log-kernel distance

.. math::
    d(x, y) = \tfrac12\left(\log K(x,x) + \log K(y,y)\right) - \log K(x,y).
"""

from __future__ import annotations

import math

import numpy as np

from ..._validation import as_pair
from ..base import DistanceMeasure, ParamSpec, register_measure
from ..elastic._dp import as_float_list

_RESCALE_THRESHOLD = 1e-280
_RESCALE_FACTOR = 1e280
_LOG_RESCALE = math.log(_RESCALE_FACTOR)

_GAMMA_GRID = (
    0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
    8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0,
    20.0,
)


def gak_log_kernel(x: np.ndarray, y: np.ndarray, gamma: float = 0.1) -> float:
    """log of the (unnormalized) global alignment kernel value."""
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    inv_two_gamma_sq = 1.0 / (2.0 * gamma * gamma)
    exp = math.exp
    prev = [1.0] + [0.0] * n  # virtual row 0: K[0][0] = 1
    log_scale = 0.0
    for i in range(m):
        xi = xs[i]
        cur = [0.0] * (n + 1)
        cur_jm1 = 0.0
        prev_row = prev
        for j in range(1, n + 1):
            d = xi - ys[j - 1]
            e = exp(-d * d * inv_two_gamma_sq)
            kappa = e / (2.0 - e)
            val = kappa * (prev_row[j] + cur_jm1 + prev_row[j - 1])
            cur[j] = val
            cur_jm1 = val
        row_max = max(cur)
        if 0.0 < row_max < _RESCALE_THRESHOLD:
            cur = [v * _RESCALE_FACTOR for v in cur]
            log_scale -= _LOG_RESCALE
        prev = cur
    final = prev[n]
    if final <= 0.0:
        return -math.inf
    return math.log(final) + log_scale


def gak(x: np.ndarray, y: np.ndarray, gamma: float = 0.1) -> float:
    """Normalized log-kernel GAK dissimilarity (0 for identical series)."""
    x, y = as_pair(x, y, require_equal_length=False)
    log_xy = gak_log_kernel(x, y, gamma)
    if not math.isfinite(log_xy):
        return math.inf
    log_xx = gak_log_kernel(x, x, gamma)
    log_yy = gak_log_kernel(y, y, gamma)
    return max(0.0, 0.5 * (log_xx + log_yy) - log_xy)


def _gak_matrix(X: np.ndarray, Y: np.ndarray, gamma: float = 0.1) -> np.ndarray:
    log_self_x = np.array([gak_log_kernel(row, row, gamma) for row in X])
    # Only pairwise's self mode shares X's self-kernels: a Y that merely
    # overlaps X in memory is a different batch of series.
    log_self_y = log_self_x if Y is X else np.array(
        [gak_log_kernel(row, row, gamma) for row in Y]
    )
    out = np.empty((X.shape[0], Y.shape[0]), dtype=np.float64)
    for i in range(X.shape[0]):
        for j in range(Y.shape[0]):
            log_xy = gak_log_kernel(X[i], Y[j], gamma)
            if not math.isfinite(log_xy):
                out[i, j] = math.inf
            else:
                out[i, j] = max(
                    0.0, 0.5 * (log_self_x[i] + log_self_y[j]) - log_xy
                )
    return out


GAK = register_measure(
    DistanceMeasure(
        name="gak",
        label="GAK",
        category="kernel",
        family="kernel",
        func=gak,
        matrix_func=_gak_matrix,
        params=(
            ParamSpec(
                name="gamma",
                default=0.1,
                grid=_GAMMA_GRID,
                description="Local-kernel bandwidth (Table 4 grid; paper's "
                "unsupervised pick is gamma=0.1).",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Sum-over-alignments Gaussian kernel (log distance).",
    )
)
