r"""KDTW — Dynamic Time Warping kernel (paper Section 8).

KDTW [93] is Marteau & Gibet's regularized DTW kernel, the paper's
strongest kernel: "the first time that a kernel function is reported to
outperform DTW in both [supervised and unsupervised] settings".

Following the authors' reference implementation, the local kernel is

.. math::
    \kappa(a, b) = \frac{e^{-\gamma (a-b)^2} + \epsilon}{3 (1 + \epsilon)}

and two coupled DP matrices are accumulated: the alignment term

.. math::
    K_{i,j} = \kappa(x_i, y_j) (K_{i-1,j} + K_{i,j-1} + K_{i-1,j-1})

and a diagonal-regularizing term :math:`K'` driven by the same-index local
kernels. The similarity is :math:`K_{m,n} + K'_{m,n}`, normalized by the
self-similarities; as with GAK we expose the normalized *log*-kernel
distance to preserve resolution for long series, with per-row rescaling
against underflow.
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
_EPSILON = 1e-3

_GAMMA_GRID = tuple(2.0 ** exp for exp in range(-15, 1))


def kdtw_log_kernel(x: np.ndarray, y: np.ndarray, gamma: float = 0.125) -> float:
    """log of the (unnormalized) KDTW similarity ``K + K'``."""
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    exp = math.exp
    norm = 3.0 * (1.0 + _EPSILON)

    def local(a: float, b: float) -> float:
        d = a - b
        return (exp(-gamma * d * d) + _EPSILON) / norm

    # Same-index local kernels driving the diagonal term K'; indices past
    # the shorter series reuse its last value (equal lengths in practice).
    diag = [local(xs[min(i, m - 1)], ys[min(i, n - 1)]) for i in range(max(m, n))]

    # Row 0: multiplicative boundary chains (Marteau's reference inits
    # DP[0, j] = DP[0, j-1] * k(x_1, y_j) and DP'[0, j] via the diagonal
    # kernels); column 0 is built incrementally inside the row loop.
    prev = [1.0] + [0.0] * n
    prev_p = [1.0] + [0.0] * n
    for j in range(1, n + 1):
        prev[j] = prev[j - 1] * local(xs[0], ys[j - 1])
        prev_p[j] = prev_p[j - 1] * diag[j - 1]
    log_scale = 0.0
    col0 = 1.0
    col0_p = 1.0
    for i in range(m):
        xi = xs[i]
        di = diag[i]
        col0 = col0 * local(xi, ys[0])
        col0_p = col0_p * di
        cur = [col0] + [0.0] * n
        cur_p = [col0_p] + [0.0] * n
        cur_jm1 = col0
        cur_p_jm1 = col0_p
        prev_row = prev
        prev_p_row = prev_p
        for j in range(1, n + 1):
            lk = local(xi, ys[j - 1])
            val = lk * (prev_row[j] + cur_jm1 + prev_row[j - 1])
            cur[j] = val
            cur_jm1 = val
            if i + 1 == j:
                val_p = (
                    prev_p_row[j - 1] * lk
                    + prev_p_row[j] * di
                    + cur_p_jm1 * diag[j - 1]
                )
            else:
                val_p = prev_p_row[j] * di + cur_p_jm1 * diag[j - 1]
            cur_p[j] = val_p
            cur_p_jm1 = val_p
        row_max = max(max(cur), max(cur_p), col0, col0_p)
        if 0.0 < row_max < _RESCALE_THRESHOLD:
            cur = [v * _RESCALE_FACTOR for v in cur]
            cur_p = [v * _RESCALE_FACTOR for v in cur_p]
            col0 *= _RESCALE_FACTOR
            col0_p *= _RESCALE_FACTOR
            log_scale -= _LOG_RESCALE
        prev = cur
        prev_p = cur_p
    total = prev[n] + prev_p[n]
    if total <= 0.0:
        return -math.inf
    return math.log(total) + log_scale


def kdtw_similarity(x: np.ndarray, y: np.ndarray, gamma: float = 0.125) -> float:
    """Normalized KDTW kernel value in ``(0, 1]``."""
    x, y = as_pair(x, y, require_equal_length=False)
    log_xy = kdtw_log_kernel(x, y, gamma)
    if not math.isfinite(log_xy):
        return 0.0
    log_xx = kdtw_log_kernel(x, x, gamma)
    log_yy = kdtw_log_kernel(y, y, gamma)
    return float(math.exp(min(0.0, log_xy - 0.5 * (log_xx + log_yy))))


def kdtw(x: np.ndarray, y: np.ndarray, gamma: float = 0.125) -> float:
    """Normalized log-kernel KDTW dissimilarity (0 for identical series)."""
    x, y = as_pair(x, y, require_equal_length=False)
    log_xy = kdtw_log_kernel(x, y, gamma)
    if not math.isfinite(log_xy):
        return math.inf
    log_xx = kdtw_log_kernel(x, x, gamma)
    log_yy = kdtw_log_kernel(y, y, gamma)
    return max(0.0, 0.5 * (log_xx + log_yy) - log_xy)


def _kdtw_matrix(X: np.ndarray, Y: np.ndarray, gamma: float = 0.125) -> np.ndarray:
    log_self_x = np.array([kdtw_log_kernel(row, row, gamma) for row in X])
    # Only pairwise's self mode shares X's self-kernels: a Y that merely
    # overlaps X in memory is a different batch of series.
    log_self_y = log_self_x if Y is X else np.array(
        [kdtw_log_kernel(row, row, gamma) for row in Y]
    )
    out = np.empty((X.shape[0], Y.shape[0]), dtype=np.float64)
    for i in range(X.shape[0]):
        for j in range(Y.shape[0]):
            log_xy = kdtw_log_kernel(X[i], Y[j], gamma)
            if not math.isfinite(log_xy):
                out[i, j] = math.inf
            else:
                out[i, j] = max(
                    0.0, 0.5 * (log_self_x[i] + log_self_y[j]) - log_xy
                )
    return out


KDTW = register_measure(
    DistanceMeasure(
        name="kdtw",
        label="KDTW",
        category="kernel",
        family="kernel",
        func=kdtw,
        matrix_func=_kdtw_matrix,
        params=(
            ParamSpec(
                name="gamma",
                default=0.125,
                grid=_GAMMA_GRID,
                description="Local-kernel sharpness (Table 4: 2^-15..2^0; "
                "paper's unsupervised pick is gamma=0.125).",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Regularized DTW kernel; beats DTW in both settings.",
    )
)
