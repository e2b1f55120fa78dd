"""Compiled DP kernels for the kernel measures (GAK, KDTW).

Numba-compiled twins of :mod:`repro.distances.kernels.gak` and
:mod:`repro.distances.kernels.kdtw`, mirroring the reference recurrences
operation for operation — including the per-row underflow rescaling and
its tracked log-scale — so the two tiers agree to within the platform's
``exp``/``log`` rounding (the only non-IEEE-exact operations these
measures use). The matrix kernels precompute the self log-kernels once
and then ``prange`` over the independent pairs, exactly like the
reference ``matrix_func`` but parallel.
"""

from __future__ import annotations

import math

import numpy as np

from .._jit import JIT_KWARGS, JIT_MATRIX_KWARGS, njit, prange

_RESCALE_THRESHOLD = 1e-280
_RESCALE_FACTOR = 1e280
_LOG_RESCALE = math.log(_RESCALE_FACTOR)
_EPSILON = 1e-3

_INF = np.inf


# ----------------------------------------------------------------------
# GAK (global alignment kernel, normalized log-kernel distance)
# ----------------------------------------------------------------------
@njit(**JIT_KWARGS)
def gak_log_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """log of the (unnormalized) global alignment kernel value."""
    m = x.shape[0]
    n = y.shape[0]
    inv_two_gamma_sq = 1.0 / (2.0 * gamma * gamma)
    prev = np.zeros(n + 1, dtype=np.float64)
    prev[0] = 1.0  # virtual row 0: K[0][0] = 1
    log_scale = 0.0
    for i in range(m):
        xi = x[i]
        cur = np.zeros(n + 1, dtype=np.float64)
        cur_jm1 = 0.0
        for j in range(1, n + 1):
            d = xi - y[j - 1]
            e = math.exp(-d * d * inv_two_gamma_sq)
            kappa = e / (2.0 - e)
            val = kappa * (prev[j] + cur_jm1 + prev[j - 1])
            cur[j] = val
            cur_jm1 = val
        row_max = cur[0]
        for j in range(1, n + 1):
            if cur[j] > row_max:
                row_max = cur[j]
        if row_max > 0.0 and row_max < _RESCALE_THRESHOLD:
            for j in range(n + 1):
                cur[j] = cur[j] * _RESCALE_FACTOR
            log_scale -= _LOG_RESCALE
        prev = cur
    final = prev[n]
    if final <= 0.0:
        return -_INF
    return math.log(final) + log_scale


@njit(**JIT_KWARGS)
def gak_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """Normalized log-kernel GAK dissimilarity (0 for identical series)."""
    log_xy = gak_log_kernel(x, y, gamma)
    if not math.isfinite(log_xy):
        return _INF
    log_xx = gak_log_kernel(x, x, gamma)
    log_yy = gak_log_kernel(y, y, gamma)
    v = 0.5 * (log_xx + log_yy) - log_xy
    if v > 0.0:
        return v
    return 0.0


@njit(**JIT_MATRIX_KWARGS)
def gak_matrix_kernel(
    X: np.ndarray, Y: np.ndarray, gamma: float, same: bool
) -> np.ndarray:
    """Pairwise GAK with the self log-kernels hoisted out of the pair loop."""
    n_x = X.shape[0]
    n_y = Y.shape[0]
    log_self_x = np.empty(n_x, dtype=np.float64)
    for i in prange(n_x):
        log_self_x[i] = gak_log_kernel(X[i], X[i], gamma)
    log_self_y = np.empty(n_y, dtype=np.float64)
    if same:
        for j in range(n_y):
            log_self_y[j] = log_self_x[j]
    else:
        for j in prange(n_y):
            log_self_y[j] = gak_log_kernel(Y[j], Y[j], gamma)
    out = np.empty((n_x, n_y), dtype=np.float64)
    for i in prange(n_x):
        for j in range(n_y):
            log_xy = gak_log_kernel(X[i], Y[j], gamma)
            if not math.isfinite(log_xy):
                out[i, j] = _INF
            else:
                v = 0.5 * (log_self_x[i] + log_self_y[j]) - log_xy
                if v > 0.0:
                    out[i, j] = v
                else:
                    out[i, j] = 0.0
    return out


def gak_pair(x: np.ndarray, y: np.ndarray, gamma: float = 0.1) -> float:
    """Registry-facing GAK pair function."""
    xs = np.ascontiguousarray(x, dtype=np.float64)
    ys = np.ascontiguousarray(y, dtype=np.float64)
    return float(gak_kernel(xs, ys, gamma))


def gak_matrix(X: np.ndarray, Y: np.ndarray, gamma: float = 0.1) -> np.ndarray:
    """Registry-facing GAK matrix function."""
    Xa = np.ascontiguousarray(X, dtype=np.float64)
    Ya = np.ascontiguousarray(Y, dtype=np.float64)
    same = Ya is Xa  # overlapping views are different series batches
    return gak_matrix_kernel(Xa, Ya, gamma, same)


# ----------------------------------------------------------------------
# KDTW (regularized DTW kernel, normalized log-kernel distance)
# ----------------------------------------------------------------------
@njit(**JIT_KWARGS)
def kdtw_log_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """log of the (unnormalized) KDTW similarity ``K + K'``."""
    m = x.shape[0]
    n = y.shape[0]
    norm = 3.0 * (1.0 + _EPSILON)
    longest = m if m > n else n
    # Same-index local kernels driving the diagonal term K'.
    diag = np.empty(longest, dtype=np.float64)
    for i in range(longest):
        ii = i if i < m else m - 1
        jj = i if i < n else n - 1
        d = x[ii] - y[jj]
        diag[i] = (math.exp(-gamma * d * d) + _EPSILON) / norm
    # Row 0: multiplicative boundary chains.
    prev = np.zeros(n + 1, dtype=np.float64)
    prev[0] = 1.0
    prev_p = np.zeros(n + 1, dtype=np.float64)
    prev_p[0] = 1.0
    for j in range(1, n + 1):
        d = x[0] - y[j - 1]
        lk = (math.exp(-gamma * d * d) + _EPSILON) / norm
        prev[j] = prev[j - 1] * lk
        prev_p[j] = prev_p[j - 1] * diag[j - 1]
    log_scale = 0.0
    col0 = 1.0
    col0_p = 1.0
    for i in range(m):
        xi = x[i]
        di = diag[i]
        d0 = xi - y[0]
        col0 = col0 * ((math.exp(-gamma * d0 * d0) + _EPSILON) / norm)
        col0_p = col0_p * di
        cur = np.zeros(n + 1, dtype=np.float64)
        cur[0] = col0
        cur_p = np.zeros(n + 1, dtype=np.float64)
        cur_p[0] = col0_p
        cur_jm1 = col0
        cur_p_jm1 = col0_p
        for j in range(1, n + 1):
            dj = xi - y[j - 1]
            lk = (math.exp(-gamma * dj * dj) + _EPSILON) / norm
            val = lk * (prev[j] + cur_jm1 + prev[j - 1])
            cur[j] = val
            cur_jm1 = val
            if i + 1 == j:
                val_p = (
                    prev_p[j - 1] * lk
                    + prev_p[j] * di
                    + cur_p_jm1 * diag[j - 1]
                )
            else:
                val_p = prev_p[j] * di + cur_p_jm1 * diag[j - 1]
            cur_p[j] = val_p
            cur_p_jm1 = val_p
        row_max = col0 if col0 > col0_p else col0_p
        for j in range(n + 1):
            if cur[j] > row_max:
                row_max = cur[j]
            if cur_p[j] > row_max:
                row_max = cur_p[j]
        if row_max > 0.0 and row_max < _RESCALE_THRESHOLD:
            for j in range(n + 1):
                cur[j] = cur[j] * _RESCALE_FACTOR
                cur_p[j] = cur_p[j] * _RESCALE_FACTOR
            col0 = col0 * _RESCALE_FACTOR
            col0_p = col0_p * _RESCALE_FACTOR
            log_scale -= _LOG_RESCALE
        prev = cur
        prev_p = cur_p
    total = prev[n] + prev_p[n]
    if total <= 0.0:
        return -_INF
    return math.log(total) + log_scale


@njit(**JIT_KWARGS)
def kdtw_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """Normalized log-kernel KDTW dissimilarity (0 for identical series)."""
    log_xy = kdtw_log_kernel(x, y, gamma)
    if not math.isfinite(log_xy):
        return _INF
    log_xx = kdtw_log_kernel(x, x, gamma)
    log_yy = kdtw_log_kernel(y, y, gamma)
    v = 0.5 * (log_xx + log_yy) - log_xy
    if v > 0.0:
        return v
    return 0.0


@njit(**JIT_MATRIX_KWARGS)
def kdtw_matrix_kernel(
    X: np.ndarray, Y: np.ndarray, gamma: float, same: bool
) -> np.ndarray:
    """Pairwise KDTW with the self log-kernels hoisted out of the pair loop."""
    n_x = X.shape[0]
    n_y = Y.shape[0]
    log_self_x = np.empty(n_x, dtype=np.float64)
    for i in prange(n_x):
        log_self_x[i] = kdtw_log_kernel(X[i], X[i], gamma)
    log_self_y = np.empty(n_y, dtype=np.float64)
    if same:
        for j in range(n_y):
            log_self_y[j] = log_self_x[j]
    else:
        for j in prange(n_y):
            log_self_y[j] = kdtw_log_kernel(Y[j], Y[j], gamma)
    out = np.empty((n_x, n_y), dtype=np.float64)
    for i in prange(n_x):
        for j in range(n_y):
            log_xy = kdtw_log_kernel(X[i], Y[j], gamma)
            if not math.isfinite(log_xy):
                out[i, j] = _INF
            else:
                v = 0.5 * (log_self_x[i] + log_self_y[j]) - log_xy
                if v > 0.0:
                    out[i, j] = v
                else:
                    out[i, j] = 0.0
    return out


def kdtw_pair(x: np.ndarray, y: np.ndarray, gamma: float = 0.125) -> float:
    """Registry-facing KDTW pair function."""
    xs = np.ascontiguousarray(x, dtype=np.float64)
    ys = np.ascontiguousarray(y, dtype=np.float64)
    return float(kdtw_kernel(xs, ys, gamma))


def kdtw_matrix(X: np.ndarray, Y: np.ndarray, gamma: float = 0.125) -> np.ndarray:
    """Registry-facing KDTW matrix function."""
    Xa = np.ascontiguousarray(X, dtype=np.float64)
    Ya = np.ascontiguousarray(Y, dtype=np.float64)
    same = Ya is Xa  # overlapping views are different series batches
    return kdtw_matrix_kernel(Xa, Ya, gamma, same)
