r"""Dynamic Time Warping (paper Section 7, misconception M4).

DTW [126, 127] finds the warping path through the ``m``-by-``n`` cost
matrix minimizing the summed pointwise distances, allowing one-to-many
alignment of points. We use the Sakoe-Chiba band — "the most frequently
used in practice" per the paper — with the window expressed as a percentage
of the series length exactly as in Table 4 (``delta = 10`` means 10% of the
length; ``delta = 100`` is unconstrained and "resembles an equivalent
parameter-free measure to NCC_c").

The ground cost is the squared pointwise difference and the returned value
is the square root of the accumulated cost (the UCR convention); 1-NN
rankings are unaffected by the final root.
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, ParamSpec, register_measure
from ._dp import INF, as_float_list, band_width, paired_dp, pairwise_dp


def dtw(x: np.ndarray, y: np.ndarray, delta: float = 100.0) -> float:
    """Banded DTW distance between two series.

    Parameters
    ----------
    x, y:
        Input series (may have different lengths).
    delta:
        Sakoe-Chiba window as a percentage of the series length;
        ``100`` disables the constraint, ``0`` forces the diagonal.
    """
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    w = band_width(m, n, delta)
    prev = [INF] * (n + 1)
    prev[0] = 0.0
    for i in range(1, m + 1):
        xi = xs[i - 1]
        cur = [INF] * (n + 1)
        j_lo = max(1, i - w)
        j_hi = min(n, i + w)
        prev_row = prev
        cur_jm1 = INF if j_lo > 1 else cur[j_lo - 1]
        for j in range(j_lo, j_hi + 1):
            d = xi - ys[j - 1]
            best = prev_row[j - 1]
            up = prev_row[j]
            if up < best:
                best = up
            if cur_jm1 < best:
                best = cur_jm1
            cur_jm1 = d * d + best
            cur[j] = cur_jm1
        prev = cur
    total = prev[n]
    return float(total) ** 0.5 if total != INF else INF


def dtw_path(
    x: np.ndarray, y: np.ndarray, delta: float = 100.0
) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance plus the optimal warping path (for diagnostics).

    Returns ``(distance, path)`` where ``path`` is the list of matched
    ``(i, j)`` index pairs from ``(0, 0)`` to ``(m-1, n-1)``.
    """
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    m, n = xs.shape[0], ys.shape[0]
    w = band_width(m, n, delta)
    acc = np.full((m + 1, n + 1), INF)
    acc[0, 0] = 0.0
    for i in range(1, m + 1):
        j_lo = max(1, i - w)
        j_hi = min(n, i + w)
        for j in range(j_lo, j_hi + 1):
            d = (xs[i - 1] - ys[j - 1]) ** 2
            acc[i, j] = d + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    path: list[tuple[int, int]] = []
    i, j = m, n
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        step = int(
            np.argmin((acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]))
        )
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return float(acc[m, n]) ** 0.5, path


def _dtw_setup(xs: np.ndarray, ys: np.ndarray):
    row0 = np.full((ys.shape[0] + 1, 1), INF)
    col0 = np.full((xs.shape[0] + 1, 1), INF)
    row0[0] = col0[0] = 0.0
    return row0, col0, (xs,), (ys,)


def _dtw_cell(diag, up, left, xi, yj):
    d = xi - yj
    return d * d + np.minimum(np.minimum(diag, up), left)


def _roots(totals: np.ndarray) -> np.ndarray:
    """The root of each accumulated cost as :func:`dtw` takes it
    (``np.sqrt`` can differ in the last bit), in place and in blocks so
    the Python floats stay few."""
    flat = totals.reshape(-1)
    for start in range(0, flat.size, 1 << 16):
        block = flat[start : start + (1 << 16)]
        block[:] = [total ** 0.5 for total in block.tolist()]
    return totals


def _dtw_matrix(X: np.ndarray, Y: np.ndarray, delta: float = 100.0) -> np.ndarray:
    """:func:`dtw` of every pair through :func:`pairwise_dp`, bitwise."""
    w = band_width(X.shape[1], Y.shape[1], delta)
    return _roots(pairwise_dp(X, Y, _dtw_setup, _dtw_cell, band=w, fill=INF))


def dtw_pairs(A: np.ndarray, B: np.ndarray, delta: float = 100.0) -> np.ndarray:
    """:func:`dtw` of each row pair ``(A[i], B[i])`` through
    :func:`paired_dp`, bitwise — the refine of the exact DTW top-k
    search (:class:`repro.index.PAALowerBoundIndex`)."""
    w = band_width(A.shape[1], B.shape[1], delta)
    return _roots(paired_dp(A, B, _dtw_setup, _dtw_cell, band=w, fill=INF))


DTW = register_measure(
    DistanceMeasure(
        name="dtw",
        label="DTW",
        category="elastic",
        family="elastic",
        func=dtw,
        matrix_func=_dtw_matrix,
        params=(
            ParamSpec(
                name="delta",
                default=10.0,
                grid=(
                    0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
                    11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0,
                    20.0, 100.0,
                ),
                description="Sakoe-Chiba window, % of series length.",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Dynamic time warping with Sakoe-Chiba band.",
    )
)
