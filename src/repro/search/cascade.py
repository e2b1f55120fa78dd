r"""Early-abandoning banded DTW, the last stage of the UCR-suite cascade.

Rakthanmanon et al.'s "trillions of subsequences" system (paper
reference [118]) answers exact DTW nearest-neighbour queries with a
cascade of cheap-to-expensive tests: a lower bound first (LB_Keogh
against the candidate's envelope), and the O(m·w) DP only for
candidates whose bound does not already lose, aborting that DP as soon
as its row minimum passes the best-so-far distance.

The library runs that cascade in exactly one place: the ascending-bound
refine of :class:`repro.index.PAALowerBoundIndex`. With one PAA frame
per sample (``segments = m``) its LB_PAA is exactly LB_Keogh, and
:class:`repro.serving.engine.ReferenceSearch` — behind the serving
engine and :func:`repro.search.nearest_neighbors` — answers DTW that
way when no index was fitted. This module keeps the DP it refines
with, :func:`dtw_early_abandon`.

.. note:: **Precondition.** The cascade is *exact* for any inputs (the
   lower bounds are valid unconditionally), but LB_Keogh is only *tight*
   — and the cascade only prunes well — when query and candidates are
   z-normalized, as in the UCR-suite setting it reproduces. Un-normalized
   series with large offsets degrade every bound to a no-op and the
   search degenerates to exhaustive early-abandoning DTW.
"""

from __future__ import annotations

import numpy as np

from ..distances.elastic._dp import INF, as_float_list, band_width


def dtw_early_abandon(
    x: np.ndarray, y: np.ndarray, delta: float, best_so_far: float
) -> float:
    """Banded DTW that aborts once no path can beat ``best_so_far``.

    Returns the exact distance when it is below ``best_so_far`` and
    ``inf`` otherwise (the caller only needs to know it lost).
    """
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    w = band_width(m, n, delta)
    threshold = best_so_far * best_so_far  # DP accumulates squared costs
    prev = [INF] * (n + 1)
    prev[0] = 0.0
    for i in range(1, m + 1):
        xi = xs[i - 1]
        cur = [INF] * (n + 1)
        j_lo = max(1, i - w)
        j_hi = min(n, i + w)
        cur_jm1 = INF if j_lo > 1 else cur[j_lo - 1]
        row_min = INF
        prev_row = prev
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
            if cur_jm1 < row_min:
                row_min = cur_jm1
        if row_min >= threshold:
            return float("inf")  # every extension can only grow
        prev = cur
    total = prev[n]
    return total ** 0.5 if total < threshold else float("inf")
