r"""Lower bounds for DTW (paper Section 10 efficiency discussion).

The paper notes that elastic measures' runtime "can be substantially
improved with the use of lower bounding measures (i.e., efficient measures
to prune the expensive pairwise comparisons)". We provide the two classic
DTW lower bounds so the accuracy-to-runtime analysis can quantify the
pruning opportunity:

- ``lb_kim`` — O(1)-ish bound from the first/last/min/max points;
- ``lb_keogh`` — O(m) envelope bound of Keogh & Ratanamahatana [75].

Both are *lower bounds of the banded DTW with squared ground costs*, i.e.
``lb(x, y) <= dtw(x, y, delta)`` for the same window, which the property
tests assert.
"""

from __future__ import annotations

import numpy as np

from ..._validation import as_pair
from ._dp import band_width


def lb_kim(x: np.ndarray, y: np.ndarray) -> float:
    """Kim's constant-time lower bound (first/last point differences).

    We use the tight first/last variant that remains valid under
    z-normalization (the min/max components collapse there).
    """
    x, y = as_pair(x, y, require_equal_length=False)
    first = (x[0] - y[0]) ** 2
    last = (x[-1] - y[-1]) ** 2
    return float(np.sqrt(first + last))


def envelope(y: np.ndarray, delta: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
    """Sakoe-Chiba upper/lower envelope of *y* for window ``delta`` (%)."""
    y = np.asarray(y, dtype=np.float64)
    m = y.shape[0]
    w = band_width(m, m, delta)
    upper = np.empty(m)
    lower = np.empty(m)
    for i in range(m):
        lo = max(0, i - w)
        hi = min(m, i + w + 1)
        window = y[lo:hi]
        upper[i] = window.max()
        lower[i] = window.min()
    return upper, lower


def lb_keogh(
    x: np.ndarray,
    y: np.ndarray,
    delta: float = 10.0,
    y_envelope: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Keogh's envelope-based lower bound for banded DTW.

    Pass a precomputed ``y_envelope`` when bounding one candidate against
    many queries (the usual similarity-search pattern).
    """
    x, y = as_pair(x, y)
    upper, lower = y_envelope if y_envelope is not None else envelope(y, delta)
    return float(keogh_bound(x, upper, lower))


def keogh_bound(x: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """LB_Keogh of float64 ``x`` against an envelope, over the last axis.

    The arithmetic of :func:`lb_keogh` without its input validation, one
    bound per row the arguments broadcast to: the ``paa_lb`` index bounds
    whole batches of candidates with it, and LB_PAA against frame
    envelopes is the same formula.
    """
    above = np.maximum(x - upper, 0.0)
    below = np.maximum(lower - x, 0.0)
    return np.sqrt((above * above + below * below).sum(axis=-1))

