r"""Elastic-measure extensions described (but not evaluated) in Section 7.

The paper lists three families of extensions that "can potentially be used
in combination with all previously described elastic measures" and leaves
them out of the main evaluation to avoid a combinatorial explosion:

- **DDTW** — Derivative DTW [60]: combine the raw series with its
  first-order differences. We implement the weighted form
  :math:`d = (1 - \alpha)\,\mathrm{DTW}(x, y) +
  \alpha\,\mathrm{DTW}(x', y')` over the Keogh-Pazzani derivative
  estimate, with :math:`\alpha = 1` giving the classic derivative-only
  variant.
- **WDTW** — Weighted DTW [68]: penalize warping-path cells by a logistic
  weight of their phase difference ``|i - j|``, removing the hard band in
  favor of a soft one (parameter ``g`` controls steepness).
- **CID** — Complexity-Invariant Distance [16]: scale any base measure by
  the ratio of the two series' complexities (length of the line the
  series draws), compensating for complexity differences.

These are registered under category ``"extra"`` so the paper's 71-measure
census stays intact, and they power the extensions ablation bench.
"""

from __future__ import annotations

import numpy as np

from ..._validation import EPS, as_pair
from ..base import DistanceMeasure, ParamSpec, register_measure
from ..lockstep._common import elementwise_matrix
from ..lockstep.minkowski import euclidean
from ._dp import INF, as_float_list
from .dtw import dtw


def derivative(x: np.ndarray) -> np.ndarray:
    r"""Keogh-Pazzani derivative estimate used by DDTW.

    .. math::
        x'_i = \frac{(x_i - x_{i-1}) + (x_{i+1} - x_{i-1})/2}{2}

    Endpoints copy their nearest interior estimate; series of length < 3
    fall back to a zero derivative.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 3:
        return np.zeros_like(x)
    interior = ((x[1:-1] - x[:-2]) + (x[2:] - x[:-2]) / 2.0) / 2.0
    return np.concatenate(([interior[0]], interior, [interior[-1]]))


def ddtw(
    x: np.ndarray,
    y: np.ndarray,
    delta: float = 100.0,
    alpha: float = 1.0,
) -> float:
    """Derivative DTW: blend raw-DTW and derivative-DTW by ``alpha``."""
    x, y = as_pair(x, y, require_equal_length=False)
    d_deriv = dtw(derivative(x), derivative(y), delta)
    if alpha >= 1.0:
        return d_deriv
    return (1.0 - alpha) * dtw(x, y, delta) + alpha * d_deriv


def wdtw(x: np.ndarray, y: np.ndarray, g: float = 0.05) -> float:
    r"""Weighted DTW with the logistic phase-difference weight of [68].

    .. math::
        w(|i-j|) = \frac{w_{max}}{1 + e^{-g (|i-j| - m/2)}}

    with :math:`w_{max} = 1`. Large ``g`` approximates a hard band of
    width ``m/2``; ``g = 0`` reduces to a constant half weight (plain DTW
    scaled by 1/2).
    """
    xs = as_float_list(np.asarray(x, dtype=np.float64))
    ys = as_float_list(np.asarray(y, dtype=np.float64))
    m, n = len(xs), len(ys)
    mid = max(m, n) / 2.0
    from math import exp

    max_diff = max(m, n)
    weights = [1.0 / (1.0 + exp(-g * (d - mid))) for d in range(max_diff + 1)]
    prev = [INF] * (n + 1)
    prev[0] = 0.0
    for i in range(1, m + 1):
        xi = xs[i - 1]
        cur = [INF] * (n + 1)
        cur_jm1 = INF
        prev_row = prev
        for j in range(1, n + 1):
            d = xi - ys[j - 1]
            cost = weights[abs(i - j)] * d * d
            best = prev_row[j - 1]
            up = prev_row[j]
            if up < best:
                best = up
            if cur_jm1 < best:
                best = cur_jm1
            cur_jm1 = cost + best
            cur[j] = cur_jm1
        prev = cur
    total = prev[n]
    return float(total) ** 0.5 if total != INF else INF


def complexity(x: np.ndarray) -> np.ndarray:
    r"""CID complexity estimate :math:`\sqrt{\sum_i (x_{i+1} - x_i)^2}`
    along the last axis (0 for a single point)."""
    diff = np.diff(np.asarray(x, dtype=np.float64), axis=-1)
    diff *= diff
    return np.sqrt(diff.sum(axis=-1))


def cid_factor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complexity-invariance correction factor ``max(c)/min(c) >= 1``
    (1 when both series are flat)."""
    cx, cy = complexity(x), complexity(y)
    hi = np.maximum(cx, cy)
    return np.where(hi < EPS, 1.0, hi / np.maximum(np.minimum(cx, cy), EPS))


def cid(
    x: np.ndarray,
    y: np.ndarray,
    base: str = "euclidean",
    **base_params: float,
) -> float:
    """Complexity-invariant distance over any registered base measure.

    ``CID(x, y) = d_base(x, y) * max(c_x, c_y) / min(c_x, c_y)``; the
    classic CID of [16] is the default ``base="euclidean"``.
    """
    from ..base import get_measure

    x, y = as_pair(x, y, require_equal_length=False)
    measure = get_measure(base)
    return measure(x, y, **base_params) * float(cid_factor(x, y))


def _cid_euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return euclidean(x, y) * cid_factor(x, y)


DDTW = register_measure(
    DistanceMeasure(
        name="ddtw",
        label="DDTW",
        category="extra",
        family="elastic_extension",
        func=ddtw,
        params=(
            ParamSpec(
                name="delta",
                default=10.0,
                grid=(0.0, 5.0, 10.0, 20.0, 100.0),
                description="Sakoe-Chiba window, % of series length.",
            ),
            ParamSpec(
                name="alpha",
                default=1.0,
                grid=(0.25, 0.5, 0.75, 1.0),
                description="Weight of the derivative term.",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Derivative DTW [60] (Section 7 extension).",
    )
)

WDTW = register_measure(
    DistanceMeasure(
        name="wdtw",
        label="WDTW",
        category="extra",
        family="elastic_extension",
        func=wdtw,
        params=(
            ParamSpec(
                name="g",
                default=0.05,
                grid=(0.01, 0.05, 0.1, 0.25, 0.5),
                description="Steepness of the logistic phase penalty.",
            ),
        ),
        complexity="O(m^2)",
        equal_length_only=False,
        description="Weighted DTW [68] (Section 7 extension).",
    )
)

CID_ED = register_measure(
    DistanceMeasure(
        name="cid",
        label="CID(ED)",
        category="extra",
        family="elastic_extension",
        func=_cid_euclidean,
        matrix_func=elementwise_matrix(_cid_euclidean),
        complexity="O(m)",
        aliases=("cided",),
        description="Complexity-invariant ED [16] (Section 7 extension).",
    )
)
