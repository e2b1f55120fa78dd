r"""DISSIM and ASD — the two non-survey lock-step measures (paper Section 5).

DISSIM [53] defines the distance between two trajectories as the definite
integral over time of their Euclidean distance; for equal sampling rates the
paper uses the trapezoidal approximation, which amounts to a smoothed L1
that mixes point *i* with point *i+1*. DISSIM significantly beats ED
(Table 2).

ASD embeds the AdaptiveScaling normalization (paper Eq. 7) inside an inner
product measure, comparing series under the optimal per-pair scaling.
"""

from __future__ import annotations

import numpy as np

from ..._validation import guarded_divide
from ..base import DistanceMeasure, register_measure
from ._common import elementwise_matrix, gram_matrix
from .minkowski import euclidean


def dissim(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Trapezoidal approximation of :math:`\int_t \mathrm{ED}(x(t), y(t))\,dt`.

    .. math::
        \mathrm{DISSIM}(x, y) = \sum_{i=1}^{m-1}
            \frac{|x_i - y_i| + |x_{i+1} - y_{i+1}|}{2}

    For a single-point series this degenerates to the plain absolute
    difference.
    """
    diff = np.abs(x - y)
    if diff.shape[-1] == 1:
        return diff[..., 0]
    return 0.5 * (diff[..., :-1] + diff[..., 1:]).sum(axis=-1)


def asd(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Adaptive scaling distance: :math:`\|x - a^\* y\|` with the
    least-squares optimal factor :math:`a^\* = (x \cdot y) / (y \cdot y)`
    (0 when :math:`y \cdot y <` ``EPS``).

    Equivalent to projecting *x* onto the span of *y* and measuring the
    residual, so it is invariant to any rescaling of *y*.
    """
    factor = guarded_divide((x * y).sum(axis=-1), (y * y).sum(axis=-1))
    return euclidean(x, factor[..., None] * y)


def _asd_form(xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> np.ndarray:
    # ||x - a y||^2 = ||x||^2 - 2 a (x.y) + a^2 ||y||^2, and a = (x.y)/||y||^2
    # collapses it to ||x||^2 - a (x.y).
    return np.sqrt(np.maximum(xx - guarded_divide(xy, yy) * xy, 0.0))


DISSIM = register_measure(
    DistanceMeasure(
        name="dissim",
        label="DISSIM",
        category="lockstep",
        family="special",
        func=dissim,
        matrix_func=elementwise_matrix(dissim),
        description="Integral-of-ED trajectory distance (smoothed L1).",
    )
)

ASD = register_measure(
    DistanceMeasure(
        name="asd",
        label="ASD",
        category="lockstep",
        family="special",
        func=asd,
        symmetric=False,
        matrix_func=gram_matrix(_asd_form),
        aliases=("adaptivescalingdistance",),
        description="ED under optimal per-pair scaling (Eq. 7 embedded).",
    )
)
