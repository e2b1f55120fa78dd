r"""Shannon-entropy family — 6 measures.

Survey family 7 of Cha (2007): Kullback-Leibler, Jeffreys, K divergence,
Topsoe, Jensen-Shannon, and Jensen difference. Topsoe appears in the paper's
Table 2 under MinMax scaling.

All members take logarithms of ratios, so the registry clips inputs to a
positive floor (``requires_nonnegative=True``); the log arguments are
additionally floored inside each formula to keep 0/0-style terms finite.
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, register_measure
from ._common import elementwise_matrix, safe_div, safe_log


def kullback_leibler(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i x_i \ln(x_i / y_i)` (asymmetric)."""
    return (x * safe_log(safe_div(x, y))).sum(axis=-1)


def jeffreys(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i (x_i - y_i) (\ln x_i - \ln y_i)` — symmetrized KL.

    Written as a difference of logs, not the log of a floored ratio: the
    floor would clip ``x_i / y_i`` but not ``y_i / x_i`` and make
    :math:`d(x, y) \ne d(y, x)`; each term here is exactly symmetric.
    """
    return ((x - y) * (safe_log(x) - safe_log(y))).sum(axis=-1)


def k_divergence(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i x_i \ln\left(\frac{2 x_i}{x_i + y_i}\right)` (asymmetric)."""
    return (x * safe_log(safe_div(2.0 * x, x + y))).sum(axis=-1)


def topsoe(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i \left[x_i \ln\frac{2x_i}{x_i+y_i} + y_i \ln\frac{2y_i}{x_i+y_i}\right]`.

    Twice the Jensen-Shannon divergence; a Table 2 entry under MinMax.
    """
    s = x + y
    return (
        x * safe_log(safe_div(2.0 * x, s)) + y * safe_log(safe_div(2.0 * y, s))
    ).sum(axis=-1)


def jensen_shannon(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Half of :func:`topsoe` — the Jensen-Shannon divergence."""
    return 0.5 * topsoe(x, y)


def jensen_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i \left[\frac{x_i \ln x_i + y_i \ln y_i}{2} - \frac{x_i+y_i}{2}\ln\frac{x_i+y_i}{2}\right]`."""
    mid = (x + y) / 2.0
    return (
        (x * safe_log(x) + y * safe_log(y)) / 2.0 - mid * safe_log(mid)
    ).sum(axis=-1)


KULLBACK_LEIBLER = register_measure(
    DistanceMeasure(
        name="kullbackleibler",
        label="Kullback-Leibler",
        category="lockstep",
        family="entropy",
        func=kullback_leibler,
        matrix_func=elementwise_matrix(kullback_leibler),
        requires_nonnegative=True,
        symmetric=False,
        aliases=("kl",),
        description="Relative entropy (asymmetric).",
    )
)

JEFFREYS = register_measure(
    DistanceMeasure(
        name="jeffreys",
        label="Jeffreys",
        category="lockstep",
        family="entropy",
        func=jeffreys,
        matrix_func=elementwise_matrix(jeffreys),
        requires_nonnegative=True,
        aliases=("jdivergence",),
        description="Symmetrized Kullback-Leibler divergence.",
    )
)

K_DIVERGENCE = register_measure(
    DistanceMeasure(
        name="kdivergence",
        label="K divergence",
        category="lockstep",
        family="entropy",
        func=k_divergence,
        matrix_func=elementwise_matrix(k_divergence),
        requires_nonnegative=True,
        symmetric=False,
        description="KL of x against the midpoint density.",
    )
)

TOPSOE = register_measure(
    DistanceMeasure(
        name="topsoe",
        label="Topsoe",
        category="lockstep",
        family="entropy",
        func=topsoe,
        matrix_func=elementwise_matrix(topsoe),
        requires_nonnegative=True,
        description="Twice Jensen-Shannon; appears in Table 2 under MinMax.",
    )
)

JENSEN_SHANNON = register_measure(
    DistanceMeasure(
        name="jensenshannon",
        label="Jensen-Shannon",
        category="lockstep",
        family="entropy",
        func=jensen_shannon,
        matrix_func=elementwise_matrix(jensen_shannon),
        requires_nonnegative=True,
        aliases=("js",),
        description="Symmetric, bounded entropy divergence.",
    )
)

JENSEN_DIFFERENCE = register_measure(
    DistanceMeasure(
        name="jensendifference",
        label="Jensen difference",
        category="lockstep",
        family="entropy",
        func=jensen_difference,
        matrix_func=elementwise_matrix(jensen_difference),
        requires_nonnegative=True,
        description="Entropy-difference form of Jensen-Shannon.",
    )
)
