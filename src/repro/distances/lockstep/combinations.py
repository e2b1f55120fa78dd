r"""Combination family — 3 measures.

Cha (2007) "combinations" utilize ideas from multiple other families:
Taneja, Kumar-Johnson, and Avg(:math:`L_1`, :math:`L_\infty`). The average
of :math:`L_1` and :math:`L_\infty` is one of the paper's Table 2 winners —
it significantly outperforms ED under z-score, UnitLength and MeanNorm.
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, register_measure
from ._common import EPS, elementwise_matrix, safe_div, safe_log


def taneja(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i \frac{x_i+y_i}{2}\ln\frac{x_i+y_i}{2\sqrt{x_i y_i}}`."""
    mid = (x + y) / 2.0
    geo = np.sqrt(np.maximum(x * y, EPS))
    return (mid * safe_log(safe_div(mid, geo))).sum(axis=-1)


def kumar_johnson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i \frac{(x_i^2 - y_i^2)^2}{2 (x_i y_i)^{3/2}}`."""
    num = (x * x - y * y) ** 2
    den = 2.0 * np.power(np.maximum(x * y, EPS), 1.5)
    return safe_div(num, den).sum(axis=-1)


def avg_l1_linf(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\frac{\sum_i |x_i-y_i| + \max_i |x_i-y_i|}{2}`.

    The "Avg :math:`L_1/L_\infty`" row of the paper's Table 2: a
    parameter-free measure that significantly beats ED.
    """
    diff = np.abs(x - y)
    return (diff.sum(axis=-1) + diff.max(axis=-1)) / 2.0


TANEJA = register_measure(
    DistanceMeasure(
        name="taneja",
        label="Taneja",
        category="lockstep",
        family="combination",
        func=taneja,
        matrix_func=elementwise_matrix(taneja),
        requires_nonnegative=True,
        description="Arithmetic-geometric mean divergence.",
    )
)

KUMAR_JOHNSON = register_measure(
    DistanceMeasure(
        name="kumarjohnson",
        label="Kumar-Johnson",
        category="lockstep",
        family="combination",
        func=kumar_johnson,
        matrix_func=elementwise_matrix(kumar_johnson),
        requires_nonnegative=True,
        description="Symmetric chi-square / geometric-mean hybrid.",
    )
)

AVG_L1_LINF = register_measure(
    DistanceMeasure(
        name="avgl1linf",
        label="Avg L1/Linf",
        category="lockstep",
        family="combination",
        func=avg_l1_linf,
        matrix_func=elementwise_matrix(avg_l1_linf),
        aliases=("avg", "avgl1chebyshev"),
        description="Mean of Manhattan and Chebyshev; a Table 2 winner.",
    )
)
