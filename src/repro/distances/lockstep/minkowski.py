r"""Minkowski (:math:`L_p`) family — 4 measures.

Survey family 1 of Cha (2007): Euclidean (:math:`L_2`), City block /
Manhattan (:math:`L_1`), Minkowski (:math:`L_p`, the only lock-step measure
with a tunable parameter; paper Table 4 sweeps 20 values of *p*), and
Chebyshev (:math:`L_\infty`).
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, ParamSpec, register_measure
from ._common import elementwise_matrix, gram_matrix, squared_gap
from .squared_l2 import squared_euclidean


def euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sqrt{\sum_i (x_i - y_i)^2}` — the paper's ED baseline.

    The row-wise form every served ED distance is: ``x`` may hold many
    rows (or one row per row of ``y``), and each row's distance is one
    pairwise-summed reduction, bitwise the same alone or in a batch.
    """
    return np.sqrt(squared_euclidean(x, y))


def manhattan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i |x_i - y_i|` (city block, :math:`L_1`)."""
    return np.abs(x - y).sum(axis=-1)


def minkowski(x: np.ndarray, y: np.ndarray, p: float = 2.0) -> np.ndarray:
    r""":math:`\left(\sum_i |x_i - y_i|^p\right)^{1/p}`.

    Fractional ``p`` (the paper sweeps down to 0.1) yields a non-metric but
    often more accurate measure.
    """
    diff = np.abs(x - y)
    if p == np.inf:
        return diff.max(axis=-1)
    return np.power(np.power(diff, p).sum(axis=-1), 1.0 / p)


def chebyshev(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\max_i |x_i - y_i|` (:math:`L_\infty`)."""
    return np.abs(x - y).max(axis=-1)


EUCLIDEAN = register_measure(
    DistanceMeasure(
        name="euclidean",
        label="ED (L2-norm)",
        category="lockstep",
        family="minkowski",
        func=euclidean,
        matrix_func=gram_matrix(lambda xx, yy, xy: np.sqrt(squared_gap(xx, yy, xy))),
        aliases=("ed", "l2"),
        description="Euclidean distance; the misconception-M2 baseline.",
    )
)

MANHATTAN = register_measure(
    DistanceMeasure(
        name="manhattan",
        label="Manhattan (L1-norm)",
        category="lockstep",
        family="minkowski",
        func=manhattan,
        matrix_func=elementwise_matrix(manhattan),
        aliases=("cityblock", "l1"),
        description="City-block distance; significantly beats ED (Table 2).",
    )
)

MINKOWSKI = register_measure(
    DistanceMeasure(
        name="minkowski",
        label="Minkowski (Lp-norm)",
        category="lockstep",
        family="minkowski",
        func=minkowski,
        matrix_func=elementwise_matrix(minkowski),
        params=(
            ParamSpec(
                name="p",
                default=2.0,
                grid=(
                    0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.3, 1.5, 1.7, 1.9,
                    2.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 20.0,
                ),
                description="Order of the Lp norm (paper Table 4 grid).",
            ),
        ),
        aliases=("lp",),
        description="Tunable Lp norm; best average accuracy in Table 2.",
    )
)

CHEBYSHEV = register_measure(
    DistanceMeasure(
        name="chebyshev",
        label="Chebyshev (Linf-norm)",
        category="lockstep",
        family="minkowski",
        func=chebyshev,
        matrix_func=elementwise_matrix(chebyshev),
        aliases=("linf", "maximum"),
        description="Maximum pointwise deviation.",
    )
)
