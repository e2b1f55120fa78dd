r"""Vicissitude family — the survey's 5 unreported measures ("Emanon").

Cha (2007) proposed several measures not (then) reported in the literature:
Vicis-Wave Hedges and three Vicis-symmetric :math:`\chi^2` forms, plus
max/min-symmetric :math:`\chi^2`. The paper counts 5 of them toward its 52
lock-step measures and refers to them by the placeholder names Emanon1-4
("no name" reversed, following the released evaluation code); Emanon4
(:math:`\sum (x_i-y_i)^2/\max(x_i,y_i)`) with MinMax scaling is one of the
three newly surfaced measures that significantly beat ED (Table 2).

We register both the survey names and the ``emanonN`` aliases. The sixth
form (min-symmetric :math:`\chi^2`) is implemented for completeness but
registered under category ``"extra"`` so the lock-step census stays at 52.
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, register_measure
from ._common import elementwise_matrix, safe_div
from .squared_l2 import neyman_chi2, pearson_chi2


def vicis_wave_hedges(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Emanon1: :math:`\sum_i |x_i - y_i| / \min(x_i, y_i)`."""
    return safe_div(np.abs(x - y), np.minimum(x, y)).sum(axis=-1)


def vicis_symmetric_chi2_1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Emanon2: :math:`\sum_i (x_i - y_i)^2 / \min(x_i, y_i)^2`."""
    return safe_div((x - y) ** 2, np.minimum(x, y) ** 2).sum(axis=-1)


def vicis_symmetric_chi2_2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Emanon3: :math:`\sum_i (x_i - y_i)^2 / \min(x_i, y_i)`."""
    return safe_div((x - y) ** 2, np.minimum(x, y)).sum(axis=-1)


def vicis_symmetric_chi2_3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Emanon4: :math:`\sum_i (x_i - y_i)^2 / \max(x_i, y_i)`.

    The paper's newly surfaced winner: significantly outperforms ED, but
    only under MinMax normalization.
    """
    return safe_div((x - y) ** 2, np.maximum(x, y)).sum(axis=-1)


def max_symmetric_chi2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Emanon5: :math:`\max\left(\sum \frac{(x-y)^2}{x}, \sum \frac{(x-y)^2}{y}\right)`."""
    return np.maximum(neyman_chi2(x, y), pearson_chi2(x, y))


def min_symmetric_chi2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Emanon6 (extra): :math:`\min\left(\sum \frac{(x-y)^2}{x}, \sum \frac{(x-y)^2}{y}\right)`."""
    return np.minimum(neyman_chi2(x, y), pearson_chi2(x, y))


VICIS_WAVE_HEDGES = register_measure(
    DistanceMeasure(
        name="viciswavehedges",
        label="Vicis-Wave Hedges (Emanon1)",
        category="lockstep",
        family="vicissitude",
        func=vicis_wave_hedges,
        matrix_func=elementwise_matrix(vicis_wave_hedges),
        requires_nonnegative=True,
        aliases=("emanon1",),
        description="Wave Hedges with min-denominator.",
    )
)

VICIS_SYMMETRIC_1 = register_measure(
    DistanceMeasure(
        name="vicissymmetric1",
        label="Vicis-Symmetric chi^2 1 (Emanon2)",
        category="lockstep",
        family="vicissitude",
        func=vicis_symmetric_chi2_1,
        matrix_func=elementwise_matrix(vicis_symmetric_chi2_1),
        requires_nonnegative=True,
        aliases=("emanon2",),
        description="Chi-square over squared pointwise minima.",
    )
)

VICIS_SYMMETRIC_2 = register_measure(
    DistanceMeasure(
        name="vicissymmetric2",
        label="Vicis-Symmetric chi^2 2 (Emanon3)",
        category="lockstep",
        family="vicissitude",
        func=vicis_symmetric_chi2_2,
        matrix_func=elementwise_matrix(vicis_symmetric_chi2_2),
        requires_nonnegative=True,
        aliases=("emanon3",),
        description="Chi-square over pointwise minima.",
    )
)

VICIS_SYMMETRIC_3 = register_measure(
    DistanceMeasure(
        name="vicissymmetric3",
        label="Vicis-Symmetric chi^2 3 (Emanon4)",
        category="lockstep",
        family="vicissitude",
        func=vicis_symmetric_chi2_3,
        matrix_func=elementwise_matrix(vicis_symmetric_chi2_3),
        requires_nonnegative=True,
        aliases=("emanon4",),
        description="Chi-square over pointwise maxima; Table 2 winner (MinMax).",
    )
)

MAX_SYMMETRIC_CHI2 = register_measure(
    DistanceMeasure(
        name="maxsymmetricchi2",
        label="Max-Symmetric chi^2 (Emanon5)",
        category="lockstep",
        family="vicissitude",
        func=max_symmetric_chi2,
        matrix_func=elementwise_matrix(max_symmetric_chi2),
        requires_nonnegative=True,
        aliases=("emanon5",),
        description="Worse of Pearson and Neyman chi-square.",
    )
)

MIN_SYMMETRIC_CHI2 = register_measure(
    DistanceMeasure(
        name="minsymmetricchi2",
        label="Min-Symmetric chi^2 (Emanon6)",
        category="extra",
        family="vicissitude",
        func=min_symmetric_chi2,
        matrix_func=elementwise_matrix(min_symmetric_chi2),
        requires_nonnegative=True,
        aliases=("emanon6",),
        description="Better of Pearson and Neyman chi-square (extra).",
    )
)
