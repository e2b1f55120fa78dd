r"""Squared :math:`L_2` (:math:`\chi^2`) family — 8 measures.

Survey family 6 of Cha (2007): Squared Euclidean, Pearson :math:`\chi^2`,
Neyman :math:`\chi^2`, Squared :math:`\chi^2`, Probabilistic symmetric
:math:`\chi^2`, Divergence, Clark, and Additive symmetric :math:`\chi^2`.
Clark appears in the paper's Table 2 (better average accuracy under MinMax
but not statistically significant).

Pearson and Neyman divide by only one of the two series, making them the
only asymmetric measures in the lock-step set — the registry records this so
pairwise self-matrices are computed in full.
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, register_measure
from ._common import elementwise_matrix, gram_matrix, safe_div, squared_gap


def squared_euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i (x_i - y_i)^2` — ED without the root (rank-identical).

    The difference is squared in place: over ``n`` reference rows a
    second ``n``-row temporary per query costs page faults.
    """
    diff = x - y
    diff *= diff
    return diff.sum(axis=-1)


def pearson_chi2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i (x_i - y_i)^2 / y_i` (asymmetric)."""
    return safe_div((x - y) ** 2, y).sum(axis=-1)


def neyman_chi2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i (x_i - y_i)^2 / x_i` (asymmetric)."""
    return safe_div((x - y) ** 2, x).sum(axis=-1)


def squared_chi2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i (x_i - y_i)^2 / (x_i + y_i)`."""
    return safe_div((x - y) ** 2, x + y).sum(axis=-1)


def prob_symmetric_chi2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`2 \sum_i (x_i - y_i)^2 / (x_i + y_i)`."""
    return 2.0 * squared_chi2(x, y)


def divergence(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`2 \sum_i (x_i - y_i)^2 / (x_i + y_i)^2`."""
    return 2.0 * safe_div((x - y) ** 2, (x + y) ** 2).sum(axis=-1)


def clark(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sqrt{\sum_i \left(|x_i - y_i| / (x_i + y_i)\right)^2}`."""
    ratios = safe_div(np.abs(x - y), x + y)
    return np.sqrt((ratios * ratios).sum(axis=-1))


def additive_symmetric_chi2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i (x_i - y_i)^2 (x_i + y_i) / (x_i y_i)`."""
    return safe_div((x - y) ** 2 * (x + y), x * y).sum(axis=-1)


SQUARED_EUCLIDEAN = register_measure(
    DistanceMeasure(
        name="squaredeuclidean",
        label="Squared ED",
        category="lockstep",
        family="squared_l2",
        func=squared_euclidean,
        matrix_func=gram_matrix(squared_gap),
        aliases=("sqeuclidean",),
        description="Euclidean distance squared (1-NN rank-identical to ED).",
    )
)

PEARSON_CHI2 = register_measure(
    DistanceMeasure(
        name="pearsonchi2",
        label="Pearson chi^2",
        category="lockstep",
        family="squared_l2",
        func=pearson_chi2,
        matrix_func=elementwise_matrix(pearson_chi2),
        requires_nonnegative=True,
        symmetric=False,
        description="Chi-square weighted by the second series.",
    )
)

NEYMAN_CHI2 = register_measure(
    DistanceMeasure(
        name="neymanchi2",
        label="Neyman chi^2",
        category="lockstep",
        family="squared_l2",
        func=neyman_chi2,
        matrix_func=elementwise_matrix(neyman_chi2),
        requires_nonnegative=True,
        symmetric=False,
        description="Chi-square weighted by the first series.",
    )
)

SQUARED_CHI2 = register_measure(
    DistanceMeasure(
        name="squaredchi2",
        label="Squared chi^2",
        category="lockstep",
        family="squared_l2",
        func=squared_chi2,
        matrix_func=elementwise_matrix(squared_chi2),
        requires_nonnegative=True,
        description="Symmetric chi-square.",
    )
)

PROB_SYMMETRIC_CHI2 = register_measure(
    DistanceMeasure(
        name="probsymmetricchi2",
        label="Prob. Symmetric chi^2",
        category="lockstep",
        family="squared_l2",
        func=prob_symmetric_chi2,
        matrix_func=elementwise_matrix(prob_symmetric_chi2),
        requires_nonnegative=True,
        description="Twice the symmetric chi-square.",
    )
)

DIVERGENCE = register_measure(
    DistanceMeasure(
        name="divergence",
        label="Divergence",
        category="lockstep",
        family="squared_l2",
        func=divergence,
        matrix_func=elementwise_matrix(divergence),
        requires_nonnegative=True,
        description="Chi-square with squared-sum weighting.",
    )
)

CLARK = register_measure(
    DistanceMeasure(
        name="clark",
        label="Clark",
        category="lockstep",
        family="squared_l2",
        func=clark,
        matrix_func=elementwise_matrix(clark),
        requires_nonnegative=True,
        description="Coefficient-of-divergence root; appears in Table 2.",
    )
)

ADDITIVE_SYMMETRIC_CHI2 = register_measure(
    DistanceMeasure(
        name="additivesymmetricchi2",
        label="Additive Symmetric chi^2",
        category="lockstep",
        family="squared_l2",
        func=additive_symmetric_chi2,
        matrix_func=elementwise_matrix(additive_symmetric_chi2),
        requires_nonnegative=True,
        description="Symmetrized Pearson + Neyman chi-square.",
    )
)
