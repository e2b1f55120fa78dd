r"""Intersection family — 7 measures.

Survey family 3 of Cha (2007): Intersection, Wave Hedges, Czekanowski,
Motyka, Kulczynski s, Ruzicka, and Tanimoto. These compare histogram-style
overlap between series. Several are algebraically equivalent to one another
(e.g. Ruzicka's complement equals Soergel); the paper explicitly discusses
such equivalences when critiquing the earlier lock-step study [57] — we keep
each registered under its survey name so the census and tables match, and
the test suite asserts the known equivalences.
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, register_measure
from ._common import elementwise_matrix, safe_div
from .l1_family import kulczynski, sorensen
from .minkowski import manhattan


def intersection(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Non-overlap :math:`\frac{1}{2}\sum |x_i - y_i|`.

    Complement of the intersection similarity :math:`\sum\min(x_i,y_i)`
    for histograms of equal mass.
    """
    return 0.5 * manhattan(x, y)


def wave_hedges(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i |x_i-y_i| / \max(x_i, y_i)`."""
    return safe_div(np.abs(x - y), np.maximum(x, y)).sum(axis=-1)


def czekanowski(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum |x_i-y_i| / \sum (x_i+y_i)` — Sorensen's twin.

    Defined in the survey as :math:`1 - 2\sum\min / \sum(x+y)`, which
    reduces to the Sorensen ratio; equality is asserted in the test suite.
    """
    return sorensen(x, y)


def motyka(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum \max(x_i,y_i) / \sum (x_i+y_i)` (in ``[1/2, 1]``)."""
    return safe_div(np.maximum(x, y).sum(axis=-1), (x + y).sum(axis=-1))


def kulczynski_s(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Reciprocal Kulczynski similarity: :math:`\sum|x-y| / \sum\min(x,y)`.

    The survey defines the *similarity* :math:`s = \sum\min / \sum|x-y|`;
    its reciprocal is the Kulczynski d distance, registered here under the
    similarity-form name for census completeness.
    """
    return kulczynski(x, y)


def ruzicka(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`1 - \sum \min(x_i,y_i) / \sum \max(x_i,y_i)`."""
    return 1.0 - safe_div(
        np.minimum(x, y).sum(axis=-1), np.maximum(x, y).sum(axis=-1)
    )


def tanimoto(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`(\sum\max - \sum\min) / \sum\max` — set-theoretic difference."""
    mx = np.maximum(x, y).sum(axis=-1)
    return safe_div(mx - np.minimum(x, y).sum(axis=-1), mx)


INTERSECTION = register_measure(
    DistanceMeasure(
        name="intersection",
        label="Intersection",
        category="lockstep",
        family="intersection",
        func=intersection,
        matrix_func=elementwise_matrix(intersection),
        requires_nonnegative=True,
        aliases=("nonintersection",),
        description="Half the L1 distance (histogram non-overlap).",
    )
)

WAVE_HEDGES = register_measure(
    DistanceMeasure(
        name="wavehedges",
        label="Wave Hedges",
        category="lockstep",
        family="intersection",
        func=wave_hedges,
        matrix_func=elementwise_matrix(wave_hedges),
        requires_nonnegative=True,
        description="Pointwise relative deviation w.r.t. the larger value.",
    )
)

CZEKANOWSKI = register_measure(
    DistanceMeasure(
        name="czekanowski",
        label="Czekanowski",
        category="lockstep",
        family="intersection",
        func=czekanowski,
        matrix_func=elementwise_matrix(czekanowski),
        requires_nonnegative=True,
        description="Complement of the Czekanowski overlap (== Sorensen).",
    )
)

MOTYKA = register_measure(
    DistanceMeasure(
        name="motyka",
        label="Motyka",
        category="lockstep",
        family="intersection",
        func=motyka,
        matrix_func=elementwise_matrix(motyka),
        requires_nonnegative=True,
        description="Share of pointwise maxima in the total mass.",
    )
)

KULCZYNSKI_S = register_measure(
    DistanceMeasure(
        name="kulczynskis",
        label="Kulczynski s",
        category="lockstep",
        family="intersection",
        func=kulczynski_s,
        matrix_func=elementwise_matrix(kulczynski_s),
        requires_nonnegative=True,
        description="Reciprocal of the Kulczynski similarity.",
    )
)

RUZICKA = register_measure(
    DistanceMeasure(
        name="ruzicka",
        label="Ruzicka",
        category="lockstep",
        family="intersection",
        func=ruzicka,
        matrix_func=elementwise_matrix(ruzicka),
        requires_nonnegative=True,
        description="One minus the Ruzicka (generalized Jaccard) similarity.",
    )
)

TANIMOTO = register_measure(
    DistanceMeasure(
        name="tanimoto",
        label="Tanimoto",
        category="lockstep",
        family="intersection",
        func=tanimoto,
        matrix_func=elementwise_matrix(tanimoto),
        requires_nonnegative=True,
        description="Tanimoto set-difference ratio.",
    )
)
