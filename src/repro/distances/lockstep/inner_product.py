r"""Inner-product family — 6 measures.

Survey family 4 of Cha (2007): Inner product, Harmonic mean, Cosine,
Kumar-Hassebrook (PCE), Jaccard, and Dice. The Jaccard distance is another
of the paper's newly surfaced winners — it significantly beats ED, but only
under MeanNorm scaling (Table 2), illustrating misconception M1.

Similarity-native members (inner product, harmonic mean) are negated so the
registry's smaller-is-closer contract holds; bounded similarities (cosine,
Kumar-Hassebrook) use the usual :math:`1 - s` complement.
"""

from __future__ import annotations

import numpy as np

from ..._validation import EPS, guarded_divide
from ..base import DistanceMeasure, register_measure
from ._common import elementwise_matrix, gram_matrix, safe_div


def inner_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Negated inner product :math:`-\sum x_i y_i`.

    Under z-normalization, ranking by this measure is identical to ranking
    by Euclidean distance (the paper uses that equivalence to critique
    [57]); the test suite asserts it.
    """
    return -(x * y).sum(axis=-1)


def harmonic_mean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r"""Negated harmonic-mean similarity :math:`-2\sum x_i y_i/(x_i+y_i)`."""
    return -2.0 * safe_div(x * y, x + y).sum(axis=-1)


def cosine(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`1 - \frac{\sum x_i y_i}{\|x\|\,\|y\|}` (cosine distance);
    1 when :math:`\|x\|\,\|y\| <` ``EPS``."""
    return _cosine_form(
        (x * x).sum(axis=-1), (y * y).sum(axis=-1), (x * y).sum(axis=-1)
    )


def _cosine_form(xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> np.ndarray:
    return 1.0 - guarded_divide(xy, np.sqrt(xx) * np.sqrt(yy))


def kumar_hassebrook(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`1 - \frac{\sum x_i y_i}{\sum x_i^2 + \sum y_i^2 - \sum x_i y_i}`.

    Complement of the PCE (peak-to-correlation energy) similarity.
    """
    dot = (x * y).sum(axis=-1)
    den = (x * x).sum(axis=-1) + (y * y).sum(axis=-1) - dot
    return 1.0 - dot / np.maximum(den, EPS)


def jaccard(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\frac{\sum (x_i-y_i)^2}{\sum x_i^2 + \sum y_i^2 - \sum x_i y_i}`.

    Algebraically equal to :func:`kumar_hassebrook`; a Table 2 winner under
    MeanNorm scaling.
    """
    num = ((x - y) ** 2).sum(axis=-1)
    den = (x * x).sum(axis=-1) + (y * y).sum(axis=-1) - (x * y).sum(axis=-1)
    return num / np.maximum(den, EPS)


def dice(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\frac{\sum (x_i-y_i)^2}{\sum x_i^2 + \sum y_i^2}`."""
    num = ((x - y) ** 2).sum(axis=-1)
    den = (x * x).sum(axis=-1) + (y * y).sum(axis=-1)
    return num / np.maximum(den, EPS)


INNER_PRODUCT = register_measure(
    DistanceMeasure(
        name="innerproduct",
        label="Inner Product",
        category="lockstep",
        family="inner_product",
        func=inner_product,
        matrix_func=gram_matrix(lambda xx, yy, xy: -xy),
        aliases=("dotproduct",),
        description="Negated dot product (ED-equivalent under z-score).",
    )
)

HARMONIC_MEAN = register_measure(
    DistanceMeasure(
        name="harmonicmean",
        label="Harmonic Mean",
        category="lockstep",
        family="inner_product",
        func=harmonic_mean,
        matrix_func=elementwise_matrix(harmonic_mean),
        requires_nonnegative=True,
        description="Negated harmonic-mean similarity.",
    )
)

COSINE = register_measure(
    DistanceMeasure(
        name="cosine",
        label="Cosine",
        category="lockstep",
        family="inner_product",
        func=cosine,
        matrix_func=gram_matrix(_cosine_form),
        description="One minus cosine similarity.",
    )
)

KUMAR_HASSEBROOK = register_measure(
    DistanceMeasure(
        name="kumarhassebrook",
        label="Kumar-Hassebrook",
        category="lockstep",
        family="inner_product",
        func=kumar_hassebrook,
        matrix_func=elementwise_matrix(kumar_hassebrook),
        aliases=("pce",),
        description="Complement of the PCE similarity (== Jaccard distance).",
    )
)

JACCARD = register_measure(
    DistanceMeasure(
        name="jaccard",
        label="Jaccard",
        category="lockstep",
        family="inner_product",
        func=jaccard,
        matrix_func=elementwise_matrix(jaccard),
        description="Squared-difference Jaccard; Table 2 winner under MeanNorm.",
    )
)

DICE = register_measure(
    DistanceMeasure(
        name="dice",
        label="Dice",
        category="lockstep",
        family="inner_product",
        func=dice,
        matrix_func=elementwise_matrix(dice),
        description="Squared-difference Dice coefficient distance.",
    )
)
