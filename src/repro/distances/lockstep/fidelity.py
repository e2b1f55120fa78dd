r"""Fidelity (squared-chord) family — 5 measures.

Survey family 5 of Cha (2007): Fidelity, Bhattacharyya, Hellinger, Matusita,
and Squared-chord. All compare square roots of the inputs, so they interpret
series as (unnormalized) probability densities; the registry clips inputs to
a positive floor before evaluation, matching how the paper pairs these
measures with MinMax-style scalings.
"""

from __future__ import annotations

import numpy as np

from ..._validation import EPS
from ..base import DistanceMeasure, register_measure
from ._common import elementwise_matrix


def fidelity(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`1 - \sum_i \sqrt{x_i y_i}` (complement of fidelity similarity)."""
    return 1.0 - np.sqrt(x * y).sum(axis=-1)


def bhattacharyya(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`-\ln \sum_i \sqrt{x_i y_i}`."""
    return -np.log(np.maximum(np.sqrt(x * y).sum(axis=-1), EPS))


def hellinger(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sqrt{2 \sum_i (\sqrt{x_i} - \sqrt{y_i})^2}`.

    The difference form rather than :math:`2\sqrt{1 - \sum\sqrt{xy}}` so
    the measure stays well defined for unnormalized inputs; the two agree
    for proper densities.
    """
    return np.sqrt(2.0 * squared_chord(x, y))


def matusita(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sqrt{\sum_i (\sqrt{x_i} - \sqrt{y_i})^2}`."""
    return np.sqrt(squared_chord(x, y))


def squared_chord(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i (\sqrt{x_i} - \sqrt{y_i})^2`."""
    return ((np.sqrt(x) - np.sqrt(y)) ** 2).sum(axis=-1)


FIDELITY = register_measure(
    DistanceMeasure(
        name="fidelity",
        label="Fidelity",
        category="lockstep",
        family="fidelity",
        func=fidelity,
        matrix_func=elementwise_matrix(fidelity),
        requires_nonnegative=True,
        description="Complement of the Bhattacharyya coefficient.",
    )
)

BHATTACHARYYA = register_measure(
    DistanceMeasure(
        name="bhattacharyya",
        label="Bhattacharyya",
        category="lockstep",
        family="fidelity",
        func=bhattacharyya,
        matrix_func=elementwise_matrix(bhattacharyya),
        requires_nonnegative=True,
        description="Negative log Bhattacharyya coefficient.",
    )
)

HELLINGER = register_measure(
    DistanceMeasure(
        name="hellinger",
        label="Hellinger",
        category="lockstep",
        family="fidelity",
        func=hellinger,
        matrix_func=elementwise_matrix(hellinger),
        requires_nonnegative=True,
        description="Root-2-scaled root-difference norm.",
    )
)

MATUSITA = register_measure(
    DistanceMeasure(
        name="matusita",
        label="Matusita",
        category="lockstep",
        family="fidelity",
        func=matusita,
        matrix_func=elementwise_matrix(matusita),
        requires_nonnegative=True,
        description="Root-difference norm (Hellinger / sqrt(2)).",
    )
)

SQUARED_CHORD = register_measure(
    DistanceMeasure(
        name="squaredchord",
        label="Squared-chord",
        category="lockstep",
        family="fidelity",
        func=squared_chord,
        matrix_func=elementwise_matrix(squared_chord),
        requires_nonnegative=True,
        description="Squared root-difference norm.",
    )
)
