r""":math:`L_1` family — 6 measures.

Survey family 2 of Cha (2007): Sorensen, Gower, Soergel, Kulczynski,
Canberra, and Lorentzian. The Lorentzian distance —
:math:`\sum_i \ln(1 + |x_i - y_i|)` — is the paper's headline result for
misconception M2: it significantly outperforms Euclidean distance and
becomes the new state-of-the-art lock-step measure (Figure 2).

Ratio-based members (Sorensen, Soergel, Kulczynski, Canberra) interpret the
inputs as nonnegative vectors and are registered with
``requires_nonnegative=True``; the paper finds Soergel shines under MinMax
scaling specifically.
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, register_measure
from ._common import elementwise_matrix, safe_div


def sorensen(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum |x_i-y_i| \,/\, \sum (x_i+y_i)` (a.k.a. Bray-Curtis)."""
    return safe_div(np.abs(x - y).sum(axis=-1), (x + y).sum(axis=-1))


def gower(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\frac{1}{m}\sum |x_i-y_i|` — length-normalized Manhattan."""
    return np.abs(x - y).mean(axis=-1)


def soergel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum |x_i-y_i| \,/\, \sum \max(x_i, y_i)`.

    One of the paper's newly surfaced winners: beats ED with statistical
    significance under MinMax normalization (Table 2).
    """
    return safe_div(np.abs(x - y).sum(axis=-1), np.maximum(x, y).sum(axis=-1))


def kulczynski(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum |x_i-y_i| \,/\, \sum \min(x_i, y_i)` (Kulczynski d)."""
    return safe_div(np.abs(x - y).sum(axis=-1), np.minimum(x, y).sum(axis=-1))


def canberra(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i |x_i-y_i| / (x_i + y_i)` — pointwise-weighted L1."""
    return safe_div(np.abs(x - y), x + y).sum(axis=-1)


def lorentzian(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r""":math:`\sum_i \ln(1 + |x_i - y_i|)`.

    The natural logarithm tames large pointwise deviations, which is
    exactly the robustness that makes this the best parameter-free
    lock-step measure in the paper's evaluation.
    """
    return np.log1p(np.abs(x - y)).sum(axis=-1)


SORENSEN = register_measure(
    DistanceMeasure(
        name="sorensen",
        label="Sorensen",
        category="lockstep",
        family="l1",
        func=sorensen,
        matrix_func=elementwise_matrix(sorensen),
        requires_nonnegative=True,
        aliases=("braycurtis",),
        description="Relative L1 (Bray-Curtis).",
    )
)

GOWER = register_measure(
    DistanceMeasure(
        name="gower",
        label="Gower",
        category="lockstep",
        family="l1",
        func=gower,
        matrix_func=elementwise_matrix(gower),
        description="Mean absolute deviation (Manhattan / m).",
    )
)

SOERGEL = register_measure(
    DistanceMeasure(
        name="soergel",
        label="Soergel",
        category="lockstep",
        family="l1",
        func=soergel,
        matrix_func=elementwise_matrix(soergel),
        requires_nonnegative=True,
        description="L1 over pointwise maxima; a Table 2 winner under MinMax.",
    )
)

KULCZYNSKI = register_measure(
    DistanceMeasure(
        name="kulczynski",
        label="Kulczynski d",
        category="lockstep",
        family="l1",
        func=kulczynski,
        matrix_func=elementwise_matrix(kulczynski),
        requires_nonnegative=True,
        aliases=("kulczynskid",),
        description="L1 over pointwise minima.",
    )
)

CANBERRA = register_measure(
    DistanceMeasure(
        name="canberra",
        label="Canberra",
        category="lockstep",
        family="l1",
        func=canberra,
        matrix_func=elementwise_matrix(canberra),
        requires_nonnegative=True,
        description="Pointwise-normalized L1.",
    )
)

LORENTZIAN = register_measure(
    DistanceMeasure(
        name="lorentzian",
        label="Lorentzian",
        category="lockstep",
        family="l1",
        func=lorentzian,
        matrix_func=elementwise_matrix(lorentzian),
        description="Log-damped L1; the paper's new lock-step state of the art.",
    )
)
