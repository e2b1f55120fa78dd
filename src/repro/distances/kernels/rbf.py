r"""Radial Basis Function kernel (paper Section 8).

RBF [37] is the general-purpose kernel :math:`k(x, y) = e^{-\gamma \|x-y\|^2}`
that internally exploits ED. For 1-NN classification RBF is rank-equivalent
to ED for any fixed :math:`\gamma` — which is exactly why the paper finds
its accuracy statistically *worse* than NCC_c (Table 6): it inherits ED's
lock-step weaknesses. The grid in Table 4 sweeps :math:`\gamma = 2^{-15}
\dots 2^{0}`.

The registered dissimilarity is :math:`\gamma \|x - y\|^2 = -\log k(x, y)`,
the negative log of the (already normalized) kernel, as for KDTW and GAK.
``1 - k(x, y)`` would not do: it rounds to exactly 1.0 once
:math:`\gamma \|x - y\|^2` passes about 37, so at the default
:math:`\gamma = 2` on z-normalized series most pairs would tie and 1-NN
would stop following ED.
"""

from __future__ import annotations

import numpy as np

from ..base import DistanceMeasure, ParamSpec, register_measure
from ..lockstep._common import gram_matrix, squared_gap
from ..lockstep.squared_l2 import squared_euclidean

_GAMMA_GRID = tuple(2.0 ** exp for exp in range(-15, 1))


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float = 0.03125) -> float:
    r"""Kernel value :math:`e^{-\gamma \|x - y\|^2}` in ``(0, 1]``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(np.exp(-rbf(x, y, gamma)))


def rbf(x: np.ndarray, y: np.ndarray, gamma: float = 0.03125) -> np.ndarray:
    r"""RBF dissimilarity :math:`\gamma \|x - y\|^2 = -\log k(x, y)` in
    ``[0, inf)``: monotone in ED for every pair, so never saturated."""
    return gamma * squared_euclidean(x, y)


RBF = register_measure(
    DistanceMeasure(
        name="rbf",
        label="RBF",
        category="kernel",
        family="kernel",
        func=rbf,
        matrix_func=gram_matrix(
            lambda xx, yy, xy, gamma: gamma * squared_gap(xx, yy, xy)
        ),
        params=(
            ParamSpec(
                name="gamma",
                default=2.0,
                grid=_GAMMA_GRID,
                description="Bandwidth (Table 4: 2^-15..2^0; paper's "
                "unsupervised pick is gamma=2).",
            ),
        ),
        complexity="O(m)",
        description="Gaussian kernel over ED (-log k; rank-equivalent to ED).",
    )
)
