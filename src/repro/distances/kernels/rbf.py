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

_GAMMA_GRID = tuple(2.0 ** exp for exp in range(-15, 1))


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float = 0.03125) -> float:
    r"""Kernel value :math:`e^{-\gamma \|x - y\|^2}` in ``(0, 1]``."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-gamma * np.dot(diff, diff)))


def rbf(x: np.ndarray, y: np.ndarray, gamma: float = 0.03125) -> float:
    r"""RBF dissimilarity :math:`\gamma \|x - y\|^2 = -\log k(x, y)` in
    ``[0, inf)``: monotone in ED for every pair, so never saturated."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(gamma * np.dot(diff, diff))


def _rbf_matrix(X: np.ndarray, Y: np.ndarray, gamma: float = 0.03125) -> np.ndarray:
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(Y * Y, axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    return gamma * np.maximum(sq, 0.0)


RBF = register_measure(
    DistanceMeasure(
        name="rbf",
        label="RBF",
        category="kernel",
        family="kernel",
        func=rbf,
        matrix_func=_rbf_matrix,
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
