r"""SINK — Shift INvariant Kernel (paper Section 8).

SINK [109] sums an exponentiated contribution from *every* alignment of the
cross-correlation sequence instead of only the best one (as NCC_c does):

.. math::
    S_\gamma(x, y) = \sum_{w} e^{\gamma\, NCC_w(x, y)},\qquad
    NCC_w = \frac{CC_w(x, y)}{\|x\|\,\|y\|}

and is normalized to :math:`k(x,y) = S_\gamma(x, y) /
\sqrt{S_\gamma(x, x)\, S_\gamma(y, y)}` so :math:`k(x, x) = 1`. The sum of
exponentials is evaluated with log-sum-exp so large :math:`\gamma` (the
Table 4 grid reaches 20) cannot overflow.

The registered dissimilarity is :math:`1 - k(x, y)`.

The scalar functions are the definition. Every all-pairs consumer — the
registered matrix kernel and GRAIL's landmark kernel and transform —
runs on :class:`~repro.distances.sliding.SlidingReference`, the sliding
kernels' spectra type: each series is FFT'd, conjugated and its norm
taken once, and whole blocks of cross-correlation sequences from the
one block routine, :func:`~repro.distances.sliding.cross_correlation.reduce_shifts`,
are reduced along the shift axis at a time, bitwise equal to the scalar
functions pair by pair. Norms are last-axis reductions and a zero norm
has one rule, shared with NCC_c: ``‖x‖‖y‖ < EPS`` gives similarity 0.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.fft import irfft
from scipy.special import logsumexp

from ..._validation import EPS, as_pair
from ..base import DistanceMeasure, ParamSpec, register_measure
from ..sliding.cross_correlation import (
    SlidingReference,
    cross_correlation,
    norm,
    reduce_shifts,
    shift_order,
    sliding_reference,
)


def _log_sum(cc: np.ndarray, denom: np.ndarray, gamma: float) -> np.ndarray:
    """log of the unnormalized SINK similarity over the last axis of
    shift-ordered ``cc`` given ``‖x‖‖y‖``: ``-inf`` where ``denom < EPS``."""
    zero = denom < EPS
    ncc_seq = cc / np.where(zero, 1.0, denom)[..., None]
    return np.where(zero, -np.inf, logsumexp(gamma * ncc_seq, axis=-1))


def _log_sum_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """log of the unnormalized SINK similarity of one pair."""
    return float(_log_sum(cross_correlation(x, y), norm(x) * norm(y), gamma))


def sink_similarity(x: np.ndarray, y: np.ndarray, gamma: float = 5.0) -> float:
    """Normalized SINK kernel value in ``(0, 1]`` (1 for identical shapes)."""
    x, y = as_pair(x, y)
    log_xy = _log_sum_kernel(x, y, gamma)
    if not np.isfinite(log_xy):
        return 0.0
    log_xx = _log_sum_kernel(x, x, gamma)
    log_yy = _log_sum_kernel(y, y, gamma)
    return float(np.exp(log_xy - 0.5 * (log_xx + log_yy)))


def sink(x: np.ndarray, y: np.ndarray, gamma: float = 5.0) -> float:
    """SINK dissimilarity ``1 - k(x, y)``."""
    return 1.0 - sink_similarity(x, y, gamma)


def _log_self(spectra: SlidingReference, gamma: float) -> np.ndarray:
    """``log S_gamma(x, x)`` of each series, from its own spectrum."""
    fc = spectra.fft_conj
    cc = shift_order(irfft(np.conj(fc) * fc, spectra.nfft, axis=1), spectra.length)
    return _log_sum(cc, spectra.norms * spectra.norms, gamma)


def sink_similarity_matrix(
    rows: SlidingReference, cols: SlidingReference, gamma: float = 5.0
) -> np.ndarray:
    """:func:`sink_similarity` of every (row, column) pair, bitwise.

    Each series' self-similarity is computed once, and once for both sides
    when ``cols is rows``.
    """
    log_xy = reduce_shifts(rows, cols, partial(_log_sum, gamma=gamma))
    log_xx = _log_self(rows, gamma)
    log_yy = log_xx if cols is rows else _log_self(cols, gamma)
    with np.errstate(invalid="ignore"):
        sims = np.exp(log_xy - 0.5 * (log_xx[:, None] + log_yy[None, :]))
    return np.where(np.isfinite(log_xy), sims, 0.0)


def _sink_matrix(X: np.ndarray, Y: np.ndarray, gamma: float = 5.0) -> np.ndarray:
    rows = sliding_reference(X)
    # Only pairwise's self mode shares X's transforms: a Y that merely
    # overlaps X in memory is a different batch of series.
    cols = rows if Y is X else sliding_reference(Y)
    return 1.0 - sink_similarity_matrix(rows, cols, gamma)


SINK = register_measure(
    DistanceMeasure(
        name="sink",
        label="SINK",
        category="kernel",
        family="kernel",
        func=sink,
        matrix_func=_sink_matrix,
        params=(
            ParamSpec(
                name="gamma",
                default=5.0,
                grid=tuple(float(g) for g in range(1, 21)),
                description="Exponential sharpness (Table 4: 1..20; "
                "paper's unsupervised pick is gamma=5).",
            ),
        ),
        complexity="O(m log m)",
        description="Shift-invariant sum-over-alignments kernel.",
    )
)
