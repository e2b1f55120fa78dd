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
registered matrix kernel and GRAIL's landmark kernel, transform and SBD
landmark selection — runs on :class:`SeriesSpectra`: each series is
FFT'd and its norm taken once, and whole blocks of cross-correlation
sequences from the sliding kernels' :func:`cc_blocks` core are reduced
along the shift axis at a time, bitwise equal to the scalar functions pair
by pair.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import logsumexp

from ..._validation import EPS, as_pair
from ..base import DistanceMeasure, ParamSpec, register_measure
from ..sliding.cross_correlation import cc_blocks, cross_correlation, shift_order


def _log_sum_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """log of the unnormalized SINK similarity."""
    denom = float(np.linalg.norm(x) * np.linalg.norm(y))
    if denom < EPS:
        return -np.inf
    ncc_seq = cross_correlation(x, y) / denom
    return float(logsumexp(gamma * ncc_seq))


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


class SeriesSpectra(NamedTuple):
    """Each series' spectrum and norm, taken once and shared by its pairs."""

    length: int
    nfft: int
    fft: np.ndarray  #: ``rfft(X, nfft, axis=1)``, shape (n, nfft//2+1)
    norms: np.ndarray  #: ``np.linalg.norm(row)`` per row, shape (n,)

    def take(self, index: int | np.ndarray) -> "SeriesSpectra":
        """The spectra of the series at ``index`` (an int or index array)."""
        index = np.atleast_1d(index)
        return self._replace(fft=self.fft[index], norms=self.norms[index])


def series_spectra(X: np.ndarray) -> SeriesSpectra:
    """Build the :class:`SeriesSpectra` of an ``(n, m)`` batch."""
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[1]
    nfft = next_fast_len(2 * m - 1, real=True)
    # One norm per row, as the pair functions take it: an axis-wise norm
    # can differ from np.linalg.norm(row) in the last bit.
    norms = np.array([np.linalg.norm(row) for row in X], dtype=np.float64)
    return SeriesSpectra(m, nfft, rfft(X, nfft, axis=1), norms)


def _shift_reduce(
    rows: SeriesSpectra,
    cols: SeriesSpectra,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """The all-pairs block routine: ``reduce(cc, denom)`` collapses the
    shift axis of each block of shift-ordered cross-correlations ``cc``
    ``(block rows, block columns, 2m - 1)`` given the matching ``‖x‖‖y‖``
    products."""
    out = np.empty((rows.fft.shape[0], cols.fft.shape[0]), dtype=np.float64)
    for r, c, cc in cc_blocks(rows.fft, np.conj(cols.fft), rows.nfft, rows.length):
        out[r, c] = reduce(cc, rows.norms[r, None] * cols.norms[None, c])
    return out


def _log_sum(cc: np.ndarray, denom: np.ndarray, gamma: float) -> np.ndarray:
    """:func:`_log_sum_kernel` over the last axis: ``-inf`` at a zero norm."""
    zero = denom < EPS
    ncc_seq = cc / np.where(zero, 1.0, denom)[..., None]
    return np.where(zero, -np.inf, logsumexp(gamma * ncc_seq, axis=-1))


def _sbd(cc: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``ncc_c`` over the last axis: 1 at a zero norm."""
    zero = denom < EPS
    return np.where(zero, 1.0, 1.0 - cc.max(axis=-1) / np.where(zero, 1.0, denom))


def _log_self(spectra: SeriesSpectra, gamma: float) -> np.ndarray:
    """``log S_gamma(x, x)`` of each series, from its own spectrum."""
    fx = spectra.fft
    cc = shift_order(irfft(fx * np.conj(fx), spectra.nfft, axis=1), spectra.length)
    return _log_sum(cc, spectra.norms * spectra.norms, gamma)


def sink_similarity_matrix(
    rows: SeriesSpectra, cols: SeriesSpectra, gamma: float = 5.0
) -> np.ndarray:
    """:func:`sink_similarity` of every (row, column) pair, bitwise.

    Each series' self-similarity is computed once, and once for both sides
    when ``cols is rows``.
    """
    log_xy = _shift_reduce(rows, cols, partial(_log_sum, gamma=gamma))
    log_xx = _log_self(rows, gamma)
    log_yy = log_xx if cols is rows else _log_self(cols, gamma)
    with np.errstate(invalid="ignore"):
        sims = np.exp(log_xy - 0.5 * (log_xx[:, None] + log_yy[None, :]))
    return np.where(np.isfinite(log_xy), sims, 0.0)


def sbd_matrix(rows: SeriesSpectra, cols: SeriesSpectra) -> np.ndarray:
    """SBD (:func:`~repro.distances.sliding.ncc_c`) of every (row, column)
    pair, bitwise."""
    return _shift_reduce(rows, cols, _sbd)


def _sink_matrix(X: np.ndarray, Y: np.ndarray, gamma: float = 5.0) -> np.ndarray:
    rows = series_spectra(X)
    # Only pairwise's self mode shares X's transforms: a Y that merely
    # overlaps X in memory is a different batch of series.
    cols = rows if Y is X else series_spectra(Y)
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
