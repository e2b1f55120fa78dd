r"""Sliding measures (paper Section 6): 4 cross-correlation variants.

Cross-correlation maximizes the correlation (equivalently minimizes ED)
between one series and every shifted version of the other. Computing the
full cross-correlation sequence :math:`CC_w(\vec x, \vec y)` naively costs
:math:`O(m^2)`; Eq. (10) of the paper uses the FFT to reduce it to
:math:`O(m \log m)`:

.. math::
    CC_w(\vec x, \vec y) = \mathcal{F}^{-1}\{\mathcal{F}(\vec x)
        \cdot \overline{\mathcal{F}(\vec y)}\}

(the published equation omits the conjugate that distinguishes correlation
from convolution; the test suite pins our FFT path to the naive definition).

From the sequence, Eq. (11) derives the 4 variants evaluated in Table 3:

- ``NCC``   — raw maximum, assumes some prior normalization;
- ``NCC_b`` — biased estimator, divides by :math:`m`;
- ``NCC_u`` — unbiased estimator, divides by :math:`m - |w - m|`;
- ``NCC_c`` — coefficient normalization, divides by
  :math:`\|x\|\,\|y\|`; as a distance (:math:`1 - \max`) this is the
  Shape-Based Distance (SBD) of k-Shape [110].

All four are exposed as dissimilarities. NCC_c is bounded in ``[0, 2]``;
the other three are unbounded similarities, negated.

The scalar functions are the definition. Every all-pairs path — the
registered matrix kernels, the served sliding route and GRAIL's SBD
landmark selection — runs one routine, :func:`reduce_shifts`, over one
spectra type, :class:`SlidingReference` (each series' conjugated FFT and
norm, taken once per batch or once per served reference set). Norms are
last-axis reductions (:func:`norm`) and NCC_c's zero rule is per pair, so
every matrix entry is bitwise the scalar function's.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from ..._validation import as_pair, guarded_divide
from ..base import DistanceMeasure, register_measure

#: Element budget of one cross-correlation block: a block's spectrum
#: products and inverse transforms hold at most this many values each
#: (``rows x columns x nfft``). Whole rows of columns fill a block first,
#: so a serving batch of 4 queries against 500 length-128 references
#: (4 x 500 x 256 values) is one block; against a large reference set a
#: block splits the columns.
CC_BUDGET = 1 << 19


def cross_correlation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full cross-correlation sequence of length ``m + n - 1`` via FFT.

    Entry ``s + (n - 1)`` holds the inner product of *x* with *y* shifted
    by ``s`` positions, for shifts ``s = -(n-1) .. (m-1)`` (zero-padded,
    matching the paper's description of shifting). For the paper's
    equal-length setting this is the ``2m - 1`` sequence of Section 6;
    unequal lengths are supported as the paper notes they can be.
    """
    x, y = as_pair(x, y, require_equal_length=False)
    m, n = x.shape[0], y.shape[0]
    nfft = next_fast_len(m + n - 1, real=True)
    cc = irfft(rfft(x, nfft) * np.conj(rfft(y, nfft)), nfft)
    # Rearrange circular output into shift order -(n-1) .. (m-1).
    if n == 1:
        return cc[:m].copy()
    return np.concatenate((cc[-(n - 1):], cc[:m]))


def cross_correlation_naive(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """O(m^2) reference implementation of :func:`cross_correlation`.

    Kept for the FFT-vs-naive ablation bench and as the correctness oracle
    in the test suite.
    """
    x, y = as_pair(x, y, require_equal_length=False)
    m, n = x.shape[0], y.shape[0]
    out = np.empty(m + n - 1, dtype=np.float64)
    for idx, shift in enumerate(range(-(n - 1), m)):
        if shift >= 0:
            overlap = min(m - shift, n)
            out[idx] = float(np.dot(x[shift : shift + overlap], y[:overlap]))
        else:
            overlap = min(n + shift, m)
            out[idx] = float(np.dot(x[:overlap], y[-shift : -shift + overlap]))
    return out


def _shift_counts(m: int, n: int | None = None) -> np.ndarray:
    """Overlap length per shift (the unbiased divisor): ``m - |s|`` in the
    equal-length case, ``min(m - s, n, m, n + s)`` in general."""
    if n is None:
        n = m
    shifts = np.arange(-(n - 1), m)
    return np.minimum.reduce([
        np.full_like(shifts, min(m, n)),
        m - shifts,
        n + shifts,
    ])


def ncc(x: np.ndarray, y: np.ndarray) -> float:
    r"""Raw variant: :math:`-\max_w CC_w(x, y)`."""
    return float(-cross_correlation(x, y).max())


def ncc_b(x: np.ndarray, y: np.ndarray) -> float:
    r"""Biased estimator: :math:`-\max_w CC_w(x, y) / m`
    (``max(m, n)`` for unequal lengths)."""
    x, y = as_pair(x, y, require_equal_length=False)
    longest = max(x.shape[0], y.shape[0])
    return float(-cross_correlation(x, y).max() / longest)


def ncc_u(x: np.ndarray, y: np.ndarray) -> float:
    r"""Unbiased estimator: :math:`-\max_w CC_w(x, y) / (m - |w - m|)`.

    Dividing by the overlap length overweights extreme shifts, which is
    why the paper finds NCC_u the weakest variant (Section 6).
    """
    x, y = as_pair(x, y, require_equal_length=False)
    cc = cross_correlation(x, y)
    return float(-(cc / _shift_counts(x.shape[0], y.shape[0])).max())


def ncc_c(x: np.ndarray, y: np.ndarray) -> float:
    r"""Coefficient normalization / SBD:
    :math:`1 - \max_w CC_w(x, y) / (\|x\| \|y\|)`, and 1 when
    :math:`\|x\|\,\|y\| <` ``EPS`` (no shape to compare).

    The paper's strongest parameter-free baseline: beats every lock-step
    measure (Section 6) and most elastic measures in the unsupervised
    setting (Section 7).
    """
    x, y = as_pair(x, y, require_equal_length=False)
    return float(_sbd(cross_correlation(x, y), norm(x) * norm(y)))


def norm(X: np.ndarray) -> np.ndarray:
    """``‖x‖`` along the last axis: one pairwise-summed reduction per row,
    so a series' norm is the same alone or in a batch (BLAS
    ``np.linalg.norm`` does not promise that)."""
    return np.sqrt((X * X).sum(axis=-1))


def _sbd(cc: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """NCC_c over the last axis of shift-ordered ``cc`` given ``‖x‖‖y‖``:
    the one zero rule, 1 where ``denom < EPS``."""
    return 1.0 - guarded_divide(cc.max(axis=-1), denom)


#: Alias used throughout the k-Shape literature.
sbd = ncc_c


def best_shift(x: np.ndarray, y: np.ndarray) -> int:
    """Shift of *y* maximizing the (coefficient-normalized) correlation.

    Used by alignment-aware consumers (e.g. the SIDL embedding) to align
    *y* against *x* before averaging.
    """
    x, y = as_pair(x, y, require_equal_length=False)
    cc = cross_correlation(x, y)
    return int(np.argmax(cc) - (y.shape[0] - 1))


class SlidingReference(NamedTuple):
    """Each series' conjugated spectrum and norm, taken once per batch.

    The state every all-pairs sliding and SINK kernel shares. Fitting it
    once per reference set (the serving-artifact pattern) removes the
    reference-side FFT and conjugate from every query batch while keeping
    the arithmetic — and therefore the float results — identical to the
    one-shot matrix path, which builds the same structure internally.
    """

    length: int
    nfft: int
    fft_conj: np.ndarray  #: ``conj(rfft(Y, nfft, axis=1))``, shape (n, nfft//2+1)
    norms: np.ndarray  #: :func:`norm` of each row, shape (n,)

    def take(self, index: int | np.ndarray) -> "SlidingReference":
        """The spectra of the series at ``index`` (an int or index array)."""
        index = np.atleast_1d(index)
        return self._replace(fft_conj=self.fft_conj[index], norms=self.norms[index])


def sliding_reference(Y: np.ndarray) -> SlidingReference:
    """Build the :class:`SlidingReference` of an ``(n, m)`` batch."""
    Y = np.asarray(Y, dtype=np.float64)
    m = Y.shape[1]
    nfft = next_fast_len(2 * m - 1, real=True)
    return SlidingReference(m, nfft, np.conj(rfft(Y, nfft, axis=1)), norm(Y))


def shift_order(cc: np.ndarray, m: int) -> np.ndarray:
    """Rearrange circular equal-length cross-correlation output (last axis)
    into shift order ``-(m-1) .. (m-1)``."""
    if m > 1:
        return np.concatenate((cc[..., -(m - 1):], cc[..., :m]), axis=-1)
    return cc[..., :1]


def cc_blocks(
    fx: np.ndarray, fy_conj: np.ndarray, nfft: int, m: int
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Shift-ordered cross-correlation of every (row, column) spectrum pair.

    The batched core of every all-pairs sliding and SINK kernel: multiply
    blocks of the row spectra ``fx`` (``rfft`` of length-``m`` series,
    ``nfft`` points) against blocks of the conjugated column spectra
    ``fy_conj``, inverse-transform each block in one batched ``irfft`` and
    put it in shift order. Blocks span rows and columns under
    :data:`CC_BUDGET`. Yields ``(rows, cols, cc)`` with two slices and
    ``cc`` of shape ``(n_rows, n_cols, 2m - 1)`` for the block; each pair's
    sequence carries the arithmetic of :func:`cross_correlation` for that
    pair, whatever the blocking.
    """
    n_rows, n_cols = fx.shape[0], fy_conj.shape[0]
    per_row = n_cols * nfft
    if per_row <= CC_BUDGET:
        row_step, col_step = CC_BUDGET // per_row, n_cols
    else:
        row_step, col_step = 1, max(1, CC_BUDGET // nfft)
    for r0 in range(0, n_rows, row_step):
        rows = slice(r0, min(r0 + row_step, n_rows))
        for c0 in range(0, n_cols, col_step):
            cols = slice(c0, min(c0 + col_step, n_cols))
            cc = irfft(fx[rows, None, :] * fy_conj[None, cols, :], nfft, axis=2)
            yield rows, cols, shift_order(cc, m)


def reduce_shifts(
    X: np.ndarray | SlidingReference,
    reference: SlidingReference,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """The one all-pairs routine of the sliding and SINK kernels.

    ``reduce(cc, denom)`` collapses the shift axis of each
    :func:`cc_blocks` block of cross-correlations ``cc`` ``(block rows,
    block columns, 2m - 1)`` given the matching ``‖x‖‖y‖`` products. The
    rows are the series ``X`` (FFT'd here) or, when a caller reduces the
    same rows against many references, their :class:`SlidingReference`.
    """
    if isinstance(X, SlidingReference):
        m, fx, norms = X.length, np.conj(X.fft_conj), X.norms
    else:
        X = np.asarray(X, dtype=np.float64)
        m, fx, norms = X.shape[1], rfft(X, reference.nfft, axis=1), norm(X)
    if m != reference.length:
        raise ValueError(
            f"query length {m} != reference length {reference.length}"
        )
    out = np.empty((fx.shape[0], reference.fft_conj.shape[0]), dtype=np.float64)
    for rows, cols, cc in cc_blocks(fx, reference.fft_conj, reference.nfft, m):
        out[rows, cols] = reduce(cc, norms[rows, None] * reference.norms[None, cols])
    return out


def cc_max_from_reference(
    X: np.ndarray,
    reference: SlidingReference,
    divisor: str = "none",
) -> np.ndarray:
    """Max cross-correlation of every row of ``X`` against a reference,
    optionally divided by the unbiased overlap counts first."""
    if divisor == "unbiased":
        counts = _shift_counts(reference.length)
        return reduce_shifts(X, reference, lambda cc, _: (cc / counts).max(axis=-1))
    return reduce_shifts(X, reference, lambda cc, _: cc.max(axis=-1))


def ncc_c_matrix_from_reference(
    X: np.ndarray | SlidingReference, reference: SlidingReference
) -> np.ndarray:
    """NCC_c (SBD) of every row of ``X`` against a reference: the
    registered ``nccc`` matrix kernel, the served NCC_c route and GRAIL's
    landmark selection, bitwise :func:`ncc_c` pair by pair."""
    return reduce_shifts(X, reference, _sbd)


def _ncc_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return -cc_max_from_reference(X, sliding_reference(Y))


def _ncc_b_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return -cc_max_from_reference(X, sliding_reference(Y)) / X.shape[1]


def _ncc_u_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return -cc_max_from_reference(X, sliding_reference(Y), "unbiased")


def _ncc_c_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return ncc_c_matrix_from_reference(X, sliding_reference(Y))


NCC = register_measure(
    DistanceMeasure(
        name="ncc",
        label="NCC",
        category="sliding",
        family="sliding",
        func=ncc,
        matrix_func=_ncc_matrix,
        complexity="O(m log m)",
        equal_length_only=False,
        description="Negated max cross-correlation (assumes normalization).",
    )
)

NCC_B = register_measure(
    DistanceMeasure(
        name="nccb",
        label="NCC_b",
        category="sliding",
        family="sliding",
        func=ncc_b,
        matrix_func=_ncc_b_matrix,
        complexity="O(m log m)",
        equal_length_only=False,
        aliases=("ncc_b",),
        description="Biased-estimator cross-correlation.",
    )
)

NCC_U = register_measure(
    DistanceMeasure(
        name="nccu",
        label="NCC_u",
        category="sliding",
        family="sliding",
        func=ncc_u,
        matrix_func=_ncc_u_matrix,
        complexity="O(m log m)",
        equal_length_only=False,
        aliases=("ncc_u",),
        description="Unbiased-estimator cross-correlation (weakest variant).",
    )
)

NCC_C = register_measure(
    DistanceMeasure(
        name="nccc",
        label="NCC_c (SBD)",
        category="sliding",
        family="sliding",
        func=ncc_c,
        matrix_func=_ncc_c_matrix,
        complexity="O(m log m)",
        equal_length_only=False,
        aliases=("ncc_c", "sbd", "shapebaseddistance"),
        description="Shape-based distance; the paper's strongest baseline.",
    )
)
