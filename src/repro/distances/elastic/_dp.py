"""Shared helpers for the dynamic-programming elastic measures.

All elastic measures (paper Section 7) fill an ``m``-by-``n`` matrix with a
recursive formula. Each measure's scalar function is the definition: its
DP loops run over plain Python lists of floats (an order of magnitude
faster than scalar numpy indexing), with the Sakoe-Chiba band bookkeeping
from :func:`band_width`.

All-pairs matrices run on :func:`pairwise_dp` instead, and gathered
lists of pairs (the exact DTW top-k refine's) on :func:`paired_dp`,
which it calls per chunk. Both step one recurrence through many (x, y)
pairs at once along the DP's anti-diagonals: every cell of a diagonal
depends only on the two diagonals before it, so one diagonal of every
pair in a chunk is a few numpy operations. Each measure supplies its boundary row and column and a
vectorized cell rule written in its scalar function's operation order, so
every entry equals the scalar function bitwise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

INF = float("inf")

#: Element budget of one chunk of pairs: a chunk holds at most this many
#: ``pairs x (longest series + 1)`` values per array. :func:`pairwise_dp`
#: keeps a bounded number of such arrays alive (the gathered series, the cell
#: rule's per-row and per-column inputs, three diagonals and the cell
#: rule's temporaries), so its memory stays bounded however many pairs a
#: matrix has.
PAIR_BUDGET = 1 << 15

#: ``setup(xs, ys) -> (row0, col0, rows, cols)`` for one chunk of pairs.
DPSetup = Callable[[np.ndarray, np.ndarray], tuple]
#: ``cell(diag, up, left, *row_inputs, *column_inputs) -> values``.
DPCell = Callable[..., np.ndarray]


def band_width(m: int, n: int, window_pct: float) -> int:
    """Sakoe-Chiba band half-width in points for a window percentage.

    The paper expresses the window ``delta`` as a percentage of the
    time-series length (Table 4): ``delta=10`` allows ``|i - j|`` up to 10%
    of the longer series; ``delta=100`` (or more) is unconstrained;
    ``delta=0`` restricts the warping path to the diagonal. The band is
    always widened to cover the length difference so a path exists.
    """
    longest = max(m, n)
    if window_pct >= 100:
        return longest
    width = int(round(longest * window_pct / 100.0))
    return max(width, abs(m - n))


def as_float_list(x: np.ndarray) -> list[float]:
    """Convert a validated series to a plain list for tight DP loops."""
    return x.tolist()


def _corners(
    setup: DPSetup,
    cell: DPCell,
    xs: np.ndarray,
    ys: np.ndarray,
    band: int | None,
    fill: float,
) -> np.ndarray:
    """Final DP cell of every pair in one chunk (pairs on the last axis).

    ``setup`` receives the chunk's series as ``xs`` ``(m, P)`` and ``ys``
    ``(n, P)`` and returns the boundary row ``row0`` (values of grid cells
    ``(0, 0..N)``), the boundary column ``col0`` (cells ``(0..M, 0)``) and
    two tuples of per-row and per-column cell inputs, indexed by ``i - 1``
    and ``j - 1`` for interior cells ``(i, j)``. Any of them may have a
    single column to broadcast over the pairs. Interior cells outside
    the band ``|i - j| <= band`` are never computed and read as ``fill``.
    """
    n_pairs = xs.shape[1]
    row0, col0, rows, cols = setup(xs, ys)
    M, N = col0.shape[0] - 1, row0.shape[0] - 1
    width = M + N if band is None else band
    # Columns reversed: the inputs of a diagonal's cells (i, d - i), for
    # increasing i, are then one contiguous slice.
    cols = [np.ascontiguousarray(col[::-1]) for col in cols]
    diagonals = [np.empty((M + 1, n_pairs)) for _ in range(3)]
    diagonals[0][0] = row0[0]
    for d in range(1, M + N + 1):
        cur = diagonals[d % 3]
        prev = diagonals[(d - 1) % 3]
        prev2 = diagonals[(d - 2) % 3]
        lo = max(1, d - N, (d - width + 1) // 2)
        hi = min(M, d - 1, (d + width) // 2)
        # The next two diagonals read at most one cell past either end of
        # this one's computed run: out-of-band cells, or the boundary.
        cur[lo - 1] = fill
        if hi < M:
            cur[hi + 1] = fill
        if d <= N:
            cur[0] = row0[d]
        if d <= M:
            cur[d] = col0[d]
        if lo <= hi:
            k = N - d
            cur[lo : hi + 1] = cell(
                prev2[lo - 1 : hi],
                prev[lo - 1 : hi],
                prev[lo : hi + 1],
                *(row[lo - 1 : hi] for row in rows),
                *(col[k + lo : k + hi + 1] for col in cols),
            )
    return diagonals[(M + N) % 3][M].copy()


def pair_step(m: int, n: int) -> int:
    """Pairs of series of lengths ``m`` and ``n`` in one chunk."""
    return max(1, PAIR_BUDGET // (max(m, n) + 1))


def _pair_indices(
    n_x: int, n_y: int, triangle: bool, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of flat pairs ``start..stop-1``, enumerated row by
    row over the whole matrix or over its upper triangle with diagonal."""
    flat = np.arange(start, stop)
    if not triangle:
        return np.divmod(flat, n_y)
    rows = np.arange(n_x)
    row_start = rows * n_x - rows * (rows - 1) // 2
    a = np.searchsorted(row_start, flat, side="right") - 1
    return a, a + flat - row_start[a]


def pairwise_dp(
    X: np.ndarray,
    Y: np.ndarray,
    setup: DPSetup,
    cell: DPCell,
    *,
    band: int | None = None,
    fill: float = INF,
) -> np.ndarray:
    """Final DP cell ``D[i, j]`` of the recurrence for ``(X[i], Y[j])``.

    The pair-batched DP behind the elastic measures' matrix kernels
    (see :func:`_corners` for the ``setup``/``cell`` contract). When
    ``Y is X`` — :meth:`~repro.distances.base.DistanceMeasure.pairwise`'s
    self mode — only the upper triangle with its diagonal is computed and
    mirrored, as the generic pairwise loop does for symmetric measures.
    Pairs are processed in chunks of at most :data:`PAIR_BUDGET` values
    per ``pairs x length`` array.
    """
    n_x, n_y = X.shape[0], Y.shape[0]
    triangle = Y is X
    count = n_x * (n_x + 1) // 2 if triangle else n_x * n_y
    step = pair_step(X.shape[1], Y.shape[1])
    out = np.empty((n_x, n_y), dtype=np.float64)
    for start in range(0, count, step):
        a, b = _pair_indices(n_x, n_y, triangle, start, min(start + step, count))
        values = paired_dp(X[a], Y[b], setup, cell, band=band, fill=fill)
        out[a, b] = values
        if triangle:
            out[b, a] = values
    return out


def paired_dp(
    A: np.ndarray,
    B: np.ndarray,
    setup: DPSetup,
    cell: DPCell,
    *,
    band: int | None = None,
    fill: float = INF,
) -> np.ndarray:
    """Final DP cell of the recurrence for each row pair ``(A[i], B[i])``,
    in chunks of at most :data:`PAIR_BUDGET` values per ``pairs x
    length`` array (the ``setup``/``cell`` contract of :func:`_corners`)."""
    out = np.empty(A.shape[0], dtype=np.float64)
    step = pair_step(A.shape[1], B.shape[1])
    for start in range(0, A.shape[0], step):
        xs = np.ascontiguousarray(A[start : start + step].T)
        ys = np.ascontiguousarray(B[start : start + step].T)
        out[start : start + step] = _corners(setup, cell, xs, ys, band, fill)
    return out
