r"""Incremental (STAMPI-style) matrix profile over an appended stream.

:class:`StreamingMatrixProfile` maintains the self-join matrix profile
of a growing series append by append, extending the batch
:func:`repro.search.matrix_profile` answer instead of recomputing it:

- an append of ``k`` points completes (at most) ``k`` new subsequences.
  Their distance profiles against the whole prefix are computed in row
  blocks of :func:`repro.search.mass.profile_rows` subsequences, one
  :func:`repro.search.mass` call per block — one FFT of the prefix, one
  batched FFT of the block's rows, one batched inverse FFT — fed the
  window statistics that :class:`~repro.streaming.state.StreamState`
  maintains incrementally (bitwise equal to the batch rolling stats);
- each row updates everything that can change: the new subsequence's
  entry is its row's minimum outside the trivial-match exclusion zone,
  and every other entry ``profile[i]`` is lowered to ``row[i]`` where
  the new subsequence is a closer neighbor (the matrix profile only
  ever decreases as data arrives).

**Offer order.** Row by row, entry ``i`` receives one offer per row in
row order: ``(row_j[i], j)`` from every row ``j != i`` and, from its own
row, that row's first-occurrence minimum with its offset; an offer
replaces the held pair only when strictly smaller (so ties keep the
earliest neighbor). A block applies all its rows at once in exactly
that order (see :func:`_fold`), and blocks are applied in row order, so
every profile value and neighbor index is **bitwise** what one ``mass``
call and one update per subsequence give, for every chunking of the
same points.

**Cost.** Each new subsequence costs its share of one O(n log n) FFT
block plus O(n) elementwise work — **amortized O(n·polylog)** per point
and O(n²·log n) for a full replay, the same asymptotic as one batch
computation, *not* the O(n³·log n) of recomputing the batch answer per
point. An append holds one row block's buffers at a time (each about
``PROFILE_BUDGET`` values: ≈1.4 MiB in all for a 64-point append at
n = 8192), never a distance block for the whole append. The benchmark
gate (``benchmarks/bench_streaming.py``) pins both the absolute p99
one-point update latency at 10⁴ points of history and the near-linear
growth.

**Parity invariant.** After replaying any prefix long enough for the
batch path to accept (``n >= 2 * window``), :attr:`profile` matches
``matrix_profile(prefix, window).profile`` within 1e-9 elementwise. The
residual is pure floating-point asymmetry: batch fills row ``i`` from
``mass(subseq_i, series)`` while the incremental path may have learned
the same pair from ``mass(subseq_j, series)`` evaluated at ``i`` —
mathematically the identical z-normalized distance, computed through a
different FFT. One caveat: ``d = sqrt(2q(1 - corr))`` has infinite
slope at ``corr == 1``, so *exact* z-normalized duplicates (true
distance 0) amplify one ulp of correlation difference to ~1e-8 of
distance; in squared-distance space the 1e-9 bound holds everywhere,
and real-valued series never sit on that cliff. Neighbor *indices* can
differ only where two neighbors are equidistant to within the same
tolerance.

Streams shorter than ``2 * window`` — which the batch validator rejects
outright — degrade gracefully instead: entries whose exclusion zone
still swallows every candidate hold ``inf`` with neighbor index ``-1``.
"""

from __future__ import annotations

import numpy as np

from ..search.mass import mass, profile_rows
from ..search.matrix_profile import (
    MatrixProfile,
    exclude_trivial,
    subsequences,
)
from .state import StreamState, _grow

#: Neighbor index recorded while a subsequence has no non-trivial
#: candidate yet (stream shorter than one exclusion zone past it).
NO_NEIGHBOR = -1


class StreamingMatrixProfile:
    """Self-join matrix profile of a stream, maintained per append.

    Parameters
    ----------
    window:
        Subsequence length, as in :func:`repro.search.matrix_profile`.
    capacity:
        Point cap forwarded to the owned :class:`StreamState`.
    state:
        An existing state to build on (must be empty and share
        ``window``); by default the profile owns a fresh one.
    """

    def __init__(
        self,
        window: int,
        capacity: int | None = None,
        *,
        state: StreamState | None = None,
    ):
        if state is None:
            state = StreamState(window, capacity)
        elif state.window != int(window) or state.n:
            raise ValueError(
                "a shared StreamState must be empty and use the same window"
            )
        self.state = state
        self.window = state.window
        #: Trivial-match radius, identical to the batch path.
        self.exclusion = max(1, self.window // 2)
        self._profile = np.zeros(0)
        self._indices = np.zeros(0, dtype=np.intp)
        self._n_sub = 0

    # -- updates -------------------------------------------------------
    def append(self, values) -> int:
        """Append points and fold every new subsequence into the profile.

        Returns the number of points accepted (capacity drops excluded);
        the profile covers exactly the accepted prefix afterwards.
        """
        accepted = self.state.append(values)
        if accepted:
            self._extend()
        return accepted

    def _extend(self) -> None:
        """Fold subsequences ``[self._n_sub, state.n_windows)`` in."""
        n_sub = self.state.n_windows
        if n_sub <= self._n_sub:
            return
        self._profile = _grow(self._profile, n_sub)
        self._indices = _grow(self._indices, n_sub)
        self._profile[self._n_sub : n_sub] = np.inf
        self._indices[self._n_sub : n_sub] = NO_NEIGHBOR
        series = self.state.values
        stats = (self.state.window_means, self.state.window_stds)
        profile = self._profile[:n_sub]
        indices = self._indices[:n_sub]
        rows = profile_rows(series.shape[0], self.window)
        for start in range(self._n_sub, n_sub, rows):
            stop = min(start + rows, n_sub)
            # One MASS block: d(subseq_j, subseq_i) for every i and each
            # new j, with the rolling stats read from the incremental
            # state instead of recomputed.
            block = mass(
                subsequences(series, start, stop, self.window),
                series,
                stats=stats,
            )
            _fold(block, start, self.exclusion, profile, indices)
        self._n_sub = n_sub

    # -- views ---------------------------------------------------------
    @property
    def n_subsequences(self) -> int:
        """Number of profile entries (complete subsequences)."""
        return self._n_sub

    @property
    def profile(self) -> np.ndarray:
        """Current matrix profile (copy; ``inf`` where no candidate yet)."""
        return self._profile[: self._n_sub].copy()

    @property
    def indices(self) -> np.ndarray:
        """Current neighbor offsets (copy; ``-1`` where no candidate yet)."""
        return self._indices[: self._n_sub].copy()

    def latest(self) -> tuple[int, float]:
        """``(offset, profile value)`` of the newest subsequence.

        The detectors' per-append signal; raises ``IndexError`` before
        the first complete subsequence.
        """
        if not self._n_sub:
            raise IndexError("no complete subsequence buffered yet")
        j = self._n_sub - 1
        return j, float(self._profile[j])

    def as_matrix_profile(self) -> MatrixProfile:
        """Snapshot as the batch :class:`~repro.search.MatrixProfile`
        (shares its ``motif()`` / ``discords()`` helpers)."""
        return MatrixProfile(
            profile=self.profile, indices=self.indices, window=self.window
        )

    def to_dict(self) -> dict:
        """JSON-ready snapshot for the ``/stream/<id>/profile`` endpoint."""
        values = self._profile[: self._n_sub]
        profile = values.tolist()
        # JSON has no inf: ship None where no candidate exists yet.
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            profile[i] = None
        return {
            "window": self.window,
            "exclusion": self.exclusion,
            "n": self.state.n,
            "subsequences": self._n_sub,
            "profile": profile,
            "indices": self.indices.tolist(),
        }


def _fold(
    block: np.ndarray,
    start: int,
    exclusion: int,
    profile: np.ndarray,
    indices: np.ndarray,
) -> None:
    """Fold the distance rows of subsequences ``start, start + 1, ...``
    into ``profile``/``indices`` in place, exactly as one row at a time
    would (the module's offer order).

    Under that order an entry ends holding the first offer, in row
    order, that reaches the minimum of its offers, if that minimum beats
    the value it held. Writing each row's own offer into its own column
    (a trivial-match cell, ``inf`` until then) makes those the column
    minimum of *block* and the first row reaching it.
    """
    exclude_trivial(block, start, exclusion)
    rows = block.shape[0]
    own = block.argmin(axis=1)
    # Row r's own column start + r: the diagonal of this column slice.
    np.fill_diagonal(
        block[:, start : start + rows], block[np.arange(rows), own]
    )
    # A one-row block (a one-point append) is its own column minimum;
    # skipping the reduction's copy keeps those appends as cheap as the
    # row-at-a-time fold.
    best = block.min(axis=0) if rows > 1 else block[0]
    better = best < profile
    if better.any():
        cols = np.flatnonzero(better)
        first = (block[:, cols] == best[cols]).argmax(axis=0)
        offers = start + first
        mine = offers == cols
        offers[mine] = own[first[mine]]
        profile[cols] = best[cols]
        indices[cols] = offers
