"""Append-only stream state with incremental window statistics.

:class:`StreamState` is the storage core of the streaming subsystem: a
growable (amortized-doubling) buffer of float64 points with a hard
capacity cap, plus the rolling statistics every consumer above it needs,
maintained **incrementally**:

- per-window mean/std of every length-``window`` subsequence, extended
  in O(1) per appended point from running cumulative sums. The
  arithmetic is point-for-point identical to the batch
  :func:`repro.search.rolling_mean_std` (``np.cumsum`` accumulates
  sequentially, exactly like the per-point additions here, and both
  paths share the :func:`repro.search.clamped_window_stats` negative-
  variance guard), so after replaying any prefix the incremental arrays
  are **bitwise equal** to the batch ones — the invariant the streaming
  matrix profile's 1e-9 parity gate is built on;
- whole-stream mean/variance via Welford's update (numerically stable
  over arbitrarily long streams), reported in the stream's counters.

Appends past the capacity cap are *dropped*, never resized away: the
stream keeps its prefix semantics (indices are stable forever) and the
drop count is surfaced as a counter, mirroring how the serving layer
sheds load instead of queueing unboundedly.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import StreamingError, ValidationError
from ..search.mass import clamped_window_stats

#: Default hard cap on buffered points per stream (~8 MiB of float64).
DEFAULT_CAPACITY = 1_000_000

#: Initial allocation of the growable buffers.
_INITIAL_ALLOC = 256


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` with capacity >= ``needed`` (amortized doubling)."""
    if array.shape[0] >= needed:
        return array
    new_size = max(array.shape[0], _INITIAL_ALLOC)
    while new_size < needed:
        new_size *= 2
    grown = np.zeros(new_size, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class StreamState:
    """One stream's buffered points and incremental statistics.

    Parameters
    ----------
    window:
        Subsequence length the per-window statistics are maintained for
        (also the matrix-profile window above this state). Must be >= 2.
    capacity:
        Hard cap on buffered points; appends past it are dropped and
        counted in :attr:`dropped`. ``None`` means the default cap
        (:data:`DEFAULT_CAPACITY`), never unbounded.
    """

    def __init__(self, window: int, capacity: int | None = None):
        window = int(window)
        if window < 2:
            raise StreamingError(f"window must be >= 2, got {window}")
        capacity = DEFAULT_CAPACITY if capacity is None else int(capacity)
        if capacity < 2 * window:
            raise StreamingError(
                f"capacity must be >= 2 * window = {2 * window}, got {capacity}"
            )
        self.window = window
        self.capacity = capacity
        self._n = 0
        self._values = np.zeros(_INITIAL_ALLOC)
        # _csum[i] = sum(values[:i]); one leading zero like the batch path.
        self._csum = np.zeros(_INITIAL_ALLOC + 1)
        self._csum2 = np.zeros(_INITIAL_ALLOC + 1)
        self._means = np.zeros(_INITIAL_ALLOC)
        self._stds = np.zeros(_INITIAL_ALLOC)
        #: Points rejected because the capacity cap was reached.
        self.dropped = 0
        # Welford accumulators over the whole stream.
        self._w_mean = 0.0
        self._w_m2 = 0.0

    # -- appends -------------------------------------------------------
    def append(self, values) -> int:
        """Append points; returns how many were accepted.

        Points past :attr:`capacity` are dropped (and counted), not
        buffered — the stream's existing indices stay valid forever.
        Raises :class:`ValidationError` on non-finite input.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError("stream points must be finite")
        room = self.capacity - self._n
        accepted = arr[:room] if arr.size > room else arr
        self.dropped += arr.size - accepted.size
        if not accepted.size:
            return 0
        n_new = self._n + accepted.size
        self._values = _grow(self._values, n_new)
        self._csum = _grow(self._csum, n_new + 1)
        self._csum2 = _grow(self._csum2, n_new + 1)
        self._means = _grow(self._means, max(n_new - self.window + 1, 1))
        self._stds = _grow(self._stds, max(n_new - self.window + 1, 1))
        w = self.window
        for v in accepted:
            v = float(v)
            n = self._n
            self._values[n] = v
            # Sequential accumulation == np.cumsum of the whole prefix,
            # so these stay bitwise equal to the batch cumulative sums.
            self._csum[n + 1] = self._csum[n] + v
            self._csum2[n + 1] = self._csum2[n] + v * v
            self._n = n + 1
            if self._n >= w:
                s = self._n - w  # newest window's start offset
                sums = self._csum[self._n] - self._csum[s]
                sums2 = self._csum2[self._n] - self._csum2[s]
                mean, std = clamped_window_stats(sums, sums2, w)
                self._means[s] = mean
                self._stds[s] = std
            # Welford, for the stable whole-stream baseline.
            delta = v - self._w_mean
            self._w_mean += delta / self._n
            self._w_m2 += delta * (v - self._w_mean)
        return int(accepted.size)

    # -- views ---------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of buffered points."""
        return self._n

    @property
    def n_windows(self) -> int:
        """Number of complete length-``window`` subsequences buffered."""
        return max(self._n - self.window + 1, 0)

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the buffered points."""
        view = self._values[: self._n]
        view.flags.writeable = False
        return view

    @property
    def window_means(self) -> np.ndarray:
        """Mean of every complete window (bitwise == batch rolling stats)."""
        view = self._means[: self.n_windows]
        view.flags.writeable = False
        return view

    @property
    def window_stds(self) -> np.ndarray:
        """Std of every complete window (clamped, == batch rolling stats)."""
        view = self._stds[: self.n_windows]
        view.flags.writeable = False
        return view

    def latest_window(self, length: int | None = None) -> np.ndarray:
        """The newest ``length`` points (default: one window)."""
        length = self.window if length is None else int(length)
        if length < 1 or length > self._n:
            raise StreamingError(
                f"latest_window needs 1 <= length <= {self._n}, got {length}"
            )
        view = self._values[self._n - length : self._n]
        view.flags.writeable = False
        return view

    # -- whole-stream statistics (Welford) -----------------------------
    @property
    def mean(self) -> float:
        """Mean of every point seen (stable over long streams)."""
        return self._w_mean if self._n else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of every point seen."""
        if self._n < 2:
            return 0.0
        return math.sqrt(max(self._w_m2 / self._n, 0.0))

    def to_dict(self) -> dict:
        """Counter snapshot for /metrics and the CLI summary."""
        return {
            "n": self._n,
            "window": self.window,
            "capacity": self.capacity,
            "subsequences": self.n_windows,
            "dropped": self.dropped,
            "mean": self.mean,
            "std": self.std,
        }
