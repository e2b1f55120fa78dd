r"""Matrix profile — motif and discord discovery (paper refs [157, 158]).

The matrix profile stores, for every subsequence of a series, the
z-normalized ED to its nearest non-trivial neighbor. Its minima are
**motifs** (repeated patterns) and its maxima are **discords** (anomalies)
— two of the tasks the paper's introduction lists as fueled by distance
measures. :func:`matrix_profile` computes it in :math:`O(n^2 \log n)`:
one :func:`~repro.search.mass.mass` call per row block of
:func:`~repro.search.mass.profile_rows` subsequences, over rolling
window statistics taken once; each row's trivial-match exclusion zone
is blanked and its first-occurrence minimum kept. Every entry and
neighbor index is bitwise what one ``mass`` call per subsequence gives.
The streaming profile (:mod:`repro.streaming.profile`) folds the same
row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_series
from ..exceptions import ValidationError
from .mass import mass, profile_rows, rolling_mean_std


@dataclass(frozen=True)
class MatrixProfile:
    """Self-join matrix profile of one series.

    Attributes
    ----------
    profile:
        Distance to the nearest non-trivial neighbor per subsequence.
    indices:
        Offset of that neighbor.
    window:
        Subsequence length the profile was computed for.
    """

    profile: np.ndarray
    indices: np.ndarray
    window: int

    def motif(self) -> tuple[int, int, float]:
        """Best motif: ``(offset_a, offset_b, distance)`` of the closest
        non-trivial subsequence pair."""
        a = int(np.argmin(self.profile))
        return a, int(self.indices[a]), float(self.profile[a])

    def discords(self, k: int = 1) -> list[tuple[int, float]]:
        """Top-*k* discords (most isolated subsequences), non-overlapping."""
        working = self.profile.copy()
        radius = max(1, self.window // 2)
        out: list[tuple[int, float]] = []
        for _ in range(k):
            idx = int(np.argmax(working))
            if not np.isfinite(working[idx]) or working[idx] < 0:
                break
            out.append((idx, float(self.profile[idx])))
            lo = max(0, idx - radius)
            hi = min(working.shape[0], idx + radius + 1)
            working[lo:hi] = -np.inf
        return out


def matrix_profile(series, window: int) -> MatrixProfile:
    """Self-join matrix profile with exclusion zone ``window // 2``.

    >>> import numpy as np
    >>> t = np.sin(np.linspace(0, 8 * np.pi, 200))
    >>> mp = matrix_profile(t, window=25)
    >>> mp.motif()[2] < 1.0  # a periodic signal repeats itself closely
    True
    """
    series = as_series(series, "series")
    n = series.shape[0]
    if not 2 <= window <= n // 2:
        raise ValidationError(
            f"window must be in [2, n // 2 = {n // 2}], got {window}"
        )
    n_sub = n - window + 1
    exclusion = max(1, window // 2)
    stats = rolling_mean_std(series, window)
    rows = profile_rows(n, window)
    profile = np.empty(n_sub)
    indices = np.empty(n_sub, dtype=np.intp)
    for start in range(0, n_sub, rows):
        stop = min(start + rows, n_sub)
        windows = subsequences(series, start, stop, window)
        block = mass(windows, series, stats=stats)
        exclude_trivial(block, start, exclusion)
        best = block.argmin(axis=1)
        indices[start:stop] = best
        profile[start:stop] = block[np.arange(stop - start), best]
    return MatrixProfile(profile=profile, indices=indices, window=window)


def subsequences(
    series: np.ndarray, start: int, stop: int, window: int
) -> np.ndarray:
    """``(stop - start, window)`` view of the length-``window``
    subsequences starting at ``start .. stop - 1`` of a contiguous 1-D
    *series* (numpy rejects a range past its end)."""
    step = series.itemsize
    return np.ndarray(
        (stop - start, window),
        series.dtype,
        buffer=series,
        offset=start * step,
        strides=(step, step),
    )


def exclude_trivial(block: np.ndarray, start: int, exclusion: int) -> None:
    """Blank each row's trivial matches with ``inf``, in place.

    Row ``r`` of *block* is the distance profile of subsequence
    ``start + r``; offsets within ``exclusion`` of it are trivial.
    """
    n_sub = block.shape[1]
    for r, j in enumerate(range(start, start + block.shape[0])):
        lo, hi = max(0, j - exclusion), min(n_sub, j + exclusion + 1)
        block[r, lo:hi] = np.inf
