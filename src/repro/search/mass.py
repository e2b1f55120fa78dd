r"""MASS — Mueen's Algorithm for Similarity Search (paper reference [103]).

Section 6 cites Mueen et al.'s "Fastest Similarity Search Algorithm for
Time Series Subsequences under Euclidean Distance" when noting that
maximizing correlation *is* minimizing z-normalized ED. MASS computes the
**distance profile** — the z-normalized ED between a query of length ``q``
and every subsequence of a long series of length ``n`` — in
:math:`O(n \log n)` via the same FFT cross-correlation machinery as the
sliding measures:

.. math::
    d(i)^2 = 2 q \left(1 - \frac{QT_i - q\,\mu_i\,\mu_Q}
                                 {q\,\sigma_i\,\sigma_Q}\right)

where :math:`QT_i` is the sliding dot product and :math:`\mu_i, \sigma_i`
are rolling window statistics. This is the substrate for the matrix
profile (motif and anomaly discovery, paper references [157, 158]).
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .._validation import EPS, as_series
from ..exceptions import ValidationError


def sliding_dot_product(query: np.ndarray, series: np.ndarray) -> np.ndarray:
    """All dot products of *query* against subsequences of *series*.

    Returns ``QT`` with ``QT[i] = sum_j query[j] * series[i + j]`` for
    ``i = 0 .. n - q``, computed via one FFT convolution.
    """
    query = as_series(query, "query")
    series = as_series(series, "series")
    q, n = query.shape[0], series.shape[0]
    if q > n:
        raise ValidationError(
            f"query (length {q}) longer than series (length {n})"
        )
    nfft = next_fast_len(n + q - 1, real=True)
    conv = irfft(rfft(series, nfft) * rfft(query[::-1], nfft), nfft)
    # Convolution with the reversed query aligns index q-1+i with QT[i].
    return conv[q - 1 : n]


def clamped_window_stats(sums, sums2, window: int):
    """Mean and std from length-``window`` totals, variance clamped at 0.

    ``sums`` / ``sums2`` are window totals of the values and of their
    squares (scalars or arrays). In exact arithmetic
    ``E[x^2] - E[x]^2 >= 0``, but for a large-offset, nearly-constant
    window the two totals agree in most of their significant digits and
    catastrophic cancellation can push the subtraction a few ulps below
    zero — the clamp keeps the sqrt defined instead of returning NaN.
    Both the batch :func:`rolling_mean_std` and the streaming
    incremental statistics (:class:`repro.streaming.StreamState`) route
    through this one guard, so the two paths share identical numerics.
    """
    mean = sums / window
    variance = np.maximum(sums2 / window - mean * mean, 0.0)
    return mean, np.sqrt(variance)


def rolling_mean_std(series: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Rolling mean and standard deviation of every length-``window``
    subsequence, via cumulative sums (O(n)).

    Negative variances produced by catastrophic cancellation (large
    offset, tiny spread) are clamped to 0.0 before the square root —
    see :func:`clamped_window_stats`.
    """
    series = as_series(series, "series")
    n = series.shape[0]
    if not 1 <= window <= n:
        raise ValidationError(f"window must be in [1, {n}], got {window}")
    csum = np.concatenate(([0.0], np.cumsum(series)))
    csum2 = np.concatenate(([0.0], np.cumsum(series * series)))
    sums = csum[window:] - csum[:-window]
    sums2 = csum2[window:] - csum2[:-window]
    return clamped_window_stats(sums, sums2, window)


def mass(
    query: np.ndarray,
    series: np.ndarray,
    *,
    stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Z-normalized ED distance profile of *query* over *series*.

    Flat (constant) subsequences have no shape: against a non-constant
    query they sit at the theoretical maximum ``sqrt(2q)``; a constant
    query matches them at distance 0.

    ``stats`` optionally supplies the precomputed ``(means, stds)``
    rolling window statistics of *series* (exactly what
    :func:`rolling_mean_std` returns). Callers that maintain those
    incrementally — the streaming matrix profile appends one window's
    statistics per point — skip the O(n) recomputation; the arithmetic
    downstream is identical either way.
    """
    query = as_series(query, "query")
    series = as_series(series, "series")
    q = query.shape[0]
    sigma_q = float(query.std())
    mu_q = float(query.mean())
    if stats is None:
        means, stds = rolling_mean_std(series, q)
    else:
        means, stds = stats
        expected = series.shape[0] - q + 1
        if means.shape[0] != expected or stds.shape[0] != expected:
            raise ValidationError(
                f"stats must hold {expected} window statistics "
                f"(n - q + 1), got {means.shape[0]}/{stds.shape[0]}"
            )
    if sigma_q < EPS:
        # Constant query: matches exactly the constant subsequences.
        profile = np.where(stds < EPS, 0.0, np.sqrt(2.0 * q))
        return profile.astype(np.float64)
    qt = sliding_dot_product(query, series)
    denom = q * stds * sigma_q
    corr = np.where(
        denom < EPS,
        0.0,  # flat window: zero correlation with any shape
        (qt - q * means * mu_q) / np.maximum(denom, EPS),
    )
    corr = np.clip(corr, -1.0, 1.0)
    return np.sqrt(2.0 * q * (1.0 - corr))


def best_match(query: np.ndarray, series: np.ndarray) -> tuple[int, float]:
    """Offset and distance of the best z-normalized match of *query*.

    Tie-breaking is deterministic: on equal distances the **lowest
    offset wins** (``np.argmin`` returns the first occurrence). Replays
    of the same data therefore always report the same match — the
    property the streaming alert replays rely on.
    """
    profile = mass(query, series)
    idx = int(np.argmin(profile))
    return idx, float(profile[idx])


def top_k_matches(
    query: np.ndarray,
    series: np.ndarray,
    *,
    k: int = 3,
    exclusion: int | None = None,
) -> list[tuple[int, float]]:
    """Top-*k* non-overlapping matches of *query* in *series*.

    ``exclusion`` is the no-repeat radius around each hit (defaults to
    half the query length, the usual trivial-match guard).

    Tie-breaking is deterministic: every selection round picks the
    **lowest offset** among equally-distant candidates (``np.argmin``
    first-occurrence), so repeated runs — and streaming alert replays —
    yield identical hit lists.
    """
    query = as_series(query, "query")
    profile = mass(query, series).copy()
    radius = exclusion if exclusion is not None else max(1, query.shape[0] // 2)
    hits: list[tuple[int, float]] = []
    for _ in range(k):
        idx = int(np.argmin(profile))
        if not np.isfinite(profile[idx]):
            break
        hits.append((idx, float(profile[idx])))
        lo = max(0, idx - radius)
        hi = min(profile.shape[0], idx + radius + 1)
        profile[lo:hi] = np.inf
    return hits
