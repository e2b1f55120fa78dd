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

from .._validation import EPS, as_dataset, as_series
from ..exceptions import ValidationError


#: Values one MASS block holds per FFT buffer: a block of query rows
#: over a length-``n`` series takes ``PROFILE_BUDGET // nfft`` rows (see
#: :func:`profile_rows`), so its spectra, its ``irfft`` output and its
#: distance rows stay cache-sized however long the series grows.
PROFILE_BUDGET = 1 << 16


def profile_rows(n: int, q: int) -> int:
    """Query rows per :func:`mass` block over a length-``n`` series.

    ``q`` is the query length; the FFT length is the one
    :func:`sliding_dot_product` uses. At least one row.
    """
    return max(1, PROFILE_BUDGET // next_fast_len(n + q - 1, real=True))


def _sliding_dots(block: np.ndarray, series: np.ndarray) -> np.ndarray:
    """``QT`` rows of a ``(B, q)`` query block, as a ``(B, n - q + 1)``
    view of one batched ``irfft`` output (one ``rfft`` of *series*, one
    batched ``rfft`` of the reversed rows)."""
    q, n = block.shape[1], series.shape[0]
    if q > n:
        raise ValidationError(
            f"query (length {q}) longer than series (length {n})"
        )
    nfft = next_fast_len(n + q - 1, real=True)
    spectra = rfft(block[:, ::-1], nfft, axis=-1)
    np.multiply(rfft(series, nfft), spectra, out=spectra)
    # Convolution with the reversed query aligns index q-1+i with QT[i].
    return irfft(spectra, nfft, axis=-1)[:, q - 1 : n]


def sliding_dot_product(query: np.ndarray, series: np.ndarray) -> np.ndarray:
    """All dot products of *query* against subsequences of *series*.

    Returns ``QT`` with ``QT[i] = sum_j query[j] * series[i + j]`` for
    ``i = 0 .. n - q``, computed via one FFT convolution.
    """
    query = as_series(query, "query")
    series = as_series(series, "series")
    return _sliding_dots(query[None, :], series)[0]


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

    A 1-D *query* of length ``q`` returns the 1-D profile of its
    ``n - q + 1`` subsequence distances. A 2-D *query* is always a
    ``(B, q)`` block of queries — ``B = 1`` included, so a ``(1, q)``
    array is one query and a ``(q, 1)`` array is ``q`` length-1 queries —
    and returns the ``(B, n - q + 1)`` profiles, one per row. The block
    shares one ``rfft`` of *series*, one batched ``rfft`` and one batched
    ``irfft``; each row is bitwise the 1-D call on that row. Callers
    keep ``B`` at most :func:`profile_rows` to keep the block cache-sized.

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
    series = as_series(series, "series")
    single = np.ndim(query) != 2
    block = (
        as_series(query, "query")[None, :]
        if single
        else as_dataset(query, "query")
    )
    q = block.shape[1]
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
    # Each row's mean and std, as ``np.mean``/``np.std`` compute them
    # (pairwise sums along the row), with one sum serving both.
    mu_q = np.add.reduce(block, axis=1, keepdims=True) / q
    spread = np.subtract(block, mu_q)
    np.multiply(spread, spread, out=spread)
    sigma_q = np.sqrt(np.add.reduce(spread, axis=1, keepdims=True) / q)
    # In place on the irfft output: qt -> corr -> distance.
    profiles = _sliding_dots(block, series)
    work = np.multiply(q * means, mu_q)
    np.subtract(profiles, work, out=profiles)
    denom = np.multiply(q * stds, sigma_q, out=work)
    flat = denom < EPS  # flat window: zero correlation with any shape
    np.divide(profiles, np.maximum(denom, EPS, out=denom), out=profiles)
    np.copyto(profiles, 0.0, where=flat)
    np.clip(profiles, -1.0, 1.0, out=profiles)
    np.subtract(1.0, profiles, out=profiles)
    np.multiply(profiles, 2.0 * q, out=profiles)
    np.sqrt(profiles, out=profiles)
    constant = sigma_q[:, 0] < EPS
    if constant.any():
        # Constant query: matches exactly the constant subsequences.
        profiles[constant] = np.where(stds < EPS, 0.0, np.sqrt(2.0 * q))
    return profiles[0] if single else profiles


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
    radius = exclusion if exclusion is not None else max(1, query.shape[0] // 2)
    return profile_top_k(mass(query, series), k=k, radius=radius)


def profile_top_k(
    profile: np.ndarray, *, k: int, radius: int
) -> list[tuple[int, float]]:
    """Top-*k* hits of one distance *profile*, no two within *radius*.

    Each round takes the lowest offset among the minima (``np.argmin``
    first-occurrence) and blanks ``radius`` offsets each side of it;
    stops early once only ``inf`` is left. Overwrites *profile*.
    """
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
