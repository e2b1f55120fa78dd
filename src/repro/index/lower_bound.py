r"""Flat lower-bound filter indexes (DFT and PAA).

These are the GEMINI-style filter-and-refine indexes of Agrawal et
al. [2] and Keogh et al. [73] in their simplest, flat form: keep one
small representation per reference series whose representation-space
distance provably lower-bounds the true distance, scan the
representations (cheap, ``w`` dimensions instead of ``m``), and compute
the true distance only for candidates whose bound does not already lose
to the running ``k``-th best.

Admissibility chains used here (property-tested in
``tests/test_index.py`` across the Table-4 parameter grid):

- **DFT / ED** — with orthonormal FFTs Parseval gives
  ``||x - y||^2 = sum_k w_k |X_k - Y_k|^2`` over rfft bins (``w_k`` the
  conjugate multiplicity), so truncating to the first ``c`` bins can
  only shrink the distance: ``d_DFT <= ED``.
- **PAA / ED** — Jensen's inequality per frame:
  ``sqrt(m/w) * ||paa(x) - paa(y)|| <= ED(x, y)`` (fractional frame
  weights included; see :mod:`repro.representations.paa`).
- **PAA / DTW** — per-frame aggregates of the candidate's LB_Keogh
  envelope: ``U_j = max`` of the upper envelope over frame ``j``,
  ``L_j = min`` of the lower envelope. Because the per-sample envelope
  lies inside ``[L_j, U_j]`` and ``t -> max(t - U, 0)^2`` is convex,
  Jensen gives ``LB_PAA <= LB_Keogh <= DTW_delta`` — the classic
  "exact indexing of DTW" construction of Keogh & Ratanamahatana [75].
  With one frame per sample (``segments = m``) the frames are the
  envelope itself and LB_PAA *is* LB_Keogh: the reference search behind
  the serving engine and the search facade answers DTW through that
  index when none was fitted, so the UCR-suite cascade [118] lives only
  in :meth:`_refine_dtw`.

The refine stage is deliberately *shape-stable*: Euclidean distances are
computed with an elementwise row reduction whose result for a given row
does not depend on which other rows share the batch, and DTW distances
come from :func:`repro.search.cascade.dtw_early_abandon` (bitwise equal
to the full DP). That property is what makes ``prune=True`` answers
bitwise-identical to the ``prune=False`` exhaustive scan.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from ..distances.elastic._dp import band_width
from ..distances.elastic.lower_bounds import keogh_bound
from ..exceptions import IndexBuildError
from ..representations.dft import _coefficient_weights, dft_transform
from ..representations.paa import paa_transform
from .base import (
    LB_SAFETY,
    REFINE_CHUNK,
    ReferenceIndex,
    TopK,
    euclidean_refine,
    register_index,
)

#: Default representation size (frames / kept rfft bins) for the flat
#: filters — small enough that the filter scan is ~m/w times cheaper
#: than the exhaustive scan, large enough to stay tight on smooth data.
DEFAULT_WIDTH = 8


def paa_matrix(X: np.ndarray, segments: int) -> np.ndarray:
    """PAA frames of every row of ``X``, shape ``(n, segments)``.

    Vectorized for the frame-aligned case; falls back to the exact
    fractional-weight transform otherwise.
    """
    n, m = X.shape
    if m % segments == 0:
        return X.reshape(n, segments, m // segments).mean(axis=2)
    return np.stack([paa_transform(row, segments) for row in X])


def envelope_matrix(X: np.ndarray, delta: float) -> np.ndarray:
    """Stacked LB_Keogh envelopes, shape ``(n, 2, m)`` (upper, lower).

    Row ``i`` equals :func:`~repro.distances.elastic.envelope` of
    ``X[i]``, computed with vectorized sliding-window filters; edge
    replication (``mode="nearest"``) only duplicates in-window samples,
    so the result is bitwise identical to the per-position loop.
    """
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[1]
    w = band_width(m, m, delta)
    size = 2 * w + 1
    out = np.empty((X.shape[0], 2, m), dtype=np.float64)
    out[:, 0, :] = maximum_filter1d(X, size=size, axis=1, mode="nearest")
    out[:, 1, :] = minimum_filter1d(X, size=size, axis=1, mode="nearest")
    return out


class _FlatLowerBoundIndex(ReferenceIndex):
    """Shared filter-and-refine core over a flat feature matrix.

    Subclasses provide :meth:`query_features` (and, for DTW, the
    envelope plumbing); this class owns the per-query step: sort
    candidates by ascending lower bound, refine until the next bound —
    deflated by :data:`LB_SAFETY` — strictly exceeds the running k-th
    best distance. Admissibility makes the cut safe: a skipped
    candidate's true distance is at least its (un-deflated) bound, hence
    strictly above the threshold, so it cannot displace any held
    neighbor nor win an index tie-break at equal distance.
    """

    #: Feature matrix such that ``||f(q) - F_i||_2`` lower-bounds the
    #: true distance (set by subclasses at build/restore).
    _features: np.ndarray

    def query_features(self, q: np.ndarray) -> np.ndarray:
        """Map one query series into the feature space of ``_features``."""
        raise NotImplementedError

    def lower_bounds(self, q: np.ndarray) -> np.ndarray:
        """Vectorized admissible lower bounds of ``q`` vs every reference."""
        return euclidean_refine(self._features, slice(None), self.query_features(q))

    # -- refine kernels ------------------------------------------------
    def _refine_euclidean(
        self, q: np.ndarray, order: np.ndarray, bounds: np.ndarray, k: int
    ) -> tuple[TopK, int]:
        topk = TopK(k)
        deflated = bounds * (1.0 - LB_SAFETY)
        refined = 0
        pos = 0
        n = order.shape[0]
        while pos < n:
            if deflated[order[pos]] > topk.threshold:
                break  # bounds ascend: every remaining candidate loses
            rows = order[pos : pos + REFINE_CHUNK]
            dists = euclidean_refine(self._X, rows, q)
            refined += rows.shape[0]
            for idx, d in zip(rows, dists):
                topk.offer(float(d), int(idx))
            pos += rows.shape[0]
        return topk, refined

    def _refine_dtw(
        self, q: np.ndarray, order: np.ndarray, bounds: np.ndarray, k: int
    ) -> tuple[TopK, int]:
        from ..search.cascade import dtw_early_abandon

        delta = float(self.params["delta"])
        # With one frame per sample the filter bound already is LB_Keogh.
        keogh_stage = self.segments < self.series_length
        topk = TopK(k)
        deflated = bounds * (1.0 - LB_SAFETY)
        refined = 0
        for idx in order:
            threshold = topk.threshold
            if deflated[idx] > threshold:
                break
            if keogh_stage:
                # Tighter O(m) stage before the O(m·w) DP: the full
                # LB_Keogh against the candidate's stored envelope.
                keogh = keogh_bound(
                    q, self._envelopes[idx, 0], self._envelopes[idx, 1]
                )
                if keogh * (1.0 - LB_SAFETY) > threshold:
                    continue
            # nextafter keeps exact ties computable so a smaller index
            # can still displace an equal-distance incumbent.
            d = dtw_early_abandon(q, self._X[idx], delta, np.nextafter(threshold, np.inf))
            refined += 1
            if np.isfinite(d):
                topk.offer(d, int(idx))
        return topk, refined

    def _nearest(self, q: np.ndarray, k: int) -> tuple[TopK, int]:
        """Refine in ascending lower-bound order until the bound loses."""
        bounds = self.lower_bounds(q)
        order = np.argsort(bounds, kind="stable")
        if self.measure == "dtw":
            return self._refine_dtw(q, order, bounds, k)
        return self._refine_euclidean(q, order, bounds, k)


@register_index
class DFTLowerBoundIndex(_FlatLowerBoundIndex):
    """Truncated-Fourier filter (``kind="dft_lb"``), Euclidean only.

    Stores the first ``coefficients`` orthonormal rfft bins of every
    reference, conjugate-weighted and flattened to a real feature matrix
    so the filter distance is a plain feature-space ED.
    """

    kind = "dft_lb"
    exact = True
    supports = frozenset({"euclidean"})

    def __init__(self, X, measure, params, *, coefficients: int, features: np.ndarray):
        super().__init__(X, measure, params)
        self.coefficients = int(coefficients)
        self._features = np.ascontiguousarray(features, dtype=np.float64)
        self._weights = np.sqrt(
            _coefficient_weights(self.coefficients, self.series_length)
        )

    @staticmethod
    def _featurize(X: np.ndarray, coefficients: int) -> np.ndarray:
        spectra = np.fft.rfft(X, norm="ortho", axis=1)[:, :coefficients]
        w = np.sqrt(_coefficient_weights(coefficients, X.shape[1]))
        return np.concatenate([w * spectra.real, w * spectra.imag], axis=1)

    @classmethod
    def build(cls, X, *, measure, params, coefficients: int = DEFAULT_WIDTH):
        """Build the filter over ``X`` keeping ``coefficients`` rfft bins."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        max_coeffs = X.shape[1] // 2 + 1
        coefficients = min(int(coefficients), max_coeffs)
        if coefficients < 1:
            raise IndexBuildError("dft_lb needs at least one coefficient")
        return cls(
            X,
            measure,
            params,
            coefficients=coefficients,
            features=cls._featurize(X, coefficients),
        )

    def query_features(self, q: np.ndarray) -> np.ndarray:
        """Weighted real/imag rfft features of one query."""
        coeffs = dft_transform(q, self.coefficients)
        return np.concatenate([self._weights * coeffs.real, self._weights * coeffs.imag])

    def spec(self) -> dict:
        """Fingerprinted configuration."""
        return {"kind": self.kind, "coefficients": self.coefficients}

    def arrays(self) -> dict[str, np.ndarray]:
        """Persisted feature matrix."""
        return {"features": self._features}

    @classmethod
    def restore(cls, spec, arrays, X, *, measure, params):
        """Revive from a manifest spec + digest-verified arrays."""
        return cls(
            X,
            measure,
            params,
            coefficients=int(spec["coefficients"]),
            features=arrays["features"],
        )


@register_index
class PAALowerBoundIndex(_FlatLowerBoundIndex):
    """PAA filter (``kind="paa_lb"``) for Euclidean *and* banded DTW.

    Under Euclidean the features are scaled PAA frames; under DTW they
    are per-frame aggregates of each candidate's LB_Keogh envelope, so
    the filter bound chains ``LB_PAA <= LB_Keogh <= DTW`` and the refine
    stage is the early-abandoning DP. ``segments = m`` makes LB_PAA
    exactly LB_Keogh (the engine's and facade's default DTW search).
    """

    kind = "paa_lb"
    exact = True
    supports = frozenset({"euclidean", "dtw"})

    def __init__(
        self,
        X,
        measure,
        params,
        *,
        segments: int,
        frames: np.ndarray,
        envelopes: np.ndarray | None = None,
    ):
        super().__init__(X, measure, params)
        self.segments = int(segments)
        self._scale = np.sqrt(self.series_length / self.segments)
        # frames: (n, w) scaled PAA under ED; (n, 2, w) scaled frame
        # envelope aggregates (upper, lower) under DTW. With one frame
        # per sample (scale 1) the frames *are* the envelopes, held once.
        self._frames = np.ascontiguousarray(frames, dtype=np.float64)
        if measure == "dtw" and self.segments == self.series_length:
            envelopes = self._frames
        self._envelopes = (
            None
            if envelopes is None
            else np.ascontiguousarray(envelopes, dtype=np.float64)
        )
        if measure == "euclidean":
            self._features = self._frames

    @classmethod
    def build(cls, X, *, measure, params, segments: int = DEFAULT_WIDTH):
        """Build the filter over ``X`` with ``segments`` PAA frames."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        segments = min(int(segments), X.shape[1])
        if segments < 1:
            raise IndexBuildError("paa_lb needs at least one segment")
        scale = np.sqrt(X.shape[1] / segments)
        if measure == "euclidean":
            return cls(
                X, measure, params,
                segments=segments,
                frames=scale * paa_matrix(X, segments),
            )
        if "delta" not in params:
            raise IndexBuildError("paa_lb over dtw requires a 'delta' parameter")
        envelopes = envelope_matrix(X, float(params["delta"]))
        w = segments
        m = X.shape[1]
        if w == m:
            return cls(X, measure, params, segments=w, frames=envelopes)
        # Frame aggregates widen the envelope (max of upper, min of
        # lower per frame), preserving admissibility of the PAA bound.
        if m % w == 0:
            upper = envelopes[:, 0, :].reshape(-1, w, m // w).max(axis=2)
            lower = envelopes[:, 1, :].reshape(-1, w, m // w).min(axis=2)
        else:
            edges = (np.arange(w + 1) * m) // w
            upper = np.stack(
                [envelopes[:, 0, edges[j] : edges[j + 1] + (edges[j + 1] < m)].max(axis=1) for j in range(w)],
                axis=1,
            )
            lower = np.stack(
                [envelopes[:, 1, edges[j] : edges[j + 1] + (edges[j + 1] < m)].min(axis=1) for j in range(w)],
                axis=1,
            )
        frames = np.stack([scale * upper, scale * lower], axis=1)
        return cls(
            X, measure, params, segments=segments, frames=frames, envelopes=envelopes
        )

    def query_features(self, q: np.ndarray) -> np.ndarray:
        """Scaled PAA frames of one query (Euclidean feature space)."""
        return self._scale * paa_transform(q, self.segments)

    def lower_bounds(self, q: np.ndarray) -> np.ndarray:
        """LB_PAA per reference (ED: frame distance; DTW: envelope form)."""
        fq = self.query_features(q)
        if self.measure == "euclidean":
            diff = self._frames - fq
            return np.sqrt((diff * diff).sum(axis=1))
        above = np.maximum(fq - self._frames[:, 0, :], 0.0)
        below = np.maximum(self._frames[:, 1, :] - fq, 0.0)
        return np.sqrt((above * above + below * below).sum(axis=1))

    def spec(self) -> dict:
        """Fingerprinted configuration."""
        return {"kind": self.kind, "segments": self.segments}

    def arrays(self) -> dict[str, np.ndarray]:
        """Persisted frame (and, under DTW below full resolution,
        envelope) matrices."""
        out = {"frames": self._frames}
        if self._envelopes is not None and self._envelopes is not self._frames:
            out["envelopes"] = self._envelopes
        return out

    @classmethod
    def restore(cls, spec, arrays, X, *, measure, params):
        """Revive from a manifest spec + digest-verified arrays."""
        return cls(
            X,
            measure,
            params,
            segments=int(spec["segments"]),
            frames=arrays["frames"],
            envelopes=arrays.get("envelopes"),
        )
