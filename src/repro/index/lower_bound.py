r"""The flat PAA lower-bound filter for banded DTW (``paa_lb``).

This is the GEMINI-style filter-and-refine index of Keogh et al. [73]
in its simplest, flat form: keep one small representation per reference
series whose representation-space distance provably lower-bounds the
true distance, scan the representations, and compute the true distance
only for candidates whose bound does not already lose to the running
``k``-th best.

The bound (property-tested in ``tests/test_index.py`` across the
Table-4 parameter grid) uses per-frame aggregates of the candidate's
LB_Keogh envelope: ``U_j = max`` of the upper envelope over frame ``j``,
``L_j = min`` of the lower envelope. Because the per-sample envelope
lies inside ``[L_j, U_j]`` and ``t -> max(t - U, 0)^2`` is convex,
Jensen gives ``LB_PAA <= LB_Keogh <= DTW_delta`` — the classic "exact
indexing of DTW" construction of Keogh & Ratanamahatana [75]. With one
frame per sample (``segments = m``) the frames are the envelope itself
and LB_PAA *is* LB_Keogh: the reference search behind the serving
engine and the search facade answers DTW through that index when none
was fitted, so the UCR-suite cascade [118] lives only in
:meth:`PAALowerBoundIndex._refine_dtw`.

Under ED the name ``paa_lb`` resolves to the exact Euclidean kernel
(:mod:`repro.index.scan`): the Euclidean PAA, DFT and iSAX filters all
lost to it at every measured size, their bounds costing more than the
cached-norm scan they were meant to avoid.

The refine stage is deliberately *shape-stable*: DTW distances come
from :func:`repro.search.cascade.dtw_early_abandon`, bitwise equal to
the full DP, which is what makes ``prune=True`` answers
bitwise-identical to the ``prune=False`` exhaustive scan.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from ..distances.elastic._dp import band_width
from ..distances.elastic.lower_bounds import keogh_bound
from ..exceptions import IndexBuildError
from ..representations.paa import paa_transform
from .base import LB_SAFETY, ReferenceIndex, TopK, register_index

#: Default number of PAA frames — small enough that the filter scan is
#: ~m/w times cheaper than the exhaustive scan, large enough to stay
#: tight on smooth data.
DEFAULT_WIDTH = 8


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


@register_index
class PAALowerBoundIndex(ReferenceIndex):
    """PAA filter over banded DTW (``kind="paa_lb"``).

    The features are per-frame aggregates of each candidate's LB_Keogh
    envelope, so the filter bound chains ``LB_PAA <= LB_Keogh <= DTW``;
    the per-query step sorts candidates by ascending bound and runs the
    early-abandoning DP until the next bound — deflated by
    :data:`LB_SAFETY` — strictly exceeds the running k-th best distance.
    Admissibility makes the cut safe: a skipped candidate's true
    distance is at least its (un-deflated) bound, hence strictly above
    the threshold, so it cannot displace any held neighbor nor win an
    index tie-break at equal distance. ``segments = m`` makes LB_PAA
    exactly LB_Keogh (the engine's and facade's default DTW search).
    """

    kind = "paa_lb"
    exact = True
    supports = frozenset({"dtw"})

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
        # frames: (n, 2, w) scaled frame envelope aggregates (upper,
        # lower). With one frame per sample (scale 1) the frames *are*
        # the envelopes, held once.
        self._frames = np.ascontiguousarray(frames, dtype=np.float64)
        if self.segments == self.series_length:
            envelopes = self._frames
        self._envelopes = np.ascontiguousarray(envelopes, dtype=np.float64)

    @classmethod
    def build(cls, X, *, measure, params, segments: int = DEFAULT_WIDTH):
        """Build the filter over ``X`` with ``segments`` PAA frames."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        segments = min(int(segments), X.shape[1])
        if segments < 1:
            raise IndexBuildError("paa_lb needs at least one segment")
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
        scale = np.sqrt(m / w)
        frames = np.stack([scale * upper, scale * lower], axis=1)
        return cls(
            X, measure, params, segments=segments, frames=frames, envelopes=envelopes
        )

    def lower_bounds(self, q: np.ndarray) -> np.ndarray:
        """LB_PAA of ``q`` against every reference's frame envelope."""
        fq = self._scale * paa_transform(q, self.segments)
        above = np.maximum(fq - self._frames[:, 0, :], 0.0)
        below = np.maximum(self._frames[:, 1, :] - fq, 0.0)
        return np.sqrt((above * above + below * below).sum(axis=1))

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
                break  # bounds ascend: every remaining candidate loses
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

    def _nearest(
        self, q: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Refine in ascending lower-bound order until the bound loses."""
        bounds = self.lower_bounds(q)
        topk, refined = self._refine_dtw(
            q, np.argsort(bounds, kind="stable"), bounds, k
        )
        return (*topk.result(), refined)

    def spec(self) -> dict:
        """Fingerprinted configuration."""
        return {"kind": self.kind, "segments": self.segments}

    def arrays(self) -> dict[str, np.ndarray]:
        """Persisted frame (and, below full resolution, envelope)
        matrices."""
        out = {"frames": self._frames}
        if self._envelopes is not self._frames:
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
