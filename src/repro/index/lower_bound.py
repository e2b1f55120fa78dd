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
was fitted, so every exact DTW top-k is answered by
:meth:`PAALowerBoundIndex._refine_dtw`.

That refine is the UCR-suite cascade [118] — the bound first, the DP
only for the candidates it does not rule out — on blocks of candidates
of a whole query batch at once, through
:func:`~repro.distances.elastic.dtw.dtw_pairs` (the DP of
``pairwise("dtw")``, bitwise): ``prune=True`` answers are bitwise those
of the ``prune=False`` scan and of stable argsort over the matrix.

Under ED the name ``paa_lb`` resolves to the exact Euclidean kernel
(:mod:`repro.index.scan`): the Euclidean PAA, DFT and iSAX filters all
lost to it at every measured size, their bounds costing more than the
cached-norm scan they were meant to avoid.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from ..distances.elastic._dp import band_width, pair_step
from ..distances.elastic.dtw import dtw_pairs
from ..distances.elastic.lower_bounds import keogh_bound
from ..exceptions import IndexBuildError
from ..representations.paa import paa_transform
from .base import (
    LB_SAFETY,
    IndexSearchStats,
    ReferenceIndex,
    register_index,
    top_k_rows,
)
from .scan import SCREEN_BUDGET

#: Default number of PAA frames — small enough that the filter scan is
#: ~m/w times cheaper than the exhaustive scan, large enough to stay
#: tight on smooth data.
DEFAULT_WIDTH = 8

#: Candidates each query draws in its first refine round; the block
#: doubles every round up to one DP chunk.
FIRST_BLOCK = 8


def _gathered(fn, Q: np.ndarray, rows: np.ndarray, cols: np.ndarray, step: int):
    """``fn(Q[rows], cols)`` of every pair, gathered ``step`` pairs at a
    time so a round's gathered series stay within one DP chunk."""
    out = np.empty(rows.shape[0], dtype=np.float64)
    for lo in range(0, rows.shape[0], step):
        out[lo : lo + step] = fn(Q[rows[lo : lo + step]], cols[lo : lo + step])
    return out


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
    envelope, so the filter bound chains ``LB_PAA <= LB_Keogh <= DTW``.
    A search refines each query's candidates in ascending-bound blocks
    (:meth:`_refine_dtw`), each cut at the first bound — deflated by
    :data:`LB_SAFETY` — strictly above the running k-th best distance.
    Bounds ascend and that distance only falls, so a candidate past the
    cut is strictly farther than the final k-th neighbor: it can neither
    displace one nor win an index tie-break at equal distance.
    ``segments = m`` makes LB_PAA exactly LB_Keogh (the engine's and
    facade's default DTW search).
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
        return keogh_bound(fq, self._frames[:, 0, :], self._frames[:, 1, :])

    def search(
        self, Q: np.ndarray, k: int, *, prune: bool = True
    ) -> tuple[np.ndarray, np.ndarray, IndexSearchStats]:
        """:meth:`_refine_dtw` on groups of ``SCREEN_BUDGET // n`` queries,
        bounding the group's bound arrays like ``ed_scan``'s screen;
        ``prune=False`` is the base class's scan of every reference."""
        if not prune:
            return super().search(Q, k, prune=False)
        return self._grouped(Q, k, self._refine_dtw, max(1, SCREEN_BUDGET // self.n))

    def _refine_dtw(
        self, Q: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Top ``k`` of each row of ``Q`` and the pairs refined, in rounds.

        Each round every unfinished query draws its next block of
        candidates in ascending-bound order — :data:`FIRST_BLOCK`, then
        doubling up to one DP chunk — cut at the first bound that loses
        to its running ``k``-th distance. Below full resolution LB_Keogh
        filters the drawn pairs. The DP refines all queries' pairs
        together and :func:`top_k_rows` merges them into each held top
        ``k``. A query ends when it draws no candidate.
        """
        n, m = self.n, self.series_length
        delta = float(self.params["delta"])
        chunk = pair_step(m, m)
        bounds = np.empty((Q.shape[0], n), dtype=np.float64)
        for i, q in enumerate(Q):
            bounds[i] = self.lower_bounds(q)
        order = np.argsort(bounds, axis=1, kind="stable")
        deflated = np.take_along_axis(bounds, order, axis=1)
        del bounds
        deflated *= 1.0 - LB_SAFETY
        # Every query holds k candidates from the start: (inf, n)
        # placeholders lose to any reference.
        best_i = np.full((Q.shape[0], k), n, dtype=np.intp)
        best_d = np.full((Q.shape[0], k), np.inf)
        drawn = np.zeros(Q.shape[0], dtype=np.intp)
        live = np.arange(Q.shape[0])
        block, refined = min(FIRST_BLOCK, chunk), 0
        while live.size:
            kth = best_d[live, -1:]
            ahead = drawn[live, None] + np.arange(block)
            ahead_in = np.minimum(ahead, n - 1)
            take = (ahead < n) & (deflated[live[:, None], ahead_in] <= kth)
            owner = np.nonzero(take)[0]
            cols = order[live[:, None], ahead_in][take]
            if self.segments < m:
                # The tighter LB_Keogh, against each candidate's envelope.
                keogh = _gathered(
                    lambda q, c: keogh_bound(q, *self._envelopes[c].swapaxes(0, 1)),
                    Q[live], owner, cols, chunk,
                )
                keep = ~(keogh * (1.0 - LB_SAFETY) > kth[owner, 0])
                owner, cols = owner[keep], cols[keep]
            d = _gathered(
                lambda q, c: dtw_pairs(q, self._X[c], delta),
                Q[live], owner, cols, chunk,
            )
            refined += d.shape[0]
            best_i[live], best_d[live] = top_k_rows(
                np.concatenate((np.repeat(np.arange(live.size), k), owner)),
                np.concatenate((best_i[live].reshape(-1), cols)),
                np.concatenate((best_d[live].reshape(-1), d)),
                live.size,
                k,
            )
            drawn[live] += take.sum(axis=1)
            live = live[take[:, 0]]
            block = min(2 * block, chunk)
        return best_i, best_d, refined

    def _distances(self, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Banded DTW from ``q`` to each of ``rows``."""
        delta = float(self.params["delta"])
        return dtw_pairs(np.broadcast_to(q, rows.shape), rows, delta)

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
