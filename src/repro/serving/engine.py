"""Batched online 1-NN over a fitted :class:`ModelArtifact`.

The engine is the compute half of the serving subsystem: given a batch
of queries it produces, for each, the index/distance/label of its
nearest reference series — routed down whichever path the artifact's
measure family makes fastest:

- **lock-step / kernel / generic elastic** measures go through the
  measure's vectorized ``pairwise`` matrix kernel followed by the same
  ``argmin`` scan as the offline :func:`repro.one_nn_predict` (paper
  Algorithm 1), so online and offline answers are bit-for-bit identical;
- **sliding** measures (the NCC family) reuse the artifact's precomputed
  conjugated reference FFTs via
  :func:`~repro.distances.sliding.cc_max_from_reference` — the identical
  arithmetic the registered matrix kernels run, minus the reference-side
  FFT;
- **banded DTW** goes through an exact ``paa_lb`` index at full
  resolution (one frame per sample, where LB_PAA is exactly LB_Keogh),
  revived from the artifact's stored candidate envelopes when no exact
  index was fitted: the UCR-suite LB_Keogh -> early-abandon cascade on
  the index layer's shared refine kernel.

When the artifact carries fitted reference indexes (``ModelArtifact.fit
(..., index=...)``), :meth:`QueryEngine.search` adds a sub-linear tier
on top of those routes:

- ``mode="exact"`` — the artifact's exact lower-bound index (``dft_lb``,
  ``paa_lb``, ``isax``) prunes candidates whose admissible bound already
  loses to the running k-th best; answers are bitwise-identical to the
  exhaustive scan;
- ``mode="approx"`` — the artifact's embedding ANN index (``grail_ann``,
  ``spiral_ann``) shortlists in embedding space and re-ranks with the
  true measure (recall measured at fit time, frozen in the spec);
- ``mode="brute"`` — pruning disabled: the same refine arithmetic over
  every candidate (the baseline exactness is tested against), or the
  full-scan routes when no index exists.

``predict`` is a thin ``k=1, mode="exact"`` wrapper over ``search``.

Results flow through a bounded, thread-safe LRU cache keyed by the raw
query bytes plus ``(k, mode, index)``; repeated queries (dashboards,
retries, hot keys) skip the distance computation entirely. All cache
bookkeeping happens under one lock while the distance math runs outside
it, so concurrent ``predict`` calls scale across threads and remain
bitwise-deterministic (the computation is pure; a racing duplicate
computes the same values).
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .._validation import as_dataset
from ..distances.backends import BackendMismatchWarning, resolve_backend
from ..distances.base import get_measure
from ..distances.sliding.cross_correlation import (
    SlidingReference,
    cc_max_from_reference,
    ncc_c_matrix_from_reference,
    sliding_reference,
)
from ..exceptions import ServingError
from ..index import PAALowerBoundIndex
from ..index.lower_bound import envelope_matrix
from ..normalization import get_normalizer
from ..observability import get_bus
from .artifact import SLIDING_MEASURES, ModelArtifact

from scipy.fft import next_fast_len

#: Default bound on the LRU query cache (entries, i.e. distinct queries).
DEFAULT_CACHE_SIZE = 1024


#: Valid ``mode=`` values of :meth:`QueryEngine.search`.
SEARCH_MODES = ("exact", "approx", "brute")


@dataclass(frozen=True)
class Prediction:
    """Outcome of one ``search``/``predict`` batch.

    ``neighbor_indices`` and ``neighbor_distances`` are shaped ``(n, k)``
    with row ``i`` holding query ``i``'s neighbors in ascending
    ``(distance, reference index)`` order; ``labels[i]`` is the label of
    the top neighbor (1-NN classification). ``cache_hits`` counts how
    many of the batch's queries were answered from the LRU cache;
    ``pruned`` / ``full_computations`` account the candidate pairs the
    chosen route skipped / actually computed.

    The :attr:`indices` / :attr:`distances` properties are the
    **k = 1 back-compat squeeze**: for ``k == 1`` they return the
    historical ``(n,)`` vectors (what every pre-index caller consumed);
    for ``k > 1`` they return the full ``(n, k)`` arrays unchanged.
    """

    labels: np.ndarray
    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray
    k: int = 1
    mode: str = "exact"
    cache_hits: int = 0
    pruned: int = 0
    full_computations: int = 0

    @property
    def indices(self) -> np.ndarray:
        """Neighbor indices — ``(n,)`` when ``k == 1``, else ``(n, k)``."""
        if self.k == 1:
            return self.neighbor_indices[:, 0]
        return self.neighbor_indices

    @property
    def distances(self) -> np.ndarray:
        """Neighbor distances — ``(n,)`` when ``k == 1``, else ``(n, k)``."""
        if self.k == 1:
            return self.neighbor_distances[:, 0]
        return self.neighbor_distances


@dataclass
class CacheStats:
    """Cumulative LRU cache counters (monotonic over the engine's life)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
        }


def _query_key(row: np.ndarray) -> bytes:
    """Cache key of one validated query (exact float64 bytes)."""
    return hashlib.sha256(row.tobytes()).digest()


class QueryEngine:
    """Thread-safe batched 1-NN prediction over a fitted artifact.

    Parameters
    ----------
    artifact:
        The fitted reference set (see :class:`ModelArtifact`).
    cache_size:
        Maximum number of distinct queries the LRU cache retains;
        ``0`` disables caching.
    backend:
        Implementation-backend policy for the matrix route (``"auto"`` /
        ``"compiled"`` / ``"reference"``). Resolved — and, for the
        compiled tier, JIT-warmed — at construction, so no request ever
        pays a mid-flight compile; ``backend="compiled"`` raises
        :class:`~repro.exceptions.BackendUnavailableError` here rather
        than on the first query. The sliding and DTW index routes run
        their specialized reference arithmetic regardless. When the
        resolved tier differs from the one the artifact was fitted
        (validated) under, the engine emits a
        :class:`~repro.distances.backends.BackendMismatchWarning` and a
        ``serve.backend.mismatch`` counter.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        backend: str = "auto",
    ):
        if cache_size < 0:
            raise ServingError(f"cache_size must be >= 0, got {cache_size}")
        self.artifact = artifact
        self._measure = get_measure(artifact.measure)
        self._params = dict(artifact.params)
        self._normalizer = (
            None
            if artifact.normalization is None
            else get_normalizer(artifact.normalization)
        )
        # Cache entries are (indices, distances) row vectors of length k,
        # keyed by (query sha, k, route token) — exact and brute answers
        # are bitwise-identical but tracked separately so counters stay
        # interpretable.
        self._cache: OrderedDict[
            tuple[bytes, int, str], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        self._cache_size = int(cache_size)
        self._lock = threading.Lock()
        self._stats = CacheStats(capacity=self._cache_size)
        self._exact_indexes = tuple(ix for ix in artifact.indexes if ix.exact)
        self._approx_indexes = tuple(
            ix for ix in artifact.indexes if not ix.exact
        )
        self.route = self._pick_route()
        if self.route == "sliding":
            self._reference = self._sliding_reference()
        elif self.route == "index" and not self._exact_indexes:
            self._exact_indexes = (self._dtw_index(),)
        if self.route == "matrix":
            self.backend = resolve_backend(self._measure, backend).name
        else:
            # Sliding/DTW index routes run specialized reference arithmetic
            # (precomputed FFTs, early-abandon DTW) with no compiled tier.
            self.backend = "reference"
        if self.backend != artifact.backend:
            warnings.warn(
                f"serving artifact {artifact.fingerprint or '<unsaved>'} "
                f"with backend {self.backend!r} but it was fitted "
                f"(validated) under {artifact.backend!r}; answers are "
                "parity-tested across tiers yet not guaranteed bitwise "
                "identical for kernel measures",
                BackendMismatchWarning,
                stacklevel=2,
            )
            get_bus().count(
                "serve.backend.mismatch",
                measure=artifact.measure,
                artifact_backend=artifact.backend,
                serving_backend=self.backend,
            )

    def _pick_route(self) -> str:
        name = self._measure.name
        if name in SLIDING_MEASURES:
            return "sliding"
        if name == "dtw":
            return "index"
        return "matrix"

    def _sliding_reference(self) -> SlidingReference:
        """Rebuild the FFT reference from the artifact's stored arrays.

        Falls back to recomputing from the reference set when the stored
        precomputations are absent (e.g. an artifact constructed in
        memory without them) — same values either way.
        """
        pre = self.artifact.precomputed
        if "sliding_fft_conj" in pre and "sliding_norms" in pre:
            m = self.artifact.series_length
            nfft = next_fast_len(2 * m - 1, real=True)
            fft_conj = np.asarray(pre["sliding_fft_conj"])
            if fft_conj.shape != (self.artifact.n_train, nfft // 2 + 1):
                raise ServingError(
                    f"stored sliding FFT has shape {fft_conj.shape}, "
                    f"expected {(self.artifact.n_train, nfft // 2 + 1)}"
                )
            return SlidingReference(
                length=m,
                nfft=nfft,
                fft_conj=fft_conj,
                norms=np.asarray(pre["sliding_norms"], dtype=np.float64),
            )
        return sliding_reference(self.artifact.train_X)

    def _dtw_index(self) -> PAALowerBoundIndex:
        """Full-resolution ``paa_lb`` over the artifact's stored envelopes.

        With ``segments = m`` the frames *are* the LB_Keogh envelopes
        (scale 1), so the stored array is both and the artifact format
        is unchanged. Falls back to computing the envelopes when they
        are absent (an artifact constructed in memory without them).
        """
        X = self.artifact.train_X
        envelopes = self.artifact.precomputed.get("envelopes")
        if envelopes is None:
            envelopes = envelope_matrix(X, self._params["delta"])
        envelopes = np.asarray(envelopes, dtype=np.float64)
        expected = (X.shape[0], 2, X.shape[1])
        if envelopes.shape != expected:
            raise ServingError(
                f"stored envelopes have shape {envelopes.shape}, "
                f"expected {expected}"
            )
        return PAALowerBoundIndex.restore(
            {"segments": X.shape[1]},
            {"frames": envelopes, "envelopes": envelopes},
            X,
            measure="dtw",
            params=self._params,
        )

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(self, queries) -> np.ndarray:
        """1-NN labels of a query batch (thin ``search(k=1)`` wrapper)."""
        return self.search(queries).labels

    def search(
        self,
        queries,
        *,
        k: int = 1,
        mode: str = "exact",
        index: str | None = None,
    ) -> Prediction:
        """Top-``k`` nearest references of each query in a batch.

        Parameters
        ----------
        queries:
            A single series or an ``(r, m)`` batch; normalized with the
            artifact's method before comparison, exactly as the
            reference set was at fit time.
        k:
            Neighbors to return per query, ``1 <= k <= n_train``.
        mode:
            ``"exact"`` — sub-linear search through the artifact's exact
            lower-bound index when one is fitted (answers provably
            bitwise-identical to the exhaustive scan), the
            full-resolution DTW index under DTW, else the full-scan
            routes. ``"approx"`` — the artifact's embedding ANN index
            (requires one; recall is whatever its spec recorded at
            fit). ``"brute"`` — exhaustive baseline: the exact index's
            refine arithmetic with pruning disabled, or the full-scan
            routes when no index exists.
        index:
            Pin a specific fitted index by kind name (``"dft_lb"``,
            ``"grail_ann"``...); default picks the first fitted index
            compatible with ``mode``.
        """
        Q = as_dataset(queries, "queries")
        if Q.shape[1] != self.artifact.series_length:
            raise ServingError(
                f"query length {Q.shape[1]} != artifact series length "
                f"{self.artifact.series_length}"
            )
        k = int(k)
        if not 1 <= k <= self.artifact.n_train:
            raise ServingError(
                f"k must be in [1, {self.artifact.n_train}], got {k}"
            )
        if mode not in SEARCH_MODES:
            raise ServingError(
                f"mode must be one of {SEARCH_MODES}, got {mode!r}"
            )
        chosen, prune = self._resolve_index(mode, index)
        token = f"{mode}:{chosen.kind if chosen is not None else 'scan'}"
        bus = get_bus()
        with bus.span(
            "serve.predict",
            measure=self.artifact.measure,
            route=self.route if chosen is None else f"index:{chosen.kind}",
            backend=self.backend,
            batch=Q.shape[0],
            mode=mode,
            k=k,
        ) as span:
            keys = [
                (_query_key(np.ascontiguousarray(row)), k, token) for row in Q
            ]
            hits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            miss_rows: list[int] = []
            with self._lock:
                for i, key in enumerate(keys):
                    entry = self._cache.get(key)
                    if entry is None:
                        miss_rows.append(i)
                    else:
                        self._cache.move_to_end(key)
                        hits[i] = entry
                self._stats.hits += len(hits)
                self._stats.misses += len(miss_rows)
            if hits:
                bus.count("serve.cache.hit", len(hits))
            if miss_rows:
                bus.count("serve.cache.miss", len(miss_rows))

            pruned = full = 0
            indices = np.empty((Q.shape[0], k), dtype=np.intp)
            distances = np.empty((Q.shape[0], k), dtype=np.float64)
            for i, (idx, dist) in hits.items():
                indices[i] = idx
                distances[i] = dist
            if miss_rows:
                sub = Q[miss_rows]
                if self._normalizer is not None:
                    sub = self._normalizer.apply_dataset(sub)
                if chosen is not None:
                    sub_idx, sub_dist, stats = chosen.search(
                        sub, k, prune=prune
                    )
                    pruned, full = stats.pruned, stats.refined
                    bus.count(
                        "serve.index.candidates",
                        stats.candidates,
                        kind=chosen.kind,
                        mode=mode,
                    )
                    bus.count(
                        "serve.index.refined",
                        stats.refined,
                        kind=chosen.kind,
                        mode=mode,
                    )
                    bus.count(
                        "serve.index.pruned",
                        stats.pruned,
                        kind=chosen.kind,
                        mode=mode,
                    )
                else:
                    sub_idx, sub_dist = self._scan_topk(sub, k)
                    full = sub.shape[0] * self.artifact.n_train
                for offset, i in enumerate(miss_rows):
                    indices[i] = sub_idx[offset]
                    distances[i] = sub_dist[offset]
                if self._cache_size:
                    with self._lock:
                        for offset, i in enumerate(miss_rows):
                            self._cache[keys[i]] = (
                                sub_idx[offset].copy(),
                                sub_dist[offset].copy(),
                            )
                            self._cache.move_to_end(keys[i])
                        while len(self._cache) > self._cache_size:
                            self._cache.popitem(last=False)
                            self._stats.evictions += 1
                        self._stats.size = len(self._cache)
            labels = self.artifact.train_y[indices[:, 0]]
            span.set(cache_hits=len(hits), pruned=pruned)
            return Prediction(
                labels=labels,
                neighbor_indices=indices,
                neighbor_distances=distances,
                k=k,
                mode=mode,
                cache_hits=len(hits),
                pruned=pruned,
                full_computations=full,
            )

    def _resolve_index(self, mode: str, index: str | None):
        """Pick the index (or ``None`` for a full scan) serving ``mode``.

        Returns ``(index_or_None, prune_flag)``.
        """
        if index is not None:
            chosen = next(
                (ix for ix in self.artifact.indexes if ix.kind == index), None
            )
            if chosen is None:
                fitted = [ix.kind for ix in self.artifact.indexes]
                raise ServingError(
                    f"artifact has no fitted index {index!r} "
                    f"(fitted: {fitted or 'none'})"
                )
            if mode == "approx" and chosen.exact:
                raise ServingError(
                    f"index {index!r} is exact; mode='approx' needs an "
                    "embedding ANN index (grail_ann / spiral_ann)"
                )
            if mode in ("exact", "brute") and not chosen.exact:
                raise ServingError(
                    f"index {index!r} is approximate and cannot serve "
                    f"mode={mode!r}; fit an exact index (dft_lb / paa_lb "
                    "/ isax) or use mode='approx'"
                )
            return chosen, mode != "brute"
        if mode == "approx":
            if not self._approx_indexes:
                raise ServingError(
                    "mode='approx' requires an approximate index; fit the "
                    "artifact with index='grail_ann' (or 'spiral_ann')"
                )
            return self._approx_indexes[0], True
        if self._exact_indexes:
            return self._exact_indexes[0], mode != "brute"
        return None, True  # no index: exact == brute == full scan

    def _scan_topk(self, Q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive top-``k`` per normalized query row (no index).

        Returns ``(indices, distances)``, both shaped ``(len(Q), k)``.
        """
        if self.route == "sliding":
            E = self._sliding_matrix(Q)
        else:
            E = self._measure.pairwise(
                Q,
                self.artifact.train_X,
                backend=self.backend,
                **self._params,
            )
        order = np.argsort(E, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(E, order, axis=1)

    def _sliding_matrix(self, Q: np.ndarray) -> np.ndarray:
        """Dissimilarity matrix via the precomputed reference FFTs.

        Mirrors the registered sliding matrix kernels term by term so
        the serving path and ``measure.pairwise`` agree bitwise.
        """
        name = self._measure.name
        if name == "nccc":
            return ncc_c_matrix_from_reference(Q, self._reference)
        if name == "ncc":
            return -cc_max_from_reference(Q, self._reference, "none")
        if name == "nccb":
            return (
                -cc_max_from_reference(Q, self._reference, "none")
                / Q.shape[1]
            )
        return -cc_max_from_reference(Q, self._reference, "unbiased")

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def cache_stats(self) -> CacheStats:
        """Snapshot of the cumulative cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._stats.hits,
                misses=self._stats.misses,
                evictions=self._stats.evictions,
                size=len(self._cache),
                capacity=self._cache_size,
            )

    def clear_cache(self) -> None:
        """Drop every cached query result (counters are retained)."""
        with self._lock:
            self._cache.clear()
            self._stats.size = 0
