"""Top-k nearest-neighbour search over a frozen reference set.

Every answer the library serves is the paper's Algorithm 1 question —
the top-k references of a query under one measure — and this module
holds its one implementation, :class:`ReferenceSearch`. It builds the
structures its route needs from the reference set when it is
constructed, then answers batches down whichever path the measure makes
fastest:

- **lock-step / kernel / generic elastic** measures go through the
  measure's vectorized ``pairwise`` matrix kernel followed by a stable
  argsort, so ties break toward the lowest reference index exactly as
  the offline :func:`repro.one_nn_predict` (paper Algorithm 1) does;
- **sliding** measures (the NCC family) reuse the reference set's
  conjugated FFTs and norms (one
  :class:`~repro.distances.sliding.SlidingReference`) via
  :func:`~repro.distances.sliding.ncc_c_matrix_from_reference` and
  :func:`~repro.distances.sliding.cc_max_from_reference` — the routines
  the registered matrix kernels run, minus the reference-side FFT on
  every batch, so each distance is bitwise the scalar measure's;
- **Euclidean** goes through the exact ``ed_scan`` kernel
  (:mod:`repro.index.scan`): a cached-norm GEMM screen with a certified
  rounding slack, then ED's row-wise definition for the survivors, so
  every served distance is bitwise ``repro.distance(q, x, "ed")``, not
  ``pairwise``'s Gram form (the two differ by ~1e-13);
- **banded DTW** goes through an exact ``paa_lb`` index at full
  resolution (one frame per sample, where LB_PAA is exactly LB_Keogh)
  when no exact index was fitted: the UCR-suite LB_Keogh cascade, each
  query's candidates in ascending bound order, refined in blocks for
  the whole batch by the pair-batched DP behind ``pairwise("dtw")``.

Reference indexes are chosen by ``mode``:

- ``mode="exact"`` — the exact index (``ed_scan`` under ED, ``paa_lb``
  under DTW; built here when none was fitted) skips candidates that
  provably cannot enter the top k; answers are bitwise-identical to the
  exhaustive scan;
- ``mode="approx"`` — the embedding ANN index (``grail_ann``,
  ``spiral_ann``) shortlists in embedding space and re-ranks with the
  true measure (recall measured at fit time, frozen in the spec);
- ``mode="brute"`` — pruning disabled: the same refine arithmetic over
  every candidate (the baseline exactness is tested against), or the
  full-scan routes when no index exists.

:func:`repro.search.nearest_neighbors` (``domain="whole"``) is one call
to :class:`ReferenceSearch`. :class:`QueryEngine` serves a fitted
:class:`ModelArtifact` through it and adds query normalization, a
bounded thread-safe LRU cache keyed by the raw query bytes plus ``(k,
mode, route)``, and the ``serve.*`` telemetry. All cache bookkeeping
happens under one lock while the distance math runs outside it, so
concurrent searches scale across threads and remain
bitwise-deterministic (the computation is pure; a racing duplicate
computes the same values). Both return one
:class:`~repro.search.NeighborResult`.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import as_dataset
from ..distances.backends import BackendMismatchWarning, resolve_backend
from ..distances.base import DistanceMeasure, get_measure
from ..distances.sliding.cross_correlation import (
    cc_max_from_reference,
    ncc_c_matrix_from_reference,
    sliding_reference,
)
from ..exceptions import ServingError
from ..index import (
    EuclideanScan,
    IndexSearchStats,
    PAALowerBoundIndex,
    ReferenceIndex,
    resolve_kind,
)
from ..normalization import get_normalizer
from ..observability import get_bus
from ..search.facade import NeighborResult
from .artifact import ModelArtifact

#: Default bound on the LRU query cache (entries, i.e. distinct queries).
DEFAULT_CACHE_SIZE = 1024


#: Valid ``mode=`` values of :meth:`ReferenceSearch.search`.
SEARCH_MODES = ("exact", "approx", "brute")


class ReferenceSearch:
    """Top-``k`` search of query batches in one frozen reference set.

    Parameters
    ----------
    X:
        The ``(n, m)`` reference series, already normalized as the
        queries will be.
    measure:
        Registry name (or object) of the distance measure.
    params:
        Measure parameters; defaults are merged in.
    indexes:
        Fitted :class:`~repro.index.ReferenceIndex` objects over ``X``.
    backend:
        Implementation-backend policy for the matrix route (``"auto"`` /
        ``"compiled"`` / ``"reference"``), resolved — and, for the
        compiled tier, JIT-warmed — here, so no search pays a
        mid-flight compile. The sliding and index routes (ED, DTW) run
        their specialized reference arithmetic regardless.
    """

    def __init__(
        self,
        X: np.ndarray,
        measure: str | DistanceMeasure,
        params=None,
        *,
        indexes: Sequence[ReferenceIndex] = (),
        backend: str = "auto",
    ):
        X = as_dataset(X, "references")
        self.X = X
        self.measure = get_measure(measure)
        self.params = self.measure.resolve_params(dict(params or {}))
        self._exact = tuple(ix for ix in indexes if ix.exact)
        self._approx = tuple(ix for ix in indexes if not ix.exact)
        self._indexes = tuple(indexes)
        if self.measure.category == "sliding":
            self.route = "sliding"
            self._reference = sliding_reference(X)
        elif self.measure.name == "dtw":
            self.route = "index"
            if not self._exact:
                self._exact = (
                    PAALowerBoundIndex.build(
                        X, measure="dtw", params=self.params,
                        segments=X.shape[1],
                    ),
                )
        elif self.measure.name == "euclidean":
            self.route = "index"
            if not self._exact:
                self._exact = (EuclideanScan(X, "euclidean", self.params),)
        else:
            self.route = "matrix"
        if self.route == "matrix":
            self.backend = resolve_backend(self.measure, backend).name
        else:
            self.backend = "reference"

    def search(
        self,
        queries,
        k: int = 1,
        *,
        mode: str = "exact",
        index: str | None = None,
    ) -> NeighborResult:
        """Top-``k`` nearest references of each (normalized) query.

        ``mode`` and ``index`` choose the answering path as described in
        the module docstring; ``index`` pins a fitted index by kind name
        (``"ed_scan"``, ``"grail_ann"``...; a retired Euclidean kind
        such as ``"dft_lb"`` names ``ed_scan``), and by default the
        first fitted index compatible with ``mode`` answers.
        """
        Q = as_dataset(queries, "queries")
        k = int(k)
        chosen, prune, engine = self.plan(Q, k, mode, index)
        indices, distances, stats = self.answer(Q, k, chosen, prune)
        return NeighborResult(
            indices=indices, distances=distances, engine=engine, stats=stats
        )

    def plan(
        self, Q: np.ndarray, k: int, mode: str, index: str | None
    ) -> tuple[ReferenceIndex | None, bool, str]:
        """Check one request and choose what answers it.

        Returns ``(index, prune, engine)``: the index to search (``None``
        for the full scan), whether it prunes, and the route name
        results report (``"sliding"``, ``"matrix"`` or
        ``"index:<kind>"``).
        """
        if Q.shape[1] != self.X.shape[1]:
            raise ServingError(
                f"query length {Q.shape[1]} != reference series length "
                f"{self.X.shape[1]}"
            )
        n = self.X.shape[0]
        if not 1 <= k <= n:
            raise ServingError(f"k must be in [1, {n}], got {k}")
        if mode not in SEARCH_MODES:
            raise ServingError(
                f"mode must be one of {SEARCH_MODES}, got {mode!r}"
            )
        chosen, prune = self._resolve_index(mode, index)
        engine = self.route if chosen is None else f"index:{chosen.kind}"
        return chosen, prune, engine

    def answer(
        self,
        Q: np.ndarray,
        k: int,
        index: ReferenceIndex | None,
        prune: bool,
    ) -> tuple[np.ndarray, np.ndarray, IndexSearchStats]:
        """Run a :meth:`plan` over normalized queries.

        Returns ``(indices, distances, stats)`` shaped like
        :meth:`ReferenceIndex.search`'s.
        """
        if index is not None:
            return index.search(Q, k, prune=prune)
        if self.route == "sliding":
            E = self._sliding_matrix(Q)
        else:
            E = self.measure.pairwise(
                Q, self.X, backend=self.backend, **self.params
            )
        order = np.argsort(E, axis=1, kind="stable")[:, :k]
        pairs = E.size
        return (
            order,
            np.take_along_axis(E, order, axis=1),
            IndexSearchStats(candidates=pairs, refined=pairs),
        )

    def _resolve_index(self, mode: str, index: str | None):
        """Pick the index (or ``None`` for a full scan) serving ``mode``.

        Returns ``(index_or_None, prune_flag)``.
        """
        if index is not None:
            index = resolve_kind(index, self.measure.name)
            chosen = next(
                (ix for ix in self._indexes if ix.kind == index), None
            )
            if chosen is None:
                fitted = [ix.kind for ix in self._indexes]
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
                    f"mode={mode!r}; fit an exact index (ed_scan / "
                    "paa_lb) or use mode='approx'"
                )
            return chosen, mode != "brute"
        if mode == "approx":
            if not self._approx:
                raise ServingError(
                    "mode='approx' requires an approximate index; fit the "
                    "artifact with index='grail_ann' (or 'spiral_ann')"
                )
            return self._approx[0], True
        if self._exact:
            return self._exact[0], mode != "brute"
        return None, True  # no index: exact == brute == full scan

    def _sliding_matrix(self, Q: np.ndarray) -> np.ndarray:
        """Dissimilarity matrix via the reference FFTs: the registered
        sliding matrix kernels with the reference built once, so the
        serving path and ``measure.pairwise`` agree bitwise."""
        name = self.measure.name
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
    """Thread-safe batched top-k search over a fitted artifact.

    Parameters
    ----------
    artifact:
        The fitted reference set (see :class:`ModelArtifact`).
    cache_size:
        Maximum number of distinct queries the LRU cache retains;
        ``0`` disables caching.
    backend:
        Implementation-backend policy for the matrix route (see
        :class:`ReferenceSearch`); ``backend="compiled"`` raises
        :class:`~repro.exceptions.BackendUnavailableError` here rather
        than on the first query. When the resolved tier differs from the
        one the artifact was fitted (validated) under, the engine emits
        a :class:`~repro.distances.backends.BackendMismatchWarning` and
        a ``serve.backend.mismatch`` counter.
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
        self.searcher = ReferenceSearch(
            artifact.train_X,
            artifact.measure,
            artifact.params,
            indexes=artifact.indexes,
            backend=backend,
        )
        self.route = self.searcher.route
        self.backend = self.searcher.backend
        self._normalizer = (
            None
            if artifact.normalization is None
            else get_normalizer(artifact.normalization)
        )
        # Cache entries are (indices, distances) row vectors of length k,
        # keyed by (query sha, k, mode:route) — exact and brute answers
        # are bitwise-identical but tracked separately so counters stay
        # interpretable.
        self._cache: OrderedDict[
            tuple[bytes, int, str], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        self._cache_size = int(cache_size)
        self._lock = threading.Lock()
        self._stats = CacheStats(capacity=self._cache_size)
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

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(self, queries) -> np.ndarray:
        """1-NN labels of a query batch: the top neighbour's label."""
        return self.artifact.train_y[self.search(queries).indices[:, 0]]

    def search(
        self,
        queries,
        *,
        k: int = 1,
        mode: str = "exact",
        index: str | None = None,
    ) -> NeighborResult:
        """Top-``k`` nearest references of each query in a batch.

        Queries (a single series or an ``(r, m)`` batch) are normalized
        with the artifact's method before comparison, exactly as the
        reference set was at fit time; ``k``, ``mode`` and ``index`` are
        :meth:`ReferenceSearch.search`'s. ``cache_hits`` on the result
        counts the queries answered from the LRU cache, and its
        ``stats`` account the rest.
        """
        Q = as_dataset(queries, "queries")
        k = int(k)
        chosen, prune, engine = self.searcher.plan(Q, k, mode, index)
        token = f"{mode}:{engine}"
        bus = get_bus()
        with bus.span(
            "serve.predict",
            measure=self.artifact.measure,
            route=engine,
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

            stats = IndexSearchStats(candidates=0, refined=0)
            indices = np.empty((Q.shape[0], k), dtype=np.intp)
            distances = np.empty((Q.shape[0], k), dtype=np.float64)
            for i, (idx, dist) in hits.items():
                indices[i] = idx
                distances[i] = dist
            if miss_rows:
                sub = Q[miss_rows]
                if self._normalizer is not None:
                    sub = self._normalizer.apply_dataset(sub)
                sub_idx, sub_dist, stats = self.searcher.answer(
                    sub, k, chosen, prune
                )
                if chosen is not None:
                    for name, value in (
                        ("candidates", stats.candidates),
                        ("refined", stats.refined),
                        ("pruned", stats.pruned),
                    ):
                        bus.count(
                            f"serve.index.{name}",
                            value,
                            kind=chosen.kind,
                            mode=mode,
                        )
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
            span.set(cache_hits=len(hits), pruned=stats.pruned)
            return NeighborResult(
                indices=indices,
                distances=distances,
                engine=engine,
                stats=stats,
                cache_hits=len(hits),
            )

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
