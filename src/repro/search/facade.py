"""One keyword-only entry point over the library's neighbor machinery.

Before the top-k API redesign, callers had to pick the right low-level
tool themselves: :func:`repro.search.mass` / :func:`top_k_matches` for
subsequence search, :func:`matrix_profile` for self-joins, or a
hand-rolled pairwise matrix for everything else. :func:`nearest_neighbors` is the facade that routes
between them from one declarative call::

    from repro.search import nearest_neighbors

    # whole-series top-3 under DTW (exact, LB_Keogh-pruned)
    res = nearest_neighbors(queries, references, measure="dtw", k=3,
                            params={"delta": 10.0})

    # exact top-5 under ED, through the cached-norm ed_scan kernel
    res = nearest_neighbors(queries, references, k=5)

    # top-2 subsequence matches of a pattern inside a long stream
    res = nearest_neighbors(pattern, stream, domain="subsequence", k=2)

    # self-join: each subsequence's nearest non-trivial neighbor
    res = nearest_neighbors(stream, domain="profile", window=50)

The whole-series domain is one call to
:class:`repro.serving.engine.ReferenceSearch`, the same search
:class:`~repro.serving.QueryEngine` serves artifacts through. Every
tuning argument is keyword-only; results come back as a
:class:`NeighborResult` with aligned ``(n_queries, k)`` index/distance
arrays regardless of which engine answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .._validation import as_dataset, as_series
from ..distances.base import get_measure
from ..exceptions import ValidationError
from ..index.base import IndexSearchStats
from .mass import mass, profile_rows, profile_top_k
from .matrix_profile import matrix_profile

_DOMAINS = ("whole", "subsequence", "profile")


@dataclass(frozen=True)
class NeighborResult:
    """Aligned top-k neighbours, from every path that answers them.

    ``indices[i, j]`` is the reference row (domain ``"whole"``) or the
    subsequence start offset (domains ``"subsequence"`` / ``"profile"``)
    of query ``i``'s ``j``-th nearest neighbor; ``distances`` matches it
    elementwise. Rows are sorted by ascending ``(distance, index)``.
    ``engine`` names the route that answered: ``"sliding"``,
    ``"matrix"`` or ``"index:<kind>"`` (the ``serve.predict`` span's
    ``route``), ``"mass"`` or ``"matrix_profile"``. ``stats`` counts the
    (query, candidate) pairs the search could have computed and the
    ones it did; ``cache_hits`` counts the queries
    :class:`~repro.serving.QueryEngine` answered from its cache (those
    are not in ``stats``).
    """

    indices: np.ndarray
    distances: np.ndarray
    engine: str
    stats: IndexSearchStats
    cache_hits: int = 0

    def __post_init__(self) -> None:
        if self.indices.shape != self.distances.shape:
            raise ValidationError(
                f"indices shape {self.indices.shape} != distances shape "
                f"{self.distances.shape}"
            )


def _subsequence(
    queries: np.ndarray, series: np.ndarray, *, k: int, exclusion: int | None
) -> NeighborResult:
    """Top-k non-overlapping z-normalized ED matches via MASS, one
    :func:`~repro.search.mass.mass` block per row block of queries."""
    q = queries.shape[1]
    radius = exclusion if exclusion is not None else max(1, q // 2)
    rows = profile_rows(series.shape[0], q)
    hits_per_query = [
        profile_top_k(profile, k=k, radius=radius)
        for start in range(0, queries.shape[0], rows)
        for profile in mass(queries[start : start + rows], series)
    ]
    found = min(len(hits) for hits in hits_per_query)
    if found < k:
        k = max(found, 1)
    indices = np.full((len(hits_per_query), k), -1, dtype=np.intp)
    distances = np.full((len(hits_per_query), k), np.inf)
    for i, hits in enumerate(hits_per_query):
        for j, (idx, dist) in enumerate(hits[:k]):
            indices[i, j] = idx
            distances[i, j] = dist
    pairs = queries.shape[0] * (series.shape[0] - queries.shape[1] + 1)
    return NeighborResult(
        indices=indices,
        distances=distances,
        engine="mass",
        stats=IndexSearchStats(candidates=pairs, refined=pairs),
    )


def nearest_neighbors(
    queries,
    references=None,
    *,
    measure: str = "euclidean",
    k: int = 1,
    params: Mapping[str, float] | None = None,
    index: Any = None,
    domain: str = "whole",
    window: int | None = None,
    exclusion: int | None = None,
) -> NeighborResult:
    """Find nearest neighbors across every search domain the library has.

    Keyword-only facade over the reference search, MASS subsequence
    search and the matrix profile. All arguments after ``references``
    are keyword-only.

    - ``domain="whole"`` (default): ``queries`` is ``(r, m)``,
      ``references`` is ``(n, m)``; top-``k`` rows under ``measure`` with
      ``params``, answered by
      :class:`~repro.serving.engine.ReferenceSearch` exactly as a
      :class:`~repro.serving.QueryEngine` without normalization would
      answer. Pass ``index=`` (a kind name or spec mapping, e.g.
      ``{"kind": "paa_lb", "segments": 16}`` under DTW) to search
      through a transient :mod:`repro.index` structure — exact kinds
      return identical answers, approximate kinds answer in
      ``mode="approx"``.
    - ``domain="subsequence"``: ``queries`` is one pattern or a batch of
      patterns; ``references`` is the long series scanned with MASS
      (z-normalized ED). ``exclusion`` is the trivial-match radius.
      Padded with ``(-1, inf)`` if fewer than ``k`` matches exist.
    - ``domain="profile"``: ``queries`` is the long series itself
      (``references`` must be omitted); returns each length-``window``
      subsequence's nearest non-trivial neighbor (the matrix profile,
      always ``k=1``).

    Returns a :class:`NeighborResult` with ``(n_queries, k)`` arrays.
    """
    if domain not in _DOMAINS:
        raise ValidationError(
            f"domain must be one of {_DOMAINS}, got {domain!r}"
        )
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if domain == "profile":
        if references is not None:
            raise ValidationError(
                "domain='profile' is a self-join: pass the series as "
                "`queries` and omit `references`"
            )
        if window is None:
            raise ValidationError("domain='profile' requires window=")
        if k != 1:
            raise ValidationError(
                "the matrix profile records exactly one neighbor per "
                "subsequence; k must be 1 for domain='profile'"
            )
        series = as_series(queries, "queries")
        mp = matrix_profile(series, window=window)
        pairs = mp.profile.shape[0] ** 2
        return NeighborResult(
            indices=np.asarray(mp.indices, dtype=np.intp).reshape(-1, 1),
            distances=np.asarray(mp.profile, dtype=np.float64).reshape(-1, 1),
            engine="matrix_profile",
            stats=IndexSearchStats(candidates=pairs, refined=pairs),
        )
    if references is None:
        raise ValidationError(f"domain={domain!r} requires references")
    if domain == "subsequence":
        series = as_series(references, "references")
        batch = as_dataset(queries, "queries")
        return _subsequence(batch, series, k=k, exclusion=exclusion)
    from ..index import build_index
    from ..serving.engine import ReferenceSearch

    references = as_dataset(references, "references")
    m = get_measure(measure)
    resolved = m.resolve_params(dict(params or {}))
    built = (
        ()
        if index is None
        else (build_index(index, references, measure=m.name, params=resolved),)
    )
    searcher = ReferenceSearch(references, m, resolved, indexes=built)
    mode = "approx" if built and not built[0].exact else "exact"
    return searcher.search(queries, k, mode=mode)
