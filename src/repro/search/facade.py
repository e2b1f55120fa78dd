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

    # sub-linear exact search through a transient lower-bound index
    res = nearest_neighbors(queries, references, k=5, index="dft_lb")

    # top-2 subsequence matches of a pattern inside a long stream
    res = nearest_neighbors(pattern, stream, domain="subsequence", k=2)

    # self-join: each subsequence's nearest non-trivial neighbor
    res = nearest_neighbors(stream, domain="profile", window=50)

Every tuning argument is keyword-only; results come back as a
:class:`NeighborResult` with aligned ``(n_queries, k)`` index/distance
arrays regardless of which engine answered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .._validation import as_dataset, as_series
from ..distances.base import get_measure
from ..exceptions import ValidationError
from .mass import top_k_matches
from .matrix_profile import matrix_profile

_DOMAINS = ("whole", "subsequence", "profile")


@dataclass(frozen=True)
class NeighborResult:
    """Aligned neighbor indices and distances from the search facade.

    ``indices[i, j]`` is the reference row (domain ``"whole"``) or the
    subsequence start offset (domains ``"subsequence"`` / ``"profile"``)
    of query ``i``'s ``j``-th nearest neighbor; ``distances`` matches it
    elementwise. Rows are sorted by ascending distance. ``engine`` names
    which machinery answered (``"pairwise"``, ``"index:<kind>"``,
    ``"mass"`` or ``"matrix_profile"``).
    """

    indices: np.ndarray
    distances: np.ndarray
    k: int
    measure: str
    domain: str
    engine: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.indices.shape != self.distances.shape:
            raise ValidationError(
                f"indices shape {self.indices.shape} != distances shape "
                f"{self.distances.shape}"
            )


def _whole_series(
    queries: np.ndarray,
    references: np.ndarray,
    *,
    measure: str,
    k: int,
    params: Mapping[str, float],
    index: Any,
) -> NeighborResult:
    """Exact whole-series top-k: transient index or pairwise."""
    m = get_measure(measure)
    resolved = m.resolve_params(params)
    if queries.shape[1] != references.shape[1]:
        raise ValidationError(
            f"queries have length {queries.shape[1]} but references have "
            f"length {references.shape[1]}"
        )
    if not 1 <= k <= references.shape[0]:
        raise ValidationError(
            f"k must be in [1, {references.shape[0]}], got {k}"
        )
    if index is None and m.name == "dtw":
        # The UCR-suite LB_Keogh -> early-abandon search: paa_lb with one
        # frame per sample, where LB_PAA is exactly LB_Keogh.
        index = {"kind": "paa_lb", "segments": references.shape[1]}
    if index is not None:
        from ..index import build_index

        built = build_index(index, references, measure=m.name, params=resolved)
        indices, distances, stats = built.search(queries, k)
        return NeighborResult(
            indices=indices,
            distances=distances,
            k=k,
            measure=m.name,
            domain="whole",
            engine=f"index:{built.kind}",
            extras={"index_stats": stats.to_dict(), "exact": built.exact},
        )
    matrix = m.pairwise(queries, references, **resolved)
    order = np.argsort(matrix, axis=1, kind="stable")[:, :k]
    return NeighborResult(
        indices=order.astype(np.intp),
        distances=np.take_along_axis(matrix, order, axis=1),
        k=k,
        measure=m.name,
        domain="whole",
        engine="pairwise",
    )


def _subsequence(
    queries: np.ndarray, series: np.ndarray, *, k: int, exclusion: int | None
) -> NeighborResult:
    """Top-k non-overlapping z-normalized ED matches via MASS."""
    hits_per_query = [
        top_k_matches(q, series, k=k, exclusion=exclusion) for q in queries
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
    return NeighborResult(
        indices=indices,
        distances=distances,
        k=k,
        measure="zeuclidean",
        domain="subsequence",
        engine="mass",
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

    Keyword-only facade over the pairwise scan, the :mod:`repro.index`
    lower-bound/ANN indexes, MASS subsequence search and the matrix
    profile. All arguments after ``references`` are keyword-only.

    - ``domain="whole"`` (default): ``queries`` is ``(r, m)``,
      ``references`` is ``(n, m)``; top-``k`` rows under ``measure`` with
      ``params``. Pass ``index=`` (a kind name or spec mapping, e.g.
      ``"dft_lb"`` or ``{"kind": "paa_lb", "segments": 16}``) to search
      through a transient :mod:`repro.index` structure instead of the
      exhaustive scan — exact kinds return identical answers. DTW
      without ``index=`` is searched through a transient full-resolution
      ``paa_lb`` (the UCR-suite LB_Keogh -> early-abandon cascade).
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
        return NeighborResult(
            indices=np.asarray(mp.indices, dtype=np.intp).reshape(-1, 1),
            distances=np.asarray(mp.profile, dtype=np.float64).reshape(-1, 1),
            k=1,
            measure="zeuclidean",
            domain="profile",
            engine="matrix_profile",
            extras={"window": int(window)},
        )
    if references is None:
        raise ValidationError(f"domain={domain!r} requires references")
    if domain == "subsequence":
        series = as_series(references, "references")
        batch = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return _subsequence(batch, series, k=k, exclusion=exclusion)
    return _whole_series(
        as_dataset(queries, "queries"),
        as_dataset(references, "references"),
        measure=measure,
        k=k,
        params=dict(params or {}),
        index=index,
    )
