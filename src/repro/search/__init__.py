"""Similarity search: MASS, the matrix profile, and the top-k facade.

The fast-subsequence-search substrate the paper's Section 6 connects to
cross-correlation (reference [103]) plus the matrix profile ([157, 158])
for motif and anomaly discovery, unified behind one keyword-only entry
point::

    from repro.search import nearest_neighbors, mass, matrix_profile

    res = nearest_neighbors(queries, refs, measure="dtw", k=3,
                            params={"delta": 10.0})
    profile = mass(query, long_series)      # z-normalized ED profile
    mp = matrix_profile(long_series, window=50)
    a, b, d = mp.motif()

The whole-series domain of :func:`nearest_neighbors` is one call to
:class:`repro.serving.engine.ReferenceSearch`, the top-k search the
serving engine also answers through (exact DTW top-k is the index
layer's ascending-bound blocks, :class:`repro.index.PAALowerBoundIndex`);
every domain returns one
:class:`NeighborResult` (``(n, k)`` indices and distances, the answering
route as ``engine``, an :class:`~repro.index.IndexSearchStats` and
``cache_hits``).
"""

from .facade import NeighborResult, nearest_neighbors
from .mass import (
    best_match,
    clamped_window_stats,
    mass,
    rolling_mean_std,
    sliding_dot_product,
    top_k_matches,
)
from .matrix_profile import MatrixProfile, matrix_profile

__all__ = [
    "nearest_neighbors",
    "NeighborResult",
    "mass",
    "best_match",
    "top_k_matches",
    "sliding_dot_product",
    "rolling_mean_std",
    "clamped_window_stats",
    "matrix_profile",
    "MatrixProfile",
]
