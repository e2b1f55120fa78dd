"""Reference-set indexing: exact top-k kernels + approximate ANN.

Public surface of the sub-linear query path. Exact kinds (``ed_scan``
for Euclidean, ``paa_lb`` for banded DTW) return answers
bitwise-identical to the exhaustive scan; approximate kinds
(``grail_ann``, ``spiral_ann``) trade exactness for speed behind a
measured recall@1 recorded in their spec. Indexes are built at fit time
via ``ModelArtifact.fit(..., index=...)``, frozen into the artifact, and
queried through ``QueryEngine.search(..., mode=...)`` (or transiently
through ``nearest_neighbors(..., index=...)``), both by way of
:class:`repro.serving.engine.ReferenceSearch`, which builds the exact
kind itself when none was fitted. The retired Euclidean kinds
(``dft_lb``, ``isax``, and ``paa_lb`` under ED) resolve to ``ed_scan``.

Every kind shares one search loop — the k check against the kind's own
bound, the loop over groups of queries, the result arrays and the
:class:`IndexSearchStats` — one ``prune=False`` exhaustive scan and one
stable ``(distance, index)`` selection; approximate kinds supply a
per-query step, while ``ed_scan`` and ``paa_lb`` answer groups of
queries at once.
"""

from .ann import GRAILANNIndex, SPIRALANNIndex
from .base import (
    IndexSearchStats,
    ReferenceIndex,
    build_index,
    get_index_type,
    indexable_kinds,
    list_index_kinds,
    normalize_index_spec,
    normalize_index_specs,
    register_index,
    resolve_kind,
    restore_index,
)
from .lower_bound import PAALowerBoundIndex
from .scan import EuclideanScan

__all__ = [
    "IndexSearchStats",
    "ReferenceIndex",
    "EuclideanScan",
    "PAALowerBoundIndex",
    "GRAILANNIndex",
    "SPIRALANNIndex",
    "build_index",
    "restore_index",
    "get_index_type",
    "register_index",
    "resolve_kind",
    "list_index_kinds",
    "indexable_kinds",
    "normalize_index_spec",
    "normalize_index_specs",
]
