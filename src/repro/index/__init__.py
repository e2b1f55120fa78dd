"""Reference-set indexing: exact lower-bound filters + approximate ANN.

Public surface of the sub-linear query path. Exact kinds (``dft_lb``,
``paa_lb``, ``isax``) return answers bitwise-identical to the exhaustive
scan; approximate kinds (``grail_ann``, ``spiral_ann``) trade exactness
for speed behind a measured recall@1 recorded in their spec. Indexes are
built at fit time via ``ModelArtifact.fit(..., index=...)``, frozen into
the artifact, and queried through ``QueryEngine.search(..., mode=...)``
(or transiently through ``nearest_neighbors(..., index=...)``), both by
way of :class:`repro.serving.engine.ReferenceSearch`.

Every kind shares one search loop, :meth:`ReferenceIndex.search` — the
k check against the kind's own bound, the per-query loop, the result
arrays and the :class:`IndexSearchStats` — and one ``prune=False``
exhaustive scan; a kind supplies only its per-query step.
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
    restore_index,
)
from .isax import ISAXTreeIndex
from .lower_bound import DFTLowerBoundIndex, PAALowerBoundIndex

__all__ = [
    "IndexSearchStats",
    "ReferenceIndex",
    "DFTLowerBoundIndex",
    "PAALowerBoundIndex",
    "ISAXTreeIndex",
    "GRAILANNIndex",
    "SPIRALANNIndex",
    "build_index",
    "restore_index",
    "get_index_type",
    "register_index",
    "list_index_kinds",
    "indexable_kinds",
    "normalize_index_spec",
    "normalize_index_specs",
]
