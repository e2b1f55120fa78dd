"""Online query-serving: fitted artifacts, a batched 1-NN engine, HTTP.

The subsystem that turns the paper's offline verdicts (deploy NCC_c/SBD
or a tuned elastic measure — Sections 6-7) into something that can
answer live traffic, in three layers:

- :class:`ModelArtifact` (:mod:`repro.serving.artifact`) — fit once,
  save/load as a content-hash-verified ``.npz`` + JSON manifest;
- :class:`QueryEngine` (:mod:`repro.serving.engine`) — batched top-k
  search (``search(queries, k=..., mode="exact"|"approx"|"brute")``)
  through :class:`ReferenceSearch`, the library's one nearest-neighbour
  core (per-family fast paths built when the engine is constructed,
  optional sub-linear reference indexes from :mod:`repro.index`), plus
  query normalization and a bounded LRU query cache; both return one
  :class:`~repro.search.NeighborResult`;
- :class:`ReproServer` (:mod:`repro.serving.server`) — a stdlib
  ``ThreadingHTTPServer`` with load shedding (503 + ``Retry-After``),
  ``/healthz``, ``/metrics``, live ``/stream`` ingestion endpoints
  (backed by :class:`StreamRegistry`, :mod:`repro.serving.streams`) and
  graceful SIGTERM drains, run via ``repro serve``.

Quickstart::

    from repro.serving import ModelArtifact, QueryEngine

    artifact = ModelArtifact.fit(train_X, train_y, measure="euclidean",
                                 normalization="zscore", index="grail_ann")
    artifact.save("artifact/")
    engine = QueryEngine(ModelArtifact.load("artifact/"))
    labels = engine.predict(queries)        # == offline one_nn_predict
    top3 = engine.search(queries, k=3)      # exact: the ed_scan kernel
    near = engine.search(queries, k=3, mode="approx")  # GRAIL ANN
"""

from .artifact import ARTIFACT_SCHEMA, ModelArtifact
from .engine import SEARCH_MODES, CacheStats, QueryEngine, ReferenceSearch
from .server import (
    DEFAULT_MAX_INFLIGHT,
    AdmissionGate,
    ReproServer,
    serve_artifact,
)
from .streams import (
    DEFAULT_MAX_STREAMS,
    DEFAULT_STREAM_CAPACITY,
    StreamHandle,
    StreamRegistry,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ModelArtifact",
    "QueryEngine",
    "ReferenceSearch",
    "CacheStats",
    "SEARCH_MODES",
    "ReproServer",
    "AdmissionGate",
    "serve_artifact",
    "DEFAULT_MAX_INFLIGHT",
    "StreamRegistry",
    "StreamHandle",
    "DEFAULT_MAX_STREAMS",
    "DEFAULT_STREAM_CAPACITY",
]
