r"""Approximate nearest-neighbor index over learned embeddings.

The paper's Section 9 embeddings (GRAIL [109], SPIRAL [82]) map series
to short vectors whose Euclidean geometry approximates an expensive
measure — which makes them a natural *approximate* index: scan the
``d``-dimensional embeddings instead of the ``m``-sample series, keep
the ``rerank`` closest candidates, and re-rank only those with the true
measure. Answers are not guaranteed exact, so the index measures its
own recall@1 at build time on held-out-style self-queries (each sampled
series searches the *rest* of the reference set, excluding itself, and
the result is compared against the exhaustive scan). The measured
recall is frozen into the spec — and therefore into the artifact
fingerprint — and an optional ``min_recall`` gate fails the build
outright when the embedding is not good enough for the data.

Two kinds are registered: ``grail_ann`` (SINK-kernel Nyström embedding,
a strong proxy for shape similarity) and ``spiral_ann`` (DTW landmark
factorization). Both support *any* registered measure for the re-rank
stage: the embedding decides who the candidates are; the true measure
decides who wins.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..distances.base import get_measure
from ..distances.lockstep.minkowski import euclidean
from ..embeddings.grail import GRAIL
from ..embeddings.spiral import SPIRAL
from ..exceptions import IndexBuildError
from .base import ReferenceIndex, register_index, top_k_rows

#: Default embedding width — much smaller than the paper's Table-7
#: representation length (100): the index only needs candidate ranking,
#: not standalone 1-NN accuracy.
DEFAULT_ANN_DIMENSIONS = 32
#: Default number of embedding-space candidates re-ranked with the true
#: measure per query.
DEFAULT_RERANK = 64
#: Default number of self-queries used to measure recall@1 at build.
DEFAULT_RECALL_SAMPLE = 32


class _EmbeddingANNIndex(ReferenceIndex):
    """Shared embed → shortlist → true-measure re-rank machinery."""

    exact = False
    supports = None  # any measure with a pairwise kernel

    def __init__(
        self,
        X,
        measure,
        params,
        *,
        embedding,
        embeddings: np.ndarray,
        rerank: int,
        recall: float,
        recall_sample: int,
    ):
        super().__init__(X, measure, params)
        self._embedding = embedding
        self._embeddings = np.ascontiguousarray(embeddings, dtype=np.float64)
        self.rerank = int(rerank)
        self.recall = float(recall)
        self.recall_sample = int(recall_sample)
        self._measure_obj = get_measure(measure)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def _make_embedding(cls, *, dimensions: int, params: Mapping[str, float]):
        raise NotImplementedError

    @classmethod
    def build(
        cls,
        X,
        *,
        measure,
        params,
        dimensions: int = DEFAULT_ANN_DIMENSIONS,
        rerank: int = DEFAULT_RERANK,
        recall_sample: int = DEFAULT_RECALL_SAMPLE,
        min_recall: float | None = None,
    ):
        """Fit the embedding on ``X``, embed it, and measure recall@1."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.shape[0] < 3:
            raise IndexBuildError(
                "embedding ANN index needs at least 3 reference series"
            )
        rerank = max(1, min(int(rerank), X.shape[0]))
        embedding = cls._make_embedding(dimensions=int(dimensions), params=params)
        embedding.fit(X)
        embeddings = embedding.transform(X)
        index = cls(
            X,
            measure,
            params,
            embedding=embedding,
            embeddings=embeddings,
            rerank=rerank,
            recall=0.0,
            recall_sample=int(recall_sample),
        )
        index.recall = index._measure_recall(int(recall_sample))
        if min_recall is not None and index.recall < float(min_recall):
            raise IndexBuildError(
                f"{cls.kind} measured recall@1 {index.recall:.3f} below the "
                f"requested min_recall {float(min_recall):.3f}; raise 'rerank' "
                f"or 'dimensions', or use an exact index"
            )
        return index

    def _measure_recall(self, sample: int) -> float:
        """Leave-one-out recall@1 on evenly spread self-queries.

        Each sampled series queries the reference set with itself
        excluded (its own embedding would trivially win), and the hit is
        scored against the exhaustive true-measure scan. Deterministic:
        the sample is an even grid, not a random draw.
        """
        n = self.n
        sample = max(1, min(sample, n))
        picks = np.unique(np.linspace(0, n - 1, sample).round().astype(np.intp))
        hits = 0
        for i in picks:
            exact = self._exact_nn(int(i))
            indices, _, _ = self._nearest(self._X[i], 1, exclude=int(i))
            hits += int(indices[0] == exact)
        return hits / picks.shape[0]

    def _exact_nn(self, i: int) -> int:
        """True-measure nearest neighbor of row ``i``, excluding itself."""
        dists = self._measure_obj.pairwise(
            self._X[i : i + 1], self._X, **self.params
        )[0]
        dists[i] = np.inf
        return int(np.argmin(dists))

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _nearest(
        self, q: np.ndarray, k: int, exclude: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Embedding shortlist, re-ranked with the true measure.

        ``exclude`` drops one reference row (the recall self-queries).
        """
        eq = self._embedding.transform(q[None, :])[0]
        emb_d = euclidean(self._embeddings, eq)
        if exclude is not None:
            emb_d[exclude] = np.inf
        shortlist = np.argsort(emb_d, kind="stable")[: self.rerank]
        shortlist = np.sort(shortlist)  # ascending row order for tie parity
        true_d = self._measure_obj.pairwise(
            q[None, :], self._X[shortlist], **self.params
        )[0]
        (indices,), (distances,) = top_k_rows(
            np.zeros_like(shortlist), shortlist, true_d, 1, k
        )
        return indices, distances, shortlist.shape[0]

    @property
    def max_k(self) -> int:
        """At most ``rerank`` candidates are ranked per query."""
        return min(self.n, self.rerank)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def spec(self) -> dict:
        """Fingerprinted configuration, including the measured recall."""
        return {
            "kind": self.kind,
            "dimensions": int(self._embedding.dimensions),
            "rerank": self.rerank,
            "recall_sample": self.recall_sample,
            "recall": round(self.recall, 6),
            **self._embedding_spec(),
        }

    def _embedding_spec(self) -> dict:
        raise NotImplementedError

    def arrays(self) -> dict[str, np.ndarray]:
        """Persisted embeddings + frozen embedding internals."""
        return {
            "embeddings": self._embeddings,
            "landmarks": self._embedding._landmark_series,
            "projection": self._embedding._projection,
        }

    def describe(self) -> dict:
        """Summary including the measured recall."""
        return {"exact": False, **self.spec()}


@register_index
class GRAILANNIndex(_EmbeddingANNIndex):
    """SINK-kernel Nyström embedding shortlist (``kind="grail_ann"``)."""

    kind = "grail_ann"

    @classmethod
    def _make_embedding(cls, *, dimensions: int, params: Mapping[str, float]):
        # Fixed gamma: the "auto" heuristic refits per dataset, which is
        # too slow for the serving fit path and unnecessary for ranking.
        return GRAIL(dimensions=dimensions, gamma=5.0)

    def _embedding_spec(self) -> dict:
        return {"gamma": float(self._embedding.fitted_gamma_)}

    @classmethod
    def restore(cls, spec, arrays, X, *, measure, params):
        """Revive the frozen GRAIL state without refitting."""
        embedding = GRAIL(
            dimensions=int(spec["dimensions"]), gamma=float(spec["gamma"])
        )
        embedding.fitted_gamma_ = float(spec["gamma"])
        embedding._landmark_series = np.ascontiguousarray(
            arrays["landmarks"], dtype=np.float64
        )
        embedding._projection = np.ascontiguousarray(
            arrays["projection"], dtype=np.float64
        )
        embedding._fitted = True
        return cls(
            X,
            measure,
            params,
            embedding=embedding,
            embeddings=arrays["embeddings"],
            rerank=int(spec["rerank"]),
            recall=float(spec["recall"]),
            recall_sample=int(spec["recall_sample"]),
        )


@register_index
class SPIRALANNIndex(_EmbeddingANNIndex):
    """DTW landmark-factorization shortlist (``kind="spiral_ann"``)."""

    kind = "spiral_ann"

    @classmethod
    def _make_embedding(cls, *, dimensions: int, params: Mapping[str, float]):
        # Reuse the artifact's DTW band when serving a DTW measure so the
        # embedding preserves the same geometry it shortlists for.
        delta = float(params.get("delta", 10.0))
        return SPIRAL(dimensions=dimensions, delta=delta)

    def _embedding_spec(self) -> dict:
        return {
            "delta": float(self._embedding.delta),
            "bandwidth": float(self._embedding._bandwidth),
        }

    @classmethod
    def restore(cls, spec, arrays, X, *, measure, params):
        """Revive the frozen SPIRAL state without refitting."""
        embedding = SPIRAL(
            dimensions=int(spec["dimensions"]), delta=float(spec["delta"])
        )
        embedding._bandwidth = float(spec["bandwidth"])
        embedding._landmark_series = np.ascontiguousarray(
            arrays["landmarks"], dtype=np.float64
        )
        embedding._projection = np.ascontiguousarray(
            arrays["projection"], dtype=np.float64
        )
        embedding._fitted = True
        return cls(
            X,
            measure,
            params,
            embedding=embedding,
            embeddings=arrays["embeddings"],
            rerank=int(spec["rerank"]),
            recall=float(spec["recall"]),
            recall_sample=int(spec["recall_sample"]),
        )
