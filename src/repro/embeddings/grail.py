r"""GRAIL — Generic RepresentAtIon Learning (paper Section 9).

GRAIL [109] builds similarity-preserving representations with a Nystrom
approximation of the SINK kernel:

1. select ``k`` landmark series from the training set (the original uses
   k-Shape centroids; we use deterministic k-means++-style seeding under
   SBD, which preserves the "diverse, shape-representative landmarks"
   property at a fraction of the code);
2. eigendecompose the ``k x k`` SINK kernel matrix among landmarks;
3. embed any series via its SINK similarities to the landmarks projected on
   the scaled eigenbasis, keeping the top components.

ED over the representations then approximates the (distance induced by the)
SINK kernel. GRAIL is the only embedding whose 1-NN accuracy is comparable
to NCC_c in the paper (Table 7).
"""

from __future__ import annotations

import numpy as np

from ..distances.kernels.sink import sink_similarity_matrix
from ..distances.sliding.cross_correlation import (
    SlidingReference,
    ncc_c_matrix_from_reference,
    sliding_reference,
)
from .base import Embedding, register_embedding


def select_landmarks_sbd(
    X: np.ndarray, k: int, random_state: int = 0
) -> np.ndarray:
    """Deterministic k-means++-style landmark indices under SBD.

    The first landmark is the series closest to the dataset's mean shape;
    each next landmark maximizes its SBD distance to the already chosen
    set, yielding diverse shape representatives.
    """
    n = X.shape[0]
    k = min(k, n)
    spectra = sliding_reference(X)

    def sbd_to(target: SlidingReference) -> np.ndarray:
        return ncc_c_matrix_from_reference(spectra, target)[:, 0]

    first = int(np.argmin(sbd_to(sliding_reference(X.mean(axis=0)[None, :]))))
    chosen = [first]
    min_dist = sbd_to(spectra.take(first))
    while len(chosen) < k:
        # SBD(x, x) is 0 by definition, but rounding can leave a chosen
        # landmark just above 0 and get its index picked again.
        min_dist[chosen] = 0.0
        nxt = int(np.argmax(min_dist))
        if min_dist[nxt] <= 0:
            # Remaining series duplicate chosen landmarks; fall back to
            # deterministic round-robin fill.
            remaining = [i for i in range(n) if i not in chosen]
            chosen.extend(remaining[: k - len(chosen)])
            break
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, sbd_to(spectra.take(nxt)))
    return np.asarray(chosen[:k], dtype=np.intp)


@register_embedding
class GRAIL(Embedding):
    """Nystrom SINK-kernel representation (see module docstring)."""

    name = "grail"
    label = "GRAIL"
    preserves = "sink"

    #: Candidate gammas for the "auto" tuning heuristic of [109].
    GAMMA_CANDIDATES: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)

    def __init__(
        self,
        dimensions: int = 100,
        random_state: int = 0,
        gamma: float | str = 5.0,
        landmarks: int | None = None,
    ):
        super().__init__(dimensions, random_state)
        self.gamma = gamma if gamma == "auto" else float(gamma)
        self.landmarks = landmarks
        self.fitted_gamma_: float | None = None
        self._landmark_series: np.ndarray | None = None
        self._projection: np.ndarray | None = None

    def _kernel_matrix(self, landmarks: np.ndarray, gamma: float) -> np.ndarray:
        spectra = sliding_reference(landmarks)
        # sim[j, i] can differ from sim[i, j] in the last bit: mirror the
        # upper triangle so the kernel is exactly symmetric, diagonal 1.
        upper = np.triu(sink_similarity_matrix(spectra, spectra, gamma), 1)
        kernel = upper + upper.T
        np.fill_diagonal(kernel, 1.0)
        return kernel

    def _select_gamma(self, landmarks: np.ndarray) -> tuple[float, np.ndarray]:
        """The [109] tuning heuristic: pick the gamma whose landmark
        kernel concentrates the most variance in the kept components
        while remaining non-degenerate."""
        if self.gamma != "auto":
            gamma = float(self.gamma)
            return gamma, self._kernel_matrix(landmarks, gamma)
        d = self._effective_dims(landmarks.shape[0])
        best: tuple[float, np.ndarray] | None = None
        best_score = -np.inf
        for gamma in self.GAMMA_CANDIDATES:
            kernel = self._kernel_matrix(landmarks, gamma)
            eigvals = np.sort(np.linalg.eigvalsh(kernel))[::-1]
            total = float(eigvals[eigvals > 0].sum())
            if total <= 0:
                continue
            captured = float(eigvals[:d].sum()) / total
            # Penalize the degenerate regime where one component holds
            # everything (kernel ~ all-ones: no discrimination left).
            top_share = float(eigvals[0]) / total
            score = captured - top_share
            if score > best_score:
                best_score = score
                best = (gamma, kernel)
        assert best is not None
        return best

    def _fit(self, X: np.ndarray) -> None:
        k = self.landmarks if self.landmarks is not None else self.dimensions
        k = max(2, min(k, X.shape[0]))
        idx = select_landmarks_sbd(X, k, self.random_state)
        landmarks = X[idx]
        gamma, kernel = self._select_gamma(landmarks)
        self.fitted_gamma_ = gamma
        eigvals, eigvecs = np.linalg.eigh(kernel)
        order = np.argsort(eigvals)[::-1]
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        keep = eigvals > 1e-8
        eigvals, eigvecs = eigvals[keep], eigvecs[:, keep]
        d = self._effective_dims(eigvals.shape[0])
        self._landmark_series = landmarks
        self._projection = eigvecs[:, :d] / np.sqrt(eigvals[:d])

    def _transform(self, X: np.ndarray) -> np.ndarray:
        assert self._landmark_series is not None and self._projection is not None
        assert self.fitted_gamma_ is not None
        sims = sink_similarity_matrix(
            sliding_reference(X),
            sliding_reference(self._landmark_series),
            self.fitted_gamma_,
        )
        return sims @ self._projection
