r"""k-Shape clustering (Paparrizos & Gravano, reference [110] of the paper).

k-Shape is the state-of-the-art time-series clustering method built on the
cross-correlation machinery of Section 6: it alternates

1. **assignment** — each series joins the cluster whose centroid is
   closest under the shape-based distance SBD = NCC_c, and
2. **refinement** — each centroid becomes the *shape extract* of its
   members: every member is SBD-aligned to the current centroid, and the
   new centroid is the maximizer of squared normalized correlation, i.e.
   the dominant eigenvector of the matrix
   :math:`M = Z^\top Z` where :math:`Z` holds the aligned, z-normalized
   members (computed on the centered space, following the published
   algorithm).

The paper's Section 6 notes this method "achieved state-of-the-art
performance" for clustering; it is the flagship downstream application of
the sliding category and powers the clustering example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import EPS, as_dataset
from ..distances.sliding.cross_correlation import best_shift, ncc_c
from ..exceptions import EvaluationError, ParameterError
from ..normalization import ZSCORE, zscore


def _align_to(reference: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Shift *series* to its best SBD alignment against *reference*."""
    shift = best_shift(reference, series)
    m = series.shape[0]
    aligned = np.zeros(m)
    if shift >= 0:
        aligned[shift:] = series[: m - shift]
    else:
        aligned[: m + shift] = series[-shift:]
    return aligned


def shape_extract(members: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Shape-extraction step: the Rayleigh-quotient-optimal centroid.

    Members are aligned to *reference*, z-normalized, and the dominant
    eigenvector of the centered Gram matrix is returned (sign-fixed to
    correlate positively with the reference).
    """
    members = as_dataset(members)
    m = members.shape[1]
    aligned = np.vstack([_align_to(reference, row) for row in members])
    z = ZSCORE.apply_dataset(aligned)
    # Centering matrix Q = I - 1/m keeps the extract zero-mean.
    q = np.eye(m) - np.ones((m, m)) / m
    gram = q @ (z.T @ z) @ q
    eigvals, eigvecs = np.linalg.eigh(gram)
    centroid = eigvecs[:, -1]
    if np.dot(centroid, reference) < 0 or (
        np.abs(np.dot(centroid, reference)) < EPS
        and centroid.sum() < 0
    ):
        centroid = -centroid
    return zscore(centroid)


@dataclass(frozen=True)
class KShapeResult:
    """Clustering output: labels, centroids, and the convergence trace."""

    labels: np.ndarray
    centroids: np.ndarray
    iterations: int
    inertia: float  # sum of SBD distances to assigned centroids


def kshape(
    X,
    n_clusters: int,
    max_iterations: int = 100,
    random_state: int = 0,
) -> KShapeResult:
    """Cluster z-normalized series with k-Shape.

    Parameters
    ----------
    X:
        ``(n, m)`` dataset (rows are z-normalized internally).
    n_clusters:
        Number of clusters ``k >= 2``.
    max_iterations:
        Assignment/refinement rounds before forced stop.
    random_state:
        Seed for the random initial assignment (the published algorithm's
        initialization).
    """
    X = as_dataset(X)
    n = X.shape[0]
    if n_clusters < 2:
        raise ParameterError("n_clusters must be >= 2")
    if n_clusters > n:
        raise EvaluationError(
            f"cannot form {n_clusters} clusters from {n} series"
        )
    Z = ZSCORE.apply_dataset(X)
    rng = np.random.default_rng(random_state)
    labels = rng.integers(0, n_clusters, size=n)
    # Guarantee non-empty initial clusters.
    labels[rng.permutation(n)[:n_clusters]] = np.arange(n_clusters)
    centroids = np.zeros((n_clusters, X.shape[1]))
    for iteration in range(1, max_iterations + 1):
        # Refinement.
        for c in range(n_clusters):
            members = Z[labels == c]
            if members.shape[0] == 0:
                # Re-seed an empty cluster with the worst-fitting series.
                distances = np.array(
                    [ncc_c(Z[i], centroids[labels[i]]) for i in range(n)]
                )
                worst = int(np.argmax(distances))
                labels[worst] = c
                members = Z[labels == c]
            reference = (
                centroids[c]
                if np.linalg.norm(centroids[c]) > EPS
                else members[0]
            )
            centroids[c] = shape_extract(members, reference)
        # Assignment.
        new_labels = np.array(
            [
                int(np.argmin([ncc_c(row, cent) for cent in centroids]))
                for row in Z
            ]
        )
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    inertia = float(
        sum(ncc_c(Z[i], centroids[labels[i]]) for i in range(n))
    )
    return KShapeResult(
        labels=labels,
        centroids=centroids,
        iterations=iteration,
        inertia=inertia,
    )
