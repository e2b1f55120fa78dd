"""Dissimilarity-matrix construction with normalization handling.

The evaluation sweeps (measure x normalization) combinations. Seven of the
eight normalization methods transform each series independently, so the
datasets are normalized once (one row-wise call per dataset) and the
measure's (possibly vectorized) ``pairwise`` runs unchanged.
AdaptiveScaling is pairwise — the scaling factor depends on both series of
every comparison — so each query row gets its factors against every
reference row in one reduction, and the scaled references go through the
measure's own batched ``pairwise`` in one call per query row.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_dataset
from ..distances.backends import active_backend
from ..distances.base import DistanceMeasure, get_measure
from ..normalization import Normalizer, get_normalizer
from ..observability import get_bus


def dissimilarity_matrix(
    measure: str | DistanceMeasure,
    X,
    Y=None,
    normalization: str | Normalizer | None = None,
    *,
    backend: str | None = None,
    **params: float,
) -> np.ndarray:
    """``D[i, j] = d(norm(X[i]), norm(Y[j]))`` for a named measure.

    ``Y=None`` produces the self-distance matrix ``W``; otherwise the
    test-vs-train matrix ``E`` (paper Section 3 notation).

    ``backend`` selects the implementation tier (``"auto"`` /
    ``"compiled"`` / ``"reference"``; ``None`` defers to the ambient
    policy installed by :func:`repro.distances.use_backend`).

    Every call emits a ``matrix.compute`` span carrying the measure,
    matrix kind, normalization, shape, resolved parameters and the
    active implementation backend — the finest-grained level of the
    evaluation trace.
    """
    measure = get_measure(measure)
    norm = None if normalization is None else get_normalizer(normalization)
    with get_bus().span(
        "matrix.compute",
        measure=measure.name,
        kind="W" if Y is None else "E",
        normalization=None if norm is None else norm.name,
        n_x=len(X),
        n_y=len(X) if Y is None else len(Y),
        params=measure.resolve_params(params),
        backend=active_backend(measure, backend),
    ):
        if norm is None:
            return measure.pairwise(X, Y, backend=backend, **params)
        if not norm.is_pairwise:
            Xn = norm.apply_dataset(as_dataset(X))
            Yn = None if Y is None else norm.apply_dataset(as_dataset(Y))
            return measure.pairwise(Xn, Yn, backend=backend, **params)
        return _pairwise_normalized(
            measure, norm, X, Y, backend=backend, **params
        )


def _pairwise_normalized(
    measure: DistanceMeasure,
    norm: Normalizer,
    X,
    Y=None,
    *,
    backend: str | None = None,
    **params: float,
) -> np.ndarray:
    """Pairwise-normalization path (AdaptiveScaling).

    Row ``i`` is ``pairwise`` of ``X[i]`` against every row of ``Y``
    scaled by its own factor, so each category reaches its batched
    kernel and memory stays O(n_y * m) per row. ``W`` (``Y=None``) is
    computed in full: the factor makes it asymmetric.
    """
    Xa = as_dataset(X)
    Ya = Xa if Y is None else as_dataset(Y)
    out = np.empty((Xa.shape[0], Ya.shape[0]), dtype=np.float64)
    for i in range(Xa.shape[0]):
        x, scaled = norm.pair_transform(Xa[i], Ya)
        out[i] = measure.pairwise(x[None, :], scaled, backend=backend, **params)[0]
    return out


def evaluation_matrices(
    measure: str | DistanceMeasure,
    dataset,
    normalization: str | Normalizer | None = None,
    need_train_matrix: bool = True,
    **params: float,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Paper-style ``(W, E)`` matrices for a dataset.

    ``W`` (train vs train) feeds leave-one-out tuning and is skipped when
    ``need_train_matrix=False`` to save the dominant cost for
    parameter-free measures.
    """
    W = (
        dissimilarity_matrix(
            measure, dataset.train_X, None, normalization, **params
        )
        if need_train_matrix
        else None
    )
    E = dissimilarity_matrix(
        measure, dataset.test_X, dataset.train_X, normalization, **params
    )
    return W, E
