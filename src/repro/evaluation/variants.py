"""Measure variants: the unit of comparison in every paper table.

A *variant* is one row of Tables 2/3/5/6/7: a measure combined with a
normalization method and a parameter policy — ``fixed`` parameters (the
unsupervised setting) or ``loocv`` tuning on the training set (the
supervised setting). Embedding measures plug in through the same interface
with their fit/transform phase hidden behind it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..classification.matrices import dissimilarity_matrix
from ..classification.one_nn import one_nn_accuracy
from ..classification.tuning import tune_parameters
from ..datasets.base import Dataset
from ..distances.base import get_measure
from ..embeddings.base import get_embedding, list_embeddings
from ..exceptions import ParameterError
from ..observability import get_bus


@dataclass(frozen=True)
class VariantResult:
    """Per-dataset outcome of one variant."""

    dataset: str
    accuracy: float
    inference_seconds: float
    params: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MeasureVariant:
    """A measure + normalization + parameter policy.

    Parameters
    ----------
    measure:
        Registry name of a distance measure, or an embedding name
        (``grail``, ``sidl``, ``spiral``, ``rws``).
    normalization:
        Normalization method name, or ``None`` to use the dataset as-is
        (the archive ships z-normalized data).
    tuning:
        ``"fixed"`` evaluates with :attr:`params` (falling back to the
        measure's defaults); ``"loocv"`` tunes on the training split.
    params:
        Fixed parameter values (ignored under ``loocv``).
    grid:
        Optional grid override for ``loocv`` (reduced grids for laptop
        benches); defaults to the measure's full Table 4 grid.
    label:
        Display label; defaults to a descriptive composite.
    """

    measure: str
    normalization: str | None = None
    tuning: str = "fixed"
    params: Mapping[str, float] = field(default_factory=dict)
    grid: Sequence[Mapping[str, float]] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.tuning not in ("fixed", "loocv"):
            raise ParameterError(
                f"tuning must be 'fixed' or 'loocv', got {self.tuning!r}"
            )

    @property
    def is_embedding(self) -> bool:
        return self.measure.lower() in list_embeddings()

    @property
    def family(self) -> str:
        """Survey family of the underlying measure (``"embedding"`` for
        embedding variants) — the grouping key of the metrics layer."""
        if self.is_embedding:
            return "embedding"
        return get_measure(self.measure).family

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        parts = [self.measure]
        if self.normalization:
            parts.append(self.normalization)
        if self.tuning == "loocv":
            parts.append("LOOCV")
        elif self.params:
            parts.append(
                ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
            )
        return "+".join(parts)

    # ------------------------------------------------------------------
    def evaluate(self, dataset: Dataset) -> VariantResult:
        """1-NN accuracy of this variant on one dataset.

        Inference time covers only the test-vs-train matrix plus the
        classification scan, matching the paper's Figure 9 ("runtime
        performance includes only inference time").
        """
        if self.is_embedding:
            return self._evaluate_embedding(dataset)
        bus = get_bus()
        measure = get_measure(self.measure)
        if self.tuning == "loocv":
            with bus.span(
                "variant.tune", variant=self.display, dataset=dataset.name
            ):
                tuned = tune_parameters(
                    measure,
                    dataset.train_X,
                    dataset.train_y,
                    self.normalization,
                    self.grid,
                )
            params = tuned.params
        else:
            params = measure.resolve_params(dict(self.params))
        start = time.perf_counter()
        E = dissimilarity_matrix(
            measure, dataset.test_X, dataset.train_X, self.normalization, **params
        )
        accuracy = one_nn_accuracy(E, dataset.test_y, dataset.train_y)
        elapsed = time.perf_counter() - start
        bus.emit_span(
            "variant.inference",
            elapsed,
            variant=self.display,
            dataset=dataset.name,
            accuracy=accuracy,
        )
        return VariantResult(dataset.name, accuracy, elapsed, dict(params))

    def _evaluate_embedding(self, dataset: Dataset) -> VariantResult:
        bus = get_bus()
        embedding = get_embedding(self.measure, **dict(self.params))
        with bus.span(
            "variant.fit", variant=self.display, dataset=dataset.name
        ):
            embedding.fit(dataset.train_X)
            z_train = embedding.transform(dataset.train_X)
        start = time.perf_counter()
        z_test = embedding.transform(dataset.test_X)
        E = get_measure("euclidean").matrix_func(z_test, z_train)
        accuracy = one_nn_accuracy(E, dataset.test_y, dataset.train_y)
        elapsed = time.perf_counter() - start
        bus.emit_span(
            "variant.inference",
            elapsed,
            variant=self.display,
            dataset=dataset.name,
            accuracy=accuracy,
        )
        return VariantResult(dataset.name, accuracy, elapsed, dict(self.params))
