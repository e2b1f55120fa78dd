"""Experiment runner: evaluate many variants over many datasets.

Produces the accuracy matrix every statistical analysis and paper-style
table consumes. :func:`run_sweep` is the single entry point for serial
and process-parallel execution alike; the fault-tolerance machinery
(checkpoints, retries, timeouts, degradation) lives in
:mod:`repro.evaluation.engine` and is steered by a
:class:`~repro.evaluation.engine.SweepConfig`. Results are plain
dataclasses convertible to dicts so benches can dump them for
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..datasets.base import Dataset
from ..exceptions import EvaluationError
from .engine.config import SweepConfig
from .variants import MeasureVariant, VariantResult


@dataclass(frozen=True)
class CellFailureInfo:
    """Structured report of one cell that exhausted its retry budget.

    Collected in :attr:`SweepResult.failures` under the default
    ``on_failure="degrade"`` policy; the matching matrix entry is NaN.
    """

    variant: str
    dataset: str
    attempts: int
    kind: str  # "error" | "timeout" | "crash"
    error: str  # exception type name
    message: str

    def describe(self) -> str:
        return (
            f"{self.variant} on {self.dataset}: {self.kind} "
            f"{self.error or '?'} after {self.attempts} attempt(s)"
            + (f" ({self.message})" if self.message else "")
        )


def _nanmean(column: np.ndarray) -> float:
    """Mean over finished cells; NaN when every cell of the column failed."""
    finished = column[~np.isnan(column)]
    return float(finished.mean()) if finished.size else float("nan")


@dataclass(frozen=True)
class SweepResult:
    """Accuracy/runtime matrices for (datasets x variants).

    Cells that exhausted their retry budget under
    ``on_failure="degrade"`` hold NaN in both matrices and are described
    in :attr:`failures`; per-variant means skip them.
    """

    variants: tuple[MeasureVariant, ...]
    dataset_names: tuple[str, ...]
    accuracies: np.ndarray  # (n_datasets, n_variants)
    inference_seconds: np.ndarray  # (n_datasets, n_variants)
    details: tuple[tuple[VariantResult, ...], ...]  # [variant][dataset]
    failures: tuple[CellFailureInfo, ...] = ()

    @property
    def labels(self) -> list[str]:
        return [v.display for v in self.variants]

    @property
    def ok(self) -> bool:
        """Whether every cell completed (no degraded NaN entries)."""
        return not self.failures

    def column(self, label: str) -> np.ndarray:
        """Per-dataset accuracies of the variant with this display label."""
        labels = self.labels
        if label not in labels:
            raise EvaluationError(
                f"unknown variant {label!r}; have {labels}"
            )
        return self.accuracies[:, labels.index(label)]

    def mean_accuracy(self) -> dict[str, float]:
        """Average accuracy per variant (the tables' 'Average Accuracy')."""
        return {
            label: _nanmean(self.accuracies[:, i])
            for i, label in enumerate(self.labels)
        }

    def mean_inference_seconds(self) -> dict[str, float]:
        """Average inference time per variant (Figure 9 x-axis)."""
        return {
            label: _nanmean(self.inference_seconds[:, i])
            for i, label in enumerate(self.labels)
        }

    def failure_report(self) -> list[str]:
        """Human-readable lines describing every degraded cell."""
        return [info.describe() for info in self.failures]

    def to_rows(self) -> list[dict]:
        """Flat records for serialization into EXPERIMENTS.md tables."""
        rows = []
        for vi, variant in enumerate(self.variants):
            for di, name in enumerate(self.dataset_names):
                rows.append(
                    {
                        "variant": variant.display,
                        "dataset": name,
                        "accuracy": float(self.accuracies[di, vi]),
                        "inference_seconds": float(
                            self.inference_seconds[di, vi]
                        ),
                    }
                )
        return rows


def run_sweep(
    variants: Sequence[MeasureVariant],
    datasets: Iterable[Dataset],
    *,
    executor: str | None = None,
    workers: int | None = None,
    max_retries: int | None = None,
    backoff: float | None = None,
    cell_timeout: float | None = None,
    checkpoint=None,
    resume: bool | None = None,
    on_failure: str | None = None,
    backend: str | None = None,
    config: SweepConfig | None = None,
    _inject_fault=None,
) -> SweepResult:
    """Evaluate every variant on every dataset — serial or multi-process.

    The single sweep entry point: ``executor="serial"`` (default) runs
    in-process, ``executor="process"`` dispatches cells to a pool of
    ``workers`` worker processes. Execution is fault-tolerant and
    resumable:

    - ``checkpoint=DIR`` journals every finished cell to a crash-safe
      store; ``resume=True`` replays completed cells from it and
      computes only the remainder (bit-identical to an uninterrupted
      run);
    - ``max_retries`` / ``backoff`` re-attempt failing cells with
      exponential backoff; ``cell_timeout`` bounds each attempt's
      wall-clock (SIGALRM serially, worker kill + replacement in the
      process pool);
    - cells that exhaust their budget degrade to NaN entries plus a
      structured ``SweepResult.failures`` report instead of aborting
      (set ``on_failure="raise"`` to abort with
      :class:`~repro.exceptions.CellFailure` instead);
    - ``backend`` selects the distance implementation tier for every
      cell (``"auto"`` default, ``"compiled"``, ``"reference"``) — see
      :func:`repro.distances.use_backend`.

    Knobs may be given loose (keyword-only) or pre-frozen as
    ``config=``:class:`~repro.evaluation.engine.SweepConfig` — not both.

    Emits ``sweep`` / ``sweep.variant`` / ``sweep.cell`` /
    ``sweep.cell.attempt`` spans and ``sweep.cell.{retry,timeout,failed,
    resumed}`` counters into the observability bus (see
    :mod:`repro.observability`); attach a
    :class:`~repro.observability.ProgressSink` for live per-cell lines.
    Serial and process runs of the same sweep emit the same span/counter
    multiset.
    """
    loose = {
        "executor": executor,
        "workers": workers,
        "max_retries": max_retries,
        "backoff": backoff,
        "cell_timeout": cell_timeout,
        "checkpoint": checkpoint,
        "resume": resume,
        "on_failure": on_failure,
        "backend": backend,
        "inject_fault": _inject_fault,
    }
    given = {k: v for k, v in loose.items() if v is not None}
    if config is not None:
        if given:
            raise EvaluationError(
                "pass execution knobs either loose or via config=SweepConfig, "
                f"not both (got config plus {sorted(given)})"
            )
    else:
        config = SweepConfig(**given)

    dataset_list = list(datasets)
    if not dataset_list or not variants:
        raise EvaluationError("need at least one dataset and one variant")

    from .engine.core import execute_sweep  # local: engine imports SweepResult

    return execute_sweep(variants, dataset_list, config)
