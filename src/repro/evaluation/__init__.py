"""Experiment orchestration: variants, sweeps, comparisons, runtime."""

from .comparison import ComparisonRow, ComparisonTable, compare_to_baseline
from .convergence import ConvergenceCurve, convergence_curves, convergence_gaps
from .param_grids import (
    REDUCED_GRIDS,
    UNSUPERVISED_PARAMS,
    full_grid,
    grid_for,
    reduced_grid,
    table4_rows,
    unsupervised_params,
)
from .cache import MatrixCache
from .engine import CellJournal, SweepConfig
from .experiments import Experiment, get_experiment, list_experiments
from .runner import CellFailureInfo, SweepResult, run_sweep
from .runtime import (
    RuntimePoint,
    accuracy_runtime_points,
    default_figure9_variants,
)
from .variants import MeasureVariant, VariantResult

__all__ = [
    "MeasureVariant",
    "VariantResult",
    "run_sweep",
    "SweepResult",
    "SweepConfig",
    "CellFailureInfo",
    "CellJournal",
    "MatrixCache",
    "Experiment",
    "get_experiment",
    "list_experiments",
    "compare_to_baseline",
    "ComparisonTable",
    "ComparisonRow",
    "full_grid",
    "reduced_grid",
    "grid_for",
    "table4_rows",
    "unsupervised_params",
    "REDUCED_GRIDS",
    "UNSUPERVISED_PARAMS",
    "accuracy_runtime_points",
    "RuntimePoint",
    "default_figure9_variants",
    "convergence_curves",
    "convergence_gaps",
    "ConvergenceCurve",
]
