"""Tests for variants, sweeps, comparisons, runtime and convergence."""

import numpy as np
import pytest

from repro.evaluation import (
    MeasureVariant,
    accuracy_runtime_points,
    compare_to_baseline,
    convergence_curves,
    convergence_gaps,
    full_grid,
    reduced_grid,
    run_sweep,
    table4_rows,
    unsupervised_params,
)
from repro.exceptions import EvaluationError, ParameterError


@pytest.fixture(scope="module")
def demo_sweep(tiny_archive):
    datasets = tiny_archive.subset(4)
    variants = [
        MeasureVariant("euclidean", label="ED"),
        MeasureVariant("lorentzian", label="Lorentzian"),
        MeasureVariant("nccc", label="NCC_c"),
    ]
    return run_sweep(variants, datasets)


class TestMeasureVariant:
    def test_display_composition(self):
        v = MeasureVariant("dtw", normalization="zscore", params={"delta": 10.0})
        assert "dtw" in v.display and "delta=10" in v.display

    def test_invalid_tuning_rejected(self):
        with pytest.raises(ParameterError):
            MeasureVariant("dtw", tuning="magic")

    def test_fixed_evaluation(self, small_dataset):
        result = MeasureVariant("euclidean").evaluate(small_dataset)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.inference_seconds > 0.0
        assert result.dataset == small_dataset.name

    def test_loocv_evaluation_reports_chosen_params(self, small_dataset):
        v = MeasureVariant(
            "dtw", tuning="loocv", grid=[{"delta": 0.0}, {"delta": 10.0}]
        )
        result = v.evaluate(small_dataset)
        assert result.params["delta"] in (0.0, 10.0)

    def test_embedding_variant(self, small_dataset):
        v = MeasureVariant("grail", params={"dimensions": 6})
        assert v.is_embedding
        result = v.evaluate(small_dataset)
        assert 0.0 <= result.accuracy <= 1.0

    def test_loocv_beats_or_matches_worst_fixed(self, shifted_dataset):
        """Supervised tuning can only help on its own training data; on
        shift data it must not be worse than the bad fixed choice."""
        grid = [{"delta": 0.0}, {"delta": 100.0}]
        tuned = MeasureVariant("dtw", tuning="loocv", grid=grid).evaluate(
            shifted_dataset
        )
        worst = min(
            MeasureVariant("dtw", params=g).evaluate(shifted_dataset).accuracy
            for g in grid
        )
        assert tuned.accuracy >= worst


class TestSweep:
    def test_matrix_shapes(self, demo_sweep):
        assert demo_sweep.accuracies.shape == (4, 3)
        assert demo_sweep.inference_seconds.shape == (4, 3)

    def test_column_lookup(self, demo_sweep):
        col = demo_sweep.column("ED")
        assert col.shape == (4,)
        with pytest.raises(EvaluationError):
            demo_sweep.column("nope")

    def test_mean_accuracy_keys(self, demo_sweep):
        means = demo_sweep.mean_accuracy()
        assert set(means) == {"ED", "Lorentzian", "NCC_c"}
        assert all(0.0 <= v <= 1.0 for v in means.values())

    def test_to_rows_flat_records(self, demo_sweep):
        rows = demo_sweep.to_rows()
        assert len(rows) == 12
        assert {"variant", "dataset", "accuracy", "inference_seconds"} <= set(
            rows[0]
        )

    def test_empty_inputs_rejected(self):
        with pytest.raises(EvaluationError):
            run_sweep([], [])


class TestComparison:
    def test_baseline_excluded_from_rows(self, demo_sweep):
        table = compare_to_baseline(demo_sweep, "ED")
        labels = [row.label for row in table.rows]
        assert "ED" not in labels
        assert table.baseline_label == "ED"

    def test_counts_sum_to_dataset_count(self, demo_sweep):
        table = compare_to_baseline(demo_sweep, "ED")
        for row in table.rows:
            assert sum(row.counts) == table.n_datasets

    def test_only_above_baseline_filter(self, demo_sweep):
        table = compare_to_baseline(demo_sweep, "ED", only_above_baseline=True)
        for row in table.rows:
            assert row.average_accuracy > table.baseline_accuracy

    def test_winners_subset_of_rows(self, demo_sweep):
        table = compare_to_baseline(demo_sweep, "ED")
        assert set(r.label for r in table.winners()) <= set(
            r.label for r in table.rows
        )


class TestParamGrids:
    def test_full_grid_matches_registry(self):
        assert len(full_grid("dtw")) == 22
        assert len(full_grid("twe")) == 30  # 5 lambdas x 6 nus

    def test_reduced_grids_are_subsets_in_spirit(self):
        for measure in ("dtw", "msm", "twe", "lcss", "edr", "gak", "kdtw"):
            reduced = reduced_grid(measure)
            assert 0 < len(reduced) <= len(full_grid(measure))

    def test_unsupervised_params_match_paper(self):
        assert unsupervised_params("msm") == {"c": 0.5}
        assert unsupervised_params("dtw") == {"delta": 10.0}
        assert unsupervised_params("twe") == {"lam": 1.0, "nu": 1e-4}

    def test_table4_lists_all_tunable_measures(self):
        rows = dict(table4_rows())
        assert "DTW" in rows and "delta" in rows["DTW"]
        assert "MSM" in rows and "c in" in rows["MSM"]
        assert len(rows) == 11


class TestRuntimeAnalysis:
    def test_points_sorted_by_time(self, tiny_archive):
        variants = [
            MeasureVariant("euclidean", label="ED"),
            MeasureVariant("nccc", label="NCC_c"),
            MeasureVariant("dtw", params={"delta": 5.0}, label="DTW-5"),
        ]
        points = accuracy_runtime_points(variants, tiny_archive.subset(2))
        times = [p.inference_seconds for p in points]
        assert times == sorted(times)

    def test_complexity_labels_attached(self, tiny_archive):
        variants = [
            MeasureVariant("euclidean", label="ED"),
            MeasureVariant("nccc", label="NCC_c"),
        ]
        points = accuracy_runtime_points(variants, tiny_archive.subset(2))
        by_label = {p.label: p.complexity for p in points}
        assert by_label["ED"] == "O(m)"
        assert by_label["NCC_c"] == "O(m log m)"


class TestConvergence:
    def test_curves_cover_requested_sizes(self, small_dataset):
        curves = convergence_curves(
            [MeasureVariant("euclidean", label="ED")],
            small_dataset,
            train_sizes=[6, 12, small_dataset.n_train],
        )
        assert len(curves) == 1
        assert len(curves[0].train_sizes) == 3
        assert all(0.0 <= e <= 1.0 for e in curves[0].error_rates)

    def test_gaps_relative_to_baseline(self, small_dataset):
        curves = convergence_curves(
            [
                MeasureVariant("euclidean", label="ED"),
                MeasureVariant("nccc", label="NCC_c"),
            ],
            small_dataset,
            train_sizes=[6, small_dataset.n_train],
        )
        gaps = convergence_gaps(curves, "ED")
        assert set(gaps) == {"NCC_c"}

    def test_default_ladder_monotone(self, small_dataset):
        curves = convergence_curves(
            [MeasureVariant("euclidean", label="ED")], small_dataset
        )
        sizes = curves[0].train_sizes
        assert list(sizes) == sorted(sizes)
        assert sizes[-1] == small_dataset.n_train
