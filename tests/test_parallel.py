"""Tests for the process executor."""

import numpy as np
import pytest

from repro.evaluation import MeasureVariant, run_sweep
from repro.exceptions import EvaluationError


@pytest.fixture(scope="module")
def setup(tiny_archive):
    datasets = tiny_archive.subset(3)
    variants = [
        MeasureVariant("euclidean", label="ED"),
        MeasureVariant("lorentzian", label="Lorentzian"),
    ]
    return variants, datasets


class TestProcessExecutor:
    def test_matches_serial_results(self, setup):
        variants, datasets = setup
        serial = run_sweep(variants, datasets)
        parallel = run_sweep(variants, datasets, executor="process", workers=2)
        assert np.allclose(serial.accuracies, parallel.accuracies)
        assert serial.labels == parallel.labels
        assert serial.dataset_names == parallel.dataset_names

    def test_details_populated(self, setup):
        variants, datasets = setup
        result = run_sweep(variants, datasets, executor="process", workers=2)
        assert len(result.details) == 2
        assert all(r is not None for row in result.details for r in row)
        assert result.details[0][0].dataset == datasets[0].name

    def test_invalid_workers_rejected(self, setup):
        variants, datasets = setup
        with pytest.raises(EvaluationError):
            run_sweep(variants, datasets, executor="process", workers=0)

    def test_invalid_executor_rejected(self, setup):
        variants, datasets = setup
        with pytest.raises(EvaluationError):
            run_sweep(variants, datasets, executor="threads")

    def test_empty_inputs_rejected(self):
        with pytest.raises(EvaluationError):
            run_sweep([], [], executor="process", workers=2)

    def test_loocv_variants_supported(self, setup):
        _, datasets = setup
        variants = [
            MeasureVariant(
                "dtw", tuning="loocv",
                grid=[{"delta": 0.0}, {"delta": 10.0}], label="DTW",
            )
        ]
        serial = run_sweep(variants, datasets)
        parallel = run_sweep(variants, datasets, executor="process", workers=2)
        assert np.allclose(serial.accuracies, parallel.accuracies)

