"""Fault-injection tests for the checkpointed, fault-tolerant sweep engine.

Every scenario runs through the public :func:`repro.run_sweep` entry
point with the deterministic ``_inject_fault`` hook: retried flakes,
budget exhaustion (degrade vs raise), hung cells, and kill-and-resume —
in both executors wherever the behaviour must match.
"""

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation import (
    CellJournal,
    MeasureVariant,
    SweepConfig,
    run_sweep,
)
from repro.evaluation.engine import cell_key, content_key, dataset_fingerprint
from repro.exceptions import CellFailure, EvaluationError
from repro.observability import Recorder, get_bus, span_signature

EXECUTORS = [
    pytest.param({"executor": "serial"}, id="serial"),
    pytest.param({"executor": "process", "workers": 2}, id="process"),
]


# Fault hooks are module-level classes with plain-data state so they are
# deterministic per (cell, attempt) and survive the worker boundary.
class FlakyCell:
    """Raise for one cell on the first ``failures`` attempts, then pass."""

    def __init__(self, variant, dataset, failures):
        self.variant = variant
        self.dataset = dataset
        self.failures = failures

    def __call__(self, variant, dataset, attempt):
        if (
            variant == self.variant
            and dataset == self.dataset
            and attempt <= self.failures
        ):
            raise RuntimeError(f"injected flake (attempt {attempt})")


class AlwaysFail:
    """Raise on every attempt of one cell.

    With ``after_checkpoint`` (a checkpoint directory) the cell first
    waits, at most ``wait_seconds``, until the journal holds a completed
    cell, so an interrupted run always leaves work to resume — even
    when a worker process reaches the failing cell before any other
    cell finishes.
    """

    def __init__(self, variant, dataset, after_checkpoint=None, wait_seconds=30.0):
        self.variant = variant
        self.dataset = dataset
        self.after_checkpoint = after_checkpoint
        self.wait_seconds = wait_seconds

    def __call__(self, variant, dataset, attempt):
        if variant == self.variant and dataset == self.dataset:
            if self.after_checkpoint is not None:
                cells = Path(self.after_checkpoint) / "cells"
                deadline = time.monotonic() + self.wait_seconds
                while not any(cells.glob("*.json")) and time.monotonic() < deadline:
                    time.sleep(0.01)
            raise ValueError("injected permanent failure")


class HangCell:
    """Simulate a hung evaluation of one cell."""

    def __init__(self, variant, dataset, seconds=10.0):
        self.variant = variant
        self.dataset = dataset
        self.seconds = seconds

    def __call__(self, variant, dataset, attempt):
        if variant == self.variant and dataset == self.dataset:
            time.sleep(self.seconds)


@pytest.fixture(scope="module")
def setup(tiny_archive):
    datasets = tiny_archive.subset(3)
    variants = [
        MeasureVariant("euclidean", label="ED"),
        MeasureVariant("lorentzian", label="Lorentzian"),
    ]
    return variants, datasets


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig()
        assert config.executor == "serial"
        assert config.max_attempts == 1
        assert config.on_failure == "degrade"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"executor": "threads"},
            {"workers": 0},
            {"max_retries": -1},
            {"backoff": -0.1},
            {"cell_timeout": 0.0},
            {"on_failure": "explode"},
            {"resume": True},  # resume requires a checkpoint
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(EvaluationError):
            SweepConfig(**kwargs)

    def test_retry_delay_doubles(self):
        config = SweepConfig(max_retries=3, backoff=0.1)
        assert config.retry_delay(1) == pytest.approx(0.1)
        assert config.retry_delay(2) == pytest.approx(0.2)
        assert config.retry_delay(3) == pytest.approx(0.4)

    def test_config_and_loose_kwargs_conflict(self, setup):
        variants, datasets = setup
        with pytest.raises(EvaluationError, match="not both"):
            run_sweep(
                variants, datasets,
                config=SweepConfig(), max_retries=2,
            )


class TestRetries:
    @pytest.mark.parametrize("exec_kwargs", EXECUTORS)
    def test_flaky_cell_retried_to_success(self, setup, exec_kwargs):
        variants, datasets = setup
        flaky = FlakyCell("ED", datasets[1].name, failures=2)
        recorder = Recorder()
        with get_bus().sink(recorder):
            result = run_sweep(
                variants, datasets,
                max_retries=2, backoff=0.0,
                _inject_fault=flaky, **exec_kwargs,
            )
        assert result.ok
        assert np.isfinite(result.accuracies).all()
        assert recorder.counters().get("sweep.cell.retry") == 2
        attempts = recorder.spans("sweep.cell.attempt")
        # 6 cells, the flaky one took 3 attempts: 8 attempt spans total.
        assert len(attempts) == 8

    @pytest.mark.parametrize("exec_kwargs", EXECUTORS)
    def test_retried_result_matches_clean_run(self, setup, exec_kwargs):
        variants, datasets = setup
        clean = run_sweep(variants, datasets)
        flaky = FlakyCell("Lorentzian", datasets[0].name, failures=1)
        retried = run_sweep(
            variants, datasets,
            max_retries=1, backoff=0.0,
            _inject_fault=flaky, **exec_kwargs,
        )
        np.testing.assert_array_equal(clean.accuracies, retried.accuracies)


class TestDegradation:
    @pytest.mark.parametrize("exec_kwargs", EXECUTORS)
    def test_exhausted_cell_degrades_to_nan(self, setup, exec_kwargs):
        variants, datasets = setup
        broken = AlwaysFail("ED", datasets[2].name)
        recorder = Recorder()
        with get_bus().sink(recorder):
            result = run_sweep(
                variants, datasets,
                max_retries=1, backoff=0.0,
                _inject_fault=broken, **exec_kwargs,
            )
        assert not result.ok
        assert np.isnan(result.accuracies[2, 0])
        assert np.isnan(result.inference_seconds[2, 0])
        # every other cell finished
        mask = np.ones_like(result.accuracies, dtype=bool)
        mask[2, 0] = False
        assert np.isfinite(result.accuracies[mask]).all()
        [info] = result.failures
        assert (info.variant, info.dataset) == ("ED", datasets[2].name)
        assert info.attempts == 2
        assert info.kind == "error"
        assert info.error == "ValueError"
        assert result.failure_report() and "ED" in result.failure_report()[0]
        assert recorder.counters().get("sweep.cell.failed") == 1
        # means skip the NaN cell instead of poisoning the average
        assert np.isfinite(result.mean_accuracy()["ED"])

    @pytest.mark.parametrize("exec_kwargs", EXECUTORS)
    def test_on_failure_raise_aborts(self, setup, exec_kwargs):
        variants, datasets = setup
        broken = AlwaysFail("ED", datasets[0].name)
        with pytest.raises(CellFailure) as excinfo:
            run_sweep(
                variants, datasets,
                max_retries=1, backoff=0.0, on_failure="raise",
                _inject_fault=broken, **exec_kwargs,
            )
        assert excinfo.value.variant == "ED"
        assert excinfo.value.dataset == datasets[0].name
        assert excinfo.value.attempts == 2


class TestTimeouts:
    @pytest.mark.parametrize("exec_kwargs", EXECUTORS)
    def test_hung_cell_times_out(self, setup, exec_kwargs):
        variants, datasets = setup
        hang = HangCell("Lorentzian", datasets[1].name, seconds=10.0)
        recorder = Recorder()
        start = time.monotonic()
        with get_bus().sink(recorder):
            result = run_sweep(
                variants, datasets,
                cell_timeout=0.3, backoff=0.0,
                _inject_fault=hang, **exec_kwargs,
            )
        elapsed = time.monotonic() - start
        assert elapsed < 8.0  # the 10 s hang was cut short
        [info] = result.failures
        assert info.kind == "timeout"
        assert np.isnan(result.accuracies[1, 1])
        assert recorder.counters().get("sweep.cell.timeout") == 1


class TestCheckpointResume:
    def _interrupt_then_resume(self, variants, datasets, exec_kwargs, tmp_path):
        """Kill a checkpointed sweep partway, resume it, return both halves."""
        checkpoint = tmp_path / "ckpt"
        broken = AlwaysFail(
            "Lorentzian", datasets[2].name, after_checkpoint=checkpoint
        )
        with pytest.raises(CellFailure):
            run_sweep(
                variants, datasets,
                checkpoint=checkpoint, on_failure="raise",
                _inject_fault=broken, **exec_kwargs,
            )
        with CellJournal(checkpoint, resume=True) as journal:
            done_before = len(journal.completed)
        assert 0 < done_before < len(variants) * len(datasets)

        recorder = Recorder()
        with get_bus().sink(recorder):
            result = run_sweep(
                variants, datasets,
                checkpoint=checkpoint, resume=True, **exec_kwargs,
            )
        return result, done_before, recorder

    @pytest.mark.parametrize("exec_kwargs", EXECUTORS)
    def test_kill_and_resume_bitwise_equal(
        self, setup, exec_kwargs, tmp_path
    ):
        variants, datasets = setup
        baseline = run_sweep(variants, datasets)
        result, done_before, recorder = self._interrupt_then_resume(
            variants, datasets, exec_kwargs, tmp_path
        )
        np.testing.assert_array_equal(baseline.accuracies, result.accuracies)
        assert result.ok
        # only the unfinished cells were recomputed: resumed cells emit a
        # counter instead of a sweep.cell span
        n_cells = len(variants) * len(datasets)
        assert recorder.counters()["sweep.cell.resumed"] == done_before
        assert len(recorder.spans("sweep.cell")) == n_cells - done_before

    def test_completed_checkpoint_resumes_without_recompute(
        self, setup, tmp_path
    ):
        variants, datasets = setup
        checkpoint = tmp_path / "ckpt"
        first = run_sweep(variants, datasets, checkpoint=checkpoint)
        recorder = Recorder()
        with get_bus().sink(recorder):
            second = run_sweep(
                variants, datasets, checkpoint=checkpoint, resume=True
            )
        np.testing.assert_array_equal(first.accuracies, second.accuracies)
        assert len(recorder.spans("sweep.cell")) == 0
        assert len(recorder.spans("sweep.cell.attempt")) == 0
        n_cells = len(variants) * len(datasets)
        assert recorder.counters()["sweep.cell.resumed"] == n_cells

    def test_fresh_run_refuses_existing_journal(self, setup, tmp_path):
        variants, datasets = setup
        checkpoint = tmp_path / "ckpt"
        run_sweep(variants, datasets, checkpoint=checkpoint)
        with pytest.raises(EvaluationError, match="resume=True"):
            run_sweep(variants, datasets, checkpoint=checkpoint)

    def test_journal_layout_on_disk(self, setup, tmp_path):
        variants, datasets = setup
        checkpoint = tmp_path / "ckpt"
        run_sweep(variants, datasets, checkpoint=checkpoint)
        lines = [
            json.loads(line)
            for line in (checkpoint / "journal.jsonl").read_text().splitlines()
        ]
        assert lines[0]["type"] == "meta"
        assert lines[0]["schema"].startswith("repro.sweep-journal/")
        cells = [r for r in lines if r["type"] == "cell"]
        n_cells = len(variants) * len(datasets)
        assert len(cells) == n_cells
        assert all(r["status"] == "done" for r in cells)
        assert len(list((checkpoint / "cells").glob("*.json"))) == n_cells

    def test_torn_journal_line_tolerated(self, setup, tmp_path):
        variants, datasets = setup
        checkpoint = tmp_path / "ckpt"
        run_sweep(variants, datasets, checkpoint=checkpoint)
        with (checkpoint / "journal.jsonl").open("a") as fh:
            fh.write('{"type": "cell", "status": "done", "ke')  # torn write
        recorder = Recorder()
        with get_bus().sink(recorder):
            result = run_sweep(
                variants, datasets, checkpoint=checkpoint, resume=True
            )
        assert result.ok
        assert recorder.counters()["journal.torn_lines"] == 1

    def test_failed_cells_recomputed_on_resume(self, setup, tmp_path):
        variants, datasets = setup
        checkpoint = tmp_path / "ckpt"
        broken = AlwaysFail("ED", datasets[0].name)
        degraded = run_sweep(
            variants, datasets,
            checkpoint=checkpoint, _inject_fault=broken,
        )
        assert not degraded.ok
        healed = run_sweep(
            variants, datasets, checkpoint=checkpoint, resume=True
        )
        assert healed.ok
        assert np.isfinite(healed.accuracies).all()

    def test_checkpoint_key_tracks_content(self, setup):
        variants, datasets = setup
        fp_a = dataset_fingerprint(datasets[0])
        fp_b = dataset_fingerprint(datasets[1])
        assert cell_key(variants[0], fp_a) != cell_key(variants[0], fp_b)
        assert cell_key(variants[0], fp_a) != cell_key(variants[1], fp_a)
        assert cell_key(variants[0], fp_a) == cell_key(variants[0], fp_a)
        assert content_key({"a": 1}) != content_key({"a": 2})


class TestTraceEquivalenceUnderFaults:
    def test_serial_and_process_spans_match_with_retries(self, setup):
        variants, datasets = setup
        bus = get_bus()
        flaky = FlakyCell("ED", datasets[0].name, failures=2)
        serial, process = Recorder(), Recorder()
        with bus.sink(serial):
            run_sweep(
                variants, datasets,
                max_retries=2, backoff=0.0, _inject_fault=flaky,
            )
        with bus.sink(process):
            run_sweep(
                variants, datasets,
                executor="process", workers=2,
                max_retries=2, backoff=0.0, _inject_fault=flaky,
            )
        serial_spans = Counter(span_signature(e) for e in serial.spans())
        process_spans = Counter(span_signature(e) for e in process.spans())
        assert serial_spans == process_spans
        assert serial.counters() == process.counters()


class TestContentKeyCanonicalization:
    """Regression: hashing must see values, not memory layout or dtype.

    Serving-artifact fingerprints are built on `content_key`, so a
    reference set materialized as a transposed view, a Fortran-ordered
    copy or a narrower float dtype must key identically to its
    C-contiguous float64 twin.
    """

    def test_layout_invariant(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 9))
        base = content_key({}, [A])
        assert base == content_key({}, [A.T.T])
        assert base == content_key({}, [np.asfortranarray(A)])
        assert base == content_key({}, [A[::-1][::-1]])
        strided = A[:, ::2]
        assert content_key({}, [strided]) == content_key(
            {}, [np.ascontiguousarray(strided)]
        )

    def test_dtype_invariant_for_exact_values(self):
        ints = np.arange(24).reshape(4, 6)  # exactly representable
        base = content_key({}, [ints])
        assert base == content_key({}, [ints.astype(np.float32)])
        assert base == content_key({}, [ints.astype(np.float64)])

    def test_shape_and_values_still_distinguish(self):
        A = np.arange(12.0).reshape(3, 4)
        assert content_key({}, [A]) != content_key({}, [A.reshape(4, 3)])
        B = A.copy()
        B[0, 0] += 1e-9
        assert content_key({}, [A]) != content_key({}, [B])

    def test_dataset_fingerprint_survives_views(self, setup):
        _, datasets = setup
        ds = datasets[0]
        viewed = type(ds)(
            name=ds.name,
            train_X=ds.train_X.T.copy().T,
            train_y=ds.train_y,
            test_X=np.asfortranarray(ds.test_X),
            test_y=ds.test_y,
        )
        assert dataset_fingerprint(viewed) == dataset_fingerprint(ds)
