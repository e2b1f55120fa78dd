"""Tests for the benchmark report collator."""

from pathlib import Path

import pytest

from repro.exceptions import ReproError
from repro.reporting.report import collate_results, write_report


@pytest.fixture()
def results_dir(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    (d / "table2_lockstep.txt").write_text("Table 2 content\n")
    (d / "figure9_accuracy_runtime.txt").write_text("Figure 9 content\n")
    (d / "ablation_custom.txt").write_text("Ablation content\n")
    return d


class TestCollate:
    def test_contains_all_sections(self, results_dir):
        report = collate_results(results_dir)
        assert "## table2_lockstep" in report
        assert "## figure9_accuracy_runtime" in report
        assert "## ablation_custom" in report
        assert "Table 2 content" in report

    def test_paper_order_before_extras(self, results_dir):
        report = collate_results(results_dir)
        assert report.index("table2_lockstep") < report.index(
            "figure9_accuracy_runtime"
        ) < report.index("ablation_custom")

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            collate_results(tmp_path / "nope")

    def test_empty_dir_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ReproError, match="no results"):
            collate_results(empty)

    def test_write_report_creates_file(self, results_dir):
        target = write_report(results_dir)
        assert target.name == "REPORT.md"
        assert "Table 2 content" in target.read_text()

    def test_report_md_not_reconsumed(self, results_dir):
        write_report(results_dir)
        report = collate_results(results_dir)  # .md files are not *.txt
        assert report.count("## ") == 3


def test_committed_report_matches_results():
    """``benchmarks/results/REPORT.md`` is exactly what ``write_report``
    collates from the committed results (regenerate it with
    ``write_report("benchmarks/results")`` after changing a result)."""
    results = Path(__file__).parent.parent / "benchmarks" / "results"
    committed = (results / "REPORT.md").read_text()
    assert committed == collate_results(results) + "\n"
