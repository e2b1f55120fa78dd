"""Ablation — Sakoe-Chiba band width vs DTW accuracy and runtime.

The paper tunes the window delta over 22 values (Table 4) and notes
delta=100 "resembles an equivalent parameter-free measure to NCC_c" while
delta=10 is the common unsupervised pick. This ablation sweeps the band on
warp-dominated data: accuracy should peak at a moderate band while runtime
grows with the band width. Includes the LB_Keogh pruning rate at the
common delta=10 setting (Section 10's suggested acceleration).
"""

import time

import numpy as np

from repro.classification import dissimilarity_matrix, one_nn_accuracy
from repro.datasets import DatasetSpec, generate_dataset
from repro.search import nearest_neighbors

from conftest import run_once

DELTAS = (0.0, 5.0, 10.0, 20.0, 100.0)


def _warped_dataset():
    spec = DatasetSpec(
        name="BandAblation", domain="ecg", n_classes=3, length=64,
        train_size=24, test_size=24, noise=0.1, warp_frac=1.0, seed=33,
    )
    return generate_dataset(spec)


def test_ablation_dtw_band(benchmark, save_result):
    ds = _warped_dataset()

    def experiment():
        rows = []
        for delta in DELTAS:
            start = time.perf_counter()
            E = dissimilarity_matrix(
                "dtw", ds.test_X, ds.train_X, delta=delta
            )
            elapsed = time.perf_counter() - start
            acc = one_nn_accuracy(E, ds.test_y, ds.train_y)
            rows.append((delta, acc, elapsed))
        stats = nearest_neighbors(
            ds.test_X, ds.train_X, measure="dtw", params={"delta": 10.0}
        ).stats.to_dict()
        return rows, stats

    rows, stats = run_once(benchmark, experiment)
    lines = [
        "Ablation: DTW band width (warp-dominated data)",
        f"{'delta(%)':>9} {'accuracy':>9} {'time(s)':>9}",
    ]
    for delta, acc, elapsed in rows:
        lines.append(f"{delta:>9.0f} {acc:>9.4f} {elapsed:>9.3f}")
    by_delta = dict((d, (a, t)) for d, a, t in rows)
    # Wider bands cost more time...
    assert by_delta[100.0][1] > by_delta[0.0][1]
    # ...and some warping beats the diagonal on warped data.
    assert max(by_delta[d][0] for d in (5.0, 10.0, 20.0, 100.0)) >= by_delta[0.0][0]
    lines.append(
        f"LB_Keogh pruning at delta=10: {stats['refined']}/"
        f"{stats['candidates']} DTWs computed "
        f"({stats['pruning_rate']:.0%} pruned)"
    )
    save_result("ablation_dtw_band", "\n".join(lines))
