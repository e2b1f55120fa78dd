"""Ablation — the UCR-suite pruning cascade for exact DTW 1-NN search.

Quantifies what the paper's Section 10 alludes to ("the runtime cost can
be substantially improved with the use of lower bounding measures"): on a
heterogeneous corpus, refining candidates in ascending LB_Keogh order,
in blocks cut where the bound loses to the running best, skips most full
DTW computations while returning exactly the exhaustive answers. The
cascade is ``nearest_neighbors``'s DTW route (a transient
full-resolution ``paa_lb`` index, whose blocks go through the
pair-batched DP); its timing includes the index build.
"""

import time

import numpy as np

from repro.datasets import default_archive, resample_to_length
from repro.distances.elastic import dtw
from repro.search import nearest_neighbors

from conftest import run_once

LENGTH = 64
N_QUERIES = 8


def _pooled_corpus():
    archive = default_archive(n_datasets=16, size_scale=1.0)
    rows = []
    for name in archive.names[:6]:
        ds = archive.load(name)
        rows.extend(resample_to_length(row, LENGTH) for row in ds.train_X)
    corpus = np.vstack(rows)
    query_ds = archive.load(archive.names[1])
    queries = np.vstack(
        [resample_to_length(r, LENGTH) for r in query_ds.test_X[:N_QUERIES]]
    )
    return corpus, queries


def test_ablation_cascade_pruning(benchmark, save_result):
    corpus, queries = _pooled_corpus()

    def experiment():
        start = time.perf_counter()
        exhaustive = [
            int(np.argmin([dtw(q, c, 10.0) for c in corpus])) for q in queries
        ]
        t_exhaustive = time.perf_counter() - start

        start = time.perf_counter()
        res = nearest_neighbors(
            queries, corpus, measure="dtw", params={"delta": 10.0}
        )
        t_cascade = time.perf_counter() - start
        return exhaustive, res, t_exhaustive, t_cascade

    exhaustive, res, t_exh, t_casc = run_once(benchmark, experiment)
    answers = res.indices[:, 0].tolist()
    assert answers == exhaustive, "cascade must be exact"
    stats = res.stats.to_dict()
    lines = [
        "Ablation: DTW 1-NN pruning cascade (pooled heterogeneous corpus)",
        f"corpus {corpus.shape[0]} series x {len(answers)} queries "
        f"(band delta=10%)",
        f"exhaustive: {stats['candidates']} full DTWs in {t_exh:.2f}s",
        f"cascade:    {stats['refined']} DTWs refined in blocks in "
        f"{t_casc:.2f}s (answers identical)",
        f"  pruned by LB_Keogh: {stats['pruned']} "
        f"({stats['pruning_rate']:.0%})",
    ]
    assert stats["pruning_rate"] > 0.2, (
        "the cascade should avoid a meaningful fraction"
    )
    save_result("ablation_cascade", "\n".join(lines))
