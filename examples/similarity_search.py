"""Similarity search with lower-bound pruning.

1-NN similarity search is the workload the paper's evaluation framework
deliberately resembles (Section 3). This example runs a query workload
against a candidate database under banded DTW and shows how the classic
LB_Keogh lower bound prunes most of the expensive O(m^2) computations
(the Section 10 acceleration), without changing any answer. The pruned
search is ``nearest_neighbors``'s DTW route: a transient
full-resolution ``paa_lb`` index, whose surviving candidates are
refined in blocks by the pair-batched DP.

Run: ``python examples/similarity_search.py``
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.distances.elastic import dtw, envelope, lb_keogh
from repro.search import nearest_neighbors


def main() -> None:
    # A realistic search corpus is *heterogeneous* — pruning power comes
    # from most candidates being far from any given query. Pool several
    # archive datasets (resampled to a common length) into one database.
    archive = repro.default_archive(n_datasets=16, size_scale=1.0)
    from repro.datasets import resample_to_length

    length = 64
    pooled = []
    for name in archive.names[:6]:
        ds = archive.load(name)
        pooled.extend(resample_to_length(row, length) for row in ds.train_X)
    database = np.vstack(pooled)
    query_ds = archive.load(archive.names[1])
    queries = np.vstack(
        [resample_to_length(row, length) for row in query_ds.test_X[:10]]
    )
    delta = 10.0
    print(f"database: {database.shape[0]} pooled series of length {length}")
    print(f"queries:  {queries.shape[0]}; DTW band delta={delta:g}%\n")

    # Exhaustive search.
    start = time.perf_counter()
    exhaustive = [
        int(np.argmin([dtw(q, c, delta) for c in database])) for q in queries
    ]
    t_exhaustive = time.perf_counter() - start

    # LB_Keogh-pruned search.
    start = time.perf_counter()
    res = nearest_neighbors(
        queries, database, measure="dtw", params={"delta": delta}
    )
    t_pruned = time.perf_counter() - start

    assert res.indices[:, 0].tolist() == exhaustive, "pruning must be exact"
    stats = res.stats.to_dict()
    print(
        f"exhaustive search: {stats['candidates']} full DTWs "
        f"in {t_exhaustive:.2f}s"
    )
    print(
        f"LB_Keogh search:   {stats['refined']} DTWs started "
        f"in {t_pruned:.2f}s ({stats['pruning_rate']:.0%} pruned, "
        "same answers)"
    )

    # Show the envelope bound on one pair.
    q, c = queries[0], database[0]
    upper, lower = envelope(c, delta)
    print(
        f"\nexample pair: LB_Keogh={lb_keogh(q, c, delta):.4f} "
        f"<= DTW={dtw(q, c, delta):.4f}"
    )
    print(
        f"envelope width (mean upper-lower): "
        f"{float(np.mean(upper - lower)):.4f}"
    )


if __name__ == "__main__":
    main()
