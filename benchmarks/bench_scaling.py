"""Complexity-class verification — the empirical side of Figure 9.

Figure 9's interpretation rests on the asymptotic classes the registry
declares: O(m) lock-step, O(m log m) sliding, O(m^2) elastic/kernel. This
bench measures per-comparison runtime across series lengths and fits the
log-log slope, asserting each representative measure scales no worse than
its declared class (with headroom for constant-factor noise).

The second experiment turns from series length to reference-set size:
query latency of the sub-linear index path (``repro.index``) against the
brute scan for n = 10^3 .. 10^5 (10^6 behind ``REPRO_BENCH_HUGE=1``),
asserting the lower-bound filter prunes at least half the candidates at
the largest size on clustered data — iid noise would concentrate all
pairwise distances and void the comparison. At every size each exact
kind (``dft_lb``, ``paa_lb``, ``isax``) must answer k = 1 and k = 5
exactly like the brute scan, which gates the shared index search loop.
"""

import os
import time

import numpy as np

from repro.distances import get_measure
from repro.index import build_index

from conftest import run_once

LENGTHS = (64, 128, 256, 512)
#: (measure, params, declared slope upper bound + tolerance)
CASES = (
    ("euclidean", {}, 1.0),
    ("lorentzian", {}, 1.0),
    ("nccc", {}, 1.3),  # m log m
    ("dtw", {"delta": 100.0}, 2.0),
    ("msm", {"c": 0.5}, 2.0),
)
REPEATS = 5


def _time_measure(measure, params, length, rng) -> float:
    x = rng.normal(size=length)
    y = rng.normal(size=length)
    measure(x, y, **params)  # warm-up
    start = time.perf_counter()
    for _ in range(REPEATS):
        measure(x, y, **params)
    return (time.perf_counter() - start) / REPEATS


def test_scaling_slopes(benchmark, save_result):
    rng = np.random.default_rng(11)

    def experiment():
        rows = []
        for name, params, _ in CASES:
            measure = get_measure(name)
            times = [
                _time_measure(measure, params, m, rng) for m in LENGTHS
            ]
            slope = float(
                np.polyfit(np.log(LENGTHS), np.log(times), 1)[0]
            )
            rows.append((name, measure.complexity, times, slope))
        return rows

    rows = run_once(benchmark, experiment)
    lines = [
        "Scaling: per-comparison runtime vs series length",
        f"{'measure':<12} {'declared':<12} "
        + " ".join(f"m={m:<8}" for m in LENGTHS)
        + " slope",
    ]
    for name, declared, times, slope in rows:
        cells = " ".join(f"{t * 1e6:8.1f}us" for t in times)
        lines.append(f"{name:<12} {declared:<12} {cells} {slope:5.2f}")
    bounds = {name: bound for name, _, bound in CASES}
    for name, _, _, slope in rows:
        # Python/numpy constant factors flatten small-m curves, so slopes
        # can undershoot; they must not meaningfully exceed the class.
        assert slope <= bounds[name] + 0.4, (name, slope)
    save_result("scaling_slopes", "\n".join(lines))


#: Reference-set sizes for the query-latency sweep (10^6 is minutes of
#: fit + RAM, so it stays behind an env flag like the paper-scale knobs).
REFERENCE_SIZES = (1_000, 10_000, 100_000)
if os.environ.get("REPRO_BENCH_HUGE") == "1":
    REFERENCE_SIZES = REFERENCE_SIZES + (1_000_000,)
SERIES_LENGTH = 64
N_QUERIES = 16
#: Exact index kinds whose pruned answers must equal the brute scan.
EXACT_KINDS = ("dft_lb", "paa_lb", "isax")


def _clustered_references(n: int, rng: np.random.Generator) -> np.ndarray:
    """Multi-prototype z-normalized batch (pruning needs real structure)."""
    t = np.linspace(0, 2 * np.pi, SERIES_LENGTH)
    protos = np.vstack([np.sin((j % 4 + 1) * t + j) for j in range(8)])
    X = protos[rng.integers(0, 8, size=n)] + rng.normal(
        0, 0.25, (n, SERIES_LENGTH)
    )
    return (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, keepdims=True)


def test_index_query_latency_vs_reference_size(benchmark, save_result):
    rng = np.random.default_rng(23)

    def experiment():
        rows = []
        for n in REFERENCE_SIZES:
            X = _clustered_references(n, rng)
            Q = X[rng.integers(0, n, size=N_QUERIES)] + rng.normal(
                0, 0.05, (N_QUERIES, SERIES_LENGTH)
            )
            index = build_index("dft_lb", X, measure="euclidean", params={})
            start = time.perf_counter()
            idx, dist, stats = index.search(Q, 1)
            pruned_t = (time.perf_counter() - start) / N_QUERIES
            start = time.perf_counter()
            brute_idx, brute_dist, _ = index.search(Q, 1, prune=False)
            brute_t = (time.perf_counter() - start) / N_QUERIES
            rows.append((n, pruned_t, brute_t, stats.pruning_rate))
            # Exactness is non-negotiable at every scale, for every kind.
            brute = {1: (brute_idx, brute_dist)}
            brute[5] = index.search(Q, 5, prune=False)[:2]
            for kind in EXACT_KINDS:
                kind_index = build_index(
                    kind, X, measure="euclidean", params={}
                )
                for k, (want_idx, want_dist) in brute.items():
                    got_idx, got_dist, _ = kind_index.search(Q, k)
                    np.testing.assert_array_equal(got_idx, want_idx)
                    np.testing.assert_array_equal(got_dist, want_dist)
        return rows

    rows = run_once(benchmark, experiment)
    lines = [
        "Index scaling: exact 1-NN query latency vs reference-set size",
        f"{'n':>9} {'pruned/query':>14} {'brute/query':>13} "
        f"{'speedup':>8} {'prune rate':>11}",
    ]
    for n, pruned_t, brute_t, rate in rows:
        lines.append(
            f"{n:>9} {pruned_t * 1e3:>12.2f}ms {brute_t * 1e3:>11.2f}ms "
            f"{brute_t / pruned_t:>7.1f}x {rate:>10.1%}"
        )
    # The acceptance gate: at the largest size the lower-bound filter
    # must discard at least half the candidate set before refinement.
    largest = rows[-1]
    assert largest[3] >= 0.5, f"prune rate {largest[3]:.1%} at n={largest[0]}"
    save_result("index_scaling", "\n".join(lines))
