"""Complexity-class verification — the empirical side of Figure 9.

Figure 9's interpretation rests on the asymptotic classes the registry
declares: O(m) lock-step, O(m log m) sliding, O(m^2) elastic/kernel. This
bench measures per-comparison runtime across series lengths and fits the
log-log slope, asserting each representative measure scales no worse than
its declared class (with headroom for constant-factor noise).

The second experiment turns from series length to reference-set size:
exact Euclidean top-k latency of the ``ed_scan`` kernel
(``repro.index.scan``) against ``pairwise`` plus a stable argsort (the
matrix route it replaced) for n = 10^3 .. 10^5 (10^6 behind
``REPRO_BENCH_HUGE=1``), on clustered data — iid noise would
concentrate all pairwise distances and void the screen. It gates three
things, at k = 1 and k = 5:

- at every size the kernel, and each retired Euclidean kind that
  resolves to it (``dft_lb``, ``isax``, ``paa_lb``), equals the row-wise
  brute oracle bitwise;
- the screen discards at least half the candidates at the largest size;
- from 10^4 up the kernel is at least ``MIN_SPEEDUP`` times faster than
  ``pairwise`` plus stable argsort (best of 5, timed interleaved in one
  process so the machine's speed phases cancel); 10^3 is reported only.

The DTW audit compares, at equal k, ``paa_lb`` at 8 segments,
``paa_lb`` at full resolution (the engine's default DTW route: LB_Keogh
order, the DP in blocks) and ``pairwise`` plus stable argsort, for 4
queries and for 1. It gates two things, at k = 1 and k = 5:

- at every size both resolutions, pruned or not, equal stable argsort
  over ``pairwise("dtw")`` bitwise;
- from 10^4 up the full-resolution route answers 4 queries at least
  ``DTW_MIN_SPEEDUP`` times faster than ``pairwise`` plus stable argsort
  (best of 5, interleaved). The single-query rows are reported only:
  there every DP call's fixed cost of ``m + n`` anti-diagonal steps
  weighs most.
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
#: Names that answer an exact ED question: the kernel and the retired
#: kinds that resolve to it.
EXACT_ED_NAMES = ("ed_scan", "dft_lb", "isax", "paa_lb")
#: Smallest size whose kernel-vs-matrix ratio is gated: at 10^3 fixed
#: per-call costs dominate and the ratio read 3.1-6.5x on a 2-vCPU VM,
#: too close to the bound to gate.
GATED_FROM = 10_000
#: Required kernel speed-up over pairwise + stable argsort (read
#: 8.3-14.1x at 10^4-10^5 on a 2-vCPU VM, one BLAS thread).
MIN_SPEEDUP = 3.0
TIMING_ROUNDS = 5
#: DTW audit: sizes, batches (the gated one first), band and repetitions.
DTW_SIZES = (1_000, 10_000)
DTW_QUERIES = (4, 1)
DTW_DELTA = 10.0
DTW_ROUNDS = 5
#: Required full-resolution ``paa_lb`` speed-up over pairwise + stable
#: argsort for 4 queries from ``GATED_FROM`` references (read 3.6x at
#: k = 1 and 1.8x at k = 5 over 10^4 on a 2-vCPU VM, one BLAS thread).
DTW_MIN_SPEEDUP = 1.2


def _clustered_references(n: int, rng: np.random.Generator) -> np.ndarray:
    """Multi-prototype z-normalized batch (pruning needs real structure)."""
    t = np.linspace(0, 2 * np.pi, SERIES_LENGTH)
    protos = np.vstack([np.sin((j % 4 + 1) * t + j) for j in range(8)])
    X = protos[rng.integers(0, 8, size=n)] + rng.normal(
        0, 0.25, (n, SERIES_LENGTH)
    )
    return (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, keepdims=True)


def _row_wise_oracle(X: np.ndarray, Q: np.ndarray, k: int):
    """Brute top-k: the row-wise distance to every reference, then
    stable (distance, index) order."""
    index = np.arange(X.shape[0])
    rows = []
    for q in Q:
        d = np.sqrt(((X - q) ** 2).sum(axis=1))
        top = np.lexsort((index, d))[:k]
        rows.append((top, d[top]))
    return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])


def _matrix_route(measure, Q, X, k, **params):
    """``pairwise`` plus stable argsort (the engine's matrix route)."""
    E = measure.pairwise(Q, X, **params)
    return np.argsort(E, axis=1, kind="stable")[:, :k]


def _interleaved_best(fns: dict, rounds: int) -> dict:
    """Best-of-``rounds`` seconds per callable, timed round-robin."""
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def test_index_query_latency_vs_reference_size(benchmark, save_result):
    rng = np.random.default_rng(23)
    euclidean = get_measure("euclidean")
    dtw = get_measure("dtw")

    def experiment():
        rows = []
        for n in REFERENCE_SIZES:
            X = _clustered_references(n, rng)
            Q = X[rng.integers(0, n, size=N_QUERIES)] + rng.normal(
                0, 0.05, (N_QUERIES, SERIES_LENGTH)
            )
            for k in (1, 5):
                # Exactness is non-negotiable at every scale, for every
                # name that answers an exact ED question.
                want_idx, want_dist = _row_wise_oracle(X, Q, k)
                for name in EXACT_ED_NAMES:
                    index = build_index(name, X, measure="euclidean", params={})
                    assert index.kind == "ed_scan", name
                    got_idx, got_dist, stats = index.search(Q, k)
                    np.testing.assert_array_equal(got_idx, want_idx)
                    np.testing.assert_array_equal(got_dist, want_dist)
                best = _interleaved_best(
                    {
                        "kernel": lambda: index.search(Q, k),
                        "matrix": lambda: _matrix_route(euclidean, Q, X, k),
                    },
                    TIMING_ROUNDS,
                )
                rows.append(
                    (n, k, best["kernel"], best["matrix"], stats.pruning_rate)
                )
        audit = []
        for n in DTW_SIZES:
            X = _clustered_references(n, rng)
            Q = X[rng.integers(0, n, size=DTW_QUERIES[0])] + rng.normal(
                0, 0.05, (DTW_QUERIES[0], SERIES_LENGTH)
            )
            params = {"delta": DTW_DELTA}
            E = dtw.pairwise(Q, X, **params)
            paa8 = build_index(
                {"kind": "paa_lb", "segments": 8}, X, measure="dtw",
                params=params,
            )
            full = build_index(
                {"kind": "paa_lb", "segments": SERIES_LENGTH}, X,
                measure="dtw", params=params,
            )
            for k in (1, 5):
                # Exact at every scale: both resolutions, pruned or not.
                want_idx = np.argsort(E, axis=1, kind="stable")[:, :k]
                want_dist = np.take_along_axis(E, want_idx, axis=1)
                for index in (paa8, full):
                    for prune in (True, False):
                        got_idx, got_dist, _ = index.search(Q, k, prune=prune)
                        np.testing.assert_array_equal(got_idx, want_idx)
                        np.testing.assert_array_equal(got_dist, want_dist)
                for r in DTW_QUERIES:
                    best = _interleaved_best(
                        {
                            "paa8": lambda: paa8.search(Q[:r], k),
                            "full": lambda: full.search(Q[:r], k),
                            "matrix": lambda: _matrix_route(
                                dtw, Q[:r], X, k, **params
                            ),
                        },
                        DTW_ROUNDS,
                    )
                    audit.append(
                        (n, r, k, best["paa8"], best["full"], best["matrix"])
                    )
        return rows, audit

    rows, audit = run_once(benchmark, experiment)
    lines = [
        f"Index scaling: exact ED top-k of {N_QUERIES} queries vs "
        f"reference-set size (m = {SERIES_LENGTH}, best of {TIMING_ROUNDS})",
        f"{'n':>9} {'k':>2} {'ed_scan':>11} {'pairwise+argsort':>17} "
        f"{'speedup':>8} {'prune rate':>11}",
    ]
    for n, k, kernel_t, matrix_t, rate in rows:
        lines.append(
            f"{n:>9} {k:>2} {kernel_t * 1e3:>9.2f}ms {matrix_t * 1e3:>15.2f}ms "
            f"{matrix_t / kernel_t:>7.1f}x {rate:>10.1%}"
        )
    lines += [
        "",
        f"DTW audit at equal k: r queries, delta = {DTW_DELTA:g}, best of "
        f"{DTW_ROUNDS} (w=m gated at {DTW_MIN_SPEEDUP:g}x for "
        f"r = {DTW_QUERIES[0]} from n = {GATED_FROM})",
        f"{'n':>9} {'r':>2} {'k':>2} {'paa_lb w=8':>11} {'paa_lb w=m':>11} "
        f"{'pairwise+argsort':>17} {'speedup':>8}",
    ]
    for n, r, k, paa8_t, full_t, matrix_t in audit:
        lines.append(
            f"{n:>9} {r:>2} {k:>2} {paa8_t * 1e3:>9.1f}ms {full_t * 1e3:>9.1f}ms "
            f"{matrix_t * 1e3:>15.1f}ms {matrix_t / full_t:>7.1f}x"
        )
    save_result("index_scaling", "\n".join(lines))
    # The screen must discard at least half the candidates at the
    # largest size before the row-wise refine.
    largest = [row for row in rows if row[0] == REFERENCE_SIZES[-1]]
    for n, k, _, _, rate in largest:
        assert rate >= 0.5, f"prune rate {rate:.1%} at n={n}, k={k}"
    for n, k, kernel_t, matrix_t, _ in rows:
        if n >= GATED_FROM:
            assert matrix_t >= MIN_SPEEDUP * kernel_t, (
                f"ed_scan {kernel_t * 1e3:.2f} ms is not {MIN_SPEEDUP:g}x "
                f"faster than pairwise + argsort {matrix_t * 1e3:.2f} ms "
                f"at n={n}, k={k}"
            )
    for n, r, k, _, full_t, matrix_t in audit:
        if n >= GATED_FROM and r == DTW_QUERIES[0]:
            assert matrix_t >= DTW_MIN_SPEEDUP * full_t, (
                f"paa_lb {full_t * 1e3:.1f} ms is not {DTW_MIN_SPEEDUP:g}x "
                f"faster than pairwise + argsort {matrix_t * 1e3:.1f} ms "
                f"at n={n}, r={r}, k={k}"
            )
