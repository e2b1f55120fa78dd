"""Latency gate for the streaming subsystem, run as a hard CI step.

Feeds a pinned 10^4-point series through a :class:`StreamMonitor` one
point at a time — the worst-case serving pattern — and gates three
properties:

1. **Absolute latency**: steady-state per-point p50/p99 at full history
   stay under generous CI budgets (env-overridable, see below).
2. **Amortized O(n) growth**: each append folds one new subsequence,
   which is one single-row MASS block over the current prefix (one FFT
   of the prefix, one of the row, one inverse: O(n log n)), so the
   median cost at history n vs history n/4 must grow by at most roughly
   the history ratio (~4x), far below the ~16x a naive per-point batch
   recompute (O(n^2 log n)) would show. The gate at 10x separates the
   two regimes with plenty of noise margin. Multi-point appends fold
   their subsequences in row blocks of ``profile_rows(n, window)``;
   perfbench's ``stream`` workload times those.
3. **Parity**: after the replay the incremental profile still matches
   the batch ``matrix_profile`` (``verify_against_batch``), and the
   injected discord actually raised an alert along the way.

Budgets (milliseconds) come from ``REPRO_BENCH_STREAM_P50_MS`` /
``REPRO_BENCH_STREAM_P99_MS`` — the defaults are ~10x the values
measured on a 2-vCPU VM, so only a real regression (or an O(n^2) slip)
trips the gate.

Run: ``cd benchmarks && PYTHONPATH=../src python -m pytest
bench_streaming.py`` (needs pytest-benchmark); it rewrites
``results/streaming_latency.txt``.
"""

import os
import time

import numpy as np

from repro.streaming import (
    build_monitor,
    inject_discord,
    verify_against_batch,
)

from conftest import run_once

#: Stream length: the latency gate is pinned at 10^4 points.
N_POINTS = int(os.environ.get("REPRO_BENCH_STREAM_POINTS", "10000"))
WINDOW = 64

#: Per-point latency budgets at full history (generous: on a 2-vCPU VM
#: p50 reads ~0.4-0.8ms and p99 ~0.8-1.1ms at n=10^4).
P50_BUDGET_MS = float(os.environ.get("REPRO_BENCH_STREAM_P50_MS", "5.0"))
P99_BUDGET_MS = float(os.environ.get("REPRO_BENCH_STREAM_P99_MS", "25.0"))

#: Median per-point cost at history n vs n/4: O(n log n) per point
#: predicts ~4.3x, a per-point batch recompute predicts ~17x.
GROWTH_LIMIT = 10.0

#: Steady-state tail: percentile window at full history.
TAIL = 1000


def _pinned_series(n):
    rng = np.random.default_rng(20200608)
    t = np.linspace(0.0, 40.0 * np.pi, n)
    series = np.sin(t) + rng.normal(0.0, 0.1, n)
    return inject_discord(series, scale=8.0, seed=13)


def test_streaming_per_point_latency(benchmark, save_result):
    series, discord_at = _pinned_series(N_POINTS)
    monitor = build_monitor(
        WINDOW, capacity=N_POINTS, discord_threshold=0.7, drift_z=12.0
    )
    times = np.empty(N_POINTS)

    def feed():
        for i in range(N_POINTS):
            t0 = time.perf_counter()
            monitor.append(series[i : i + 1])
            times[i] = time.perf_counter() - t0
        return monitor.counters()

    counters = run_once(benchmark, feed)
    parity = verify_against_batch(monitor)

    tail = times[-TAIL:]
    p50, p95, p99 = (float(np.percentile(tail, p)) for p in (50, 95, 99))
    quarter = times[N_POINTS // 4 - TAIL : N_POINTS // 4]
    growth = float(np.median(tail) / np.median(quarter))

    lines = [
        f"Streaming: per-point append latency, n={N_POINTS} window={WINDOW}",
        "",
        f"  steady state (last {TAIL} points, full history):",
        f"    p50={p50 * 1e3:.3f}ms p95={p95 * 1e3:.3f}ms "
        f"p99={p99 * 1e3:.3f}ms  (budgets p50<{P50_BUDGET_MS}ms "
        f"p99<{P99_BUDGET_MS}ms)",
        f"  growth n/4 -> n: {growth:.2f}x  "
        f"(O(n log n)/point ~4.3x, batch recompute ~17x, gate {GROWTH_LIMIT}x)",
        f"  alerts: {counters['alerts']} {counters['alerts_by_kind']} "
        f"(discord injected at {discord_at})",
        f"  batch parity: max|diff|={parity['max_abs_diff']:.3g} "
        f"ok={parity['ok']}",
    ]

    assert p50 * 1e3 <= P50_BUDGET_MS
    assert p99 * 1e3 <= P99_BUDGET_MS
    assert growth <= GROWTH_LIMIT
    assert parity["checked"] and parity["ok"]
    assert counters["alerts_by_kind"].get("discord", 0) >= 1

    save_result("streaming_latency", "\n".join(lines))
