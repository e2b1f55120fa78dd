"""End-to-end benchmark of the repository: four workloads, one command.

    python3 perfbench/run.py --workload sweep|predict|predict_index|stream|all
                             [--seed N] [--seconds S] [--trace 0|1]

Untraced runs (``--trace 0``) print the end-to-end metrics; traced runs
(``--trace 1``) replay the same ops with layer spans and print the
per-layer metrics. Every answer is checked against an oracle computed
before the timed phase; a wrong answer counts as a failed op. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402 - pins BLAS threads before numpy loads

WORKLOADS = ("sweep", "predict", "predict_index", "stream")
#: Ops per run: a fixed list, never cut off by time, so every run does
#: the same work. 100 ops leave ten samples beyond the p90; the stream
#: workload replays its whole streams (256 appends). ``--seconds`` does
#: not change the work.
OPS = 100
#: Wall-clock budget of one run: a run must end within three minutes.
RUN_BUDGET_S = 165.0
#: Ops per throughput block: 20 ops span one to eight seconds, so each
#: block averages over the VM's shortest speed phases.
THROUGHPUT_BLOCK = 20

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def n_ops(workload: str) -> int:
    if workload == "stream":
        from http_workloads import STREAM_CHUNK, STREAM_POINTS, STREAMS

        return STREAMS * STREAM_POINTS // STREAM_CHUNK
    return OPS


def run_workload(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    ops = n_ops(workload)
    if workload == "sweep":
        import sweep_workload

        raw = sweep_workload.run(seed, ops, trace, deadline)
    else:
        import http_workloads

        raw = http_workloads.run(workload, seed, ops, trace, deadline)
    raw["ops"] = ops
    return raw


def timings(latencies, cycles) -> dict[str, float]:
    import numpy as np

    lat_ms = np.asarray(latencies) * 1e3
    return {
        "latency_p50_ms": common.percentile(lat_ms, 50),
        "latency_p90_ms": common.percentile(lat_ms, 90),
        "throughput_ops_s": common.block_throughput(cycles, THROUGHPUT_BLOCK),
    }


def end_to_end(raw: dict) -> dict[str, float]:
    import numpy as np

    return {
        "setup_s": float(np.median(raw["setups"])),
        **timings(raw["latencies"], raw["cycles"]),
        "peak_rss_mb": float(raw["rss_mb"]),
    }


def report(workload: str, seed: int, trace: bool, raw: dict) -> dict:
    """Print the human-readable record; return the metrics."""
    import tracing

    print(f"# perfbench {workload} seed={seed} trace={int(trace)} ops={raw['ops']}")
    print("# env " + json.dumps(common.environment(raw.get("env"))))
    calib = common.calibration_summary(raw["calibration"])
    print(
        f"# calibration (median of {len(raw['calibration'])}, between ops): "
        f"fft {calib['calib.fft_ms']:.4f} ms, loop {calib['calib.loop_ms']:.4f} ms"
    )
    for note in raw["notes"]:
        print(f"# {note}")
    for example in raw["failure_examples"]:
        print(f"# FAILED {example}")
    if trace:
        layers = dict(raw["layers"])
        print(f"# trace check: {layers.pop('_check')}")
        layers.update(calib)
        metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS}
    else:
        values = end_to_end(raw)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        print(
            "# setup_s samples: "
            + ", ".join(f"{s:.4f}" for s in raw["setups"])
            + f"; {len(raw['latencies'])} timed ops"
        )
        if "wall" in raw:
            wall = timings(raw["wall"]["latencies"], raw["wall"]["cycles"])
            print(
                "# op timings below are calibrated; wall clock: "
                + ", ".join(f"{k} {v:.6g}" for k, v in wall.items())
            )
    ratio = raw["failed"] / raw["attempted"]
    for name, (value, unit) in metrics.items():
        print(f"{workload:<14} {name:<24} {value:>14.6g} {unit}")
    print(f"{workload:<14} {'failed_ratio':<24} {ratio:>14.6g} ratio ({raw['failed']}/{raw['attempted']})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="accepted and ignored: runs are bounded by op counts, not time",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no program at {common.SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    deadline = time.monotonic() + RUN_BUDGET_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        raw = run_workload(name, args.seed, bool(args.trace), deadline)
        metrics = report(name, args.seed, bool(args.trace), raw)
        summary["correct"] = summary["correct"] and raw["failed"] == 0
        summary["attempted"] += raw["attempted"]
        summary["failed"] += raw["failed"]
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
            deadline = time.monotonic() + RUN_BUDGET_S
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
