"""Run one workload N times with consecutive seeds and report each
end-to-end metric's run-to-run spread against its bound.

    python3 perfbench/spread.py --workload stream [--runs 10] [--first-seed 1]
                                [--save set1.json] [--against set0.json]

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median; it must stay below the metric's bound in BENCHMARK.json, and is
aimed at a third of it. ``--save`` writes the runs' values; ``--against``
compares this set's medians with a saved set's, so that two sets of runs
of the same code can be shown to agree within the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worse_by(spec: dict, median: float, baseline: float) -> float:
    """How much worse ``median`` is than ``baseline``, as a share of it."""
    change = (median - baseline) / baseline
    return change if spec["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write the runs' values here")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
        wall = time.monotonic() - start
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: {wall:.1f} s wall, correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']} "
            + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if args.save:
        args.save.write_text(json.dumps({"workload": args.workload, "values": values}))
    baseline = json.loads(args.against.read_text())["values"] if args.against else {}
    print(f"{'metric':<20} {'median':>11} {'spread':>8} {'bound':>6}  verdict"
          + ("   vs saved set" if baseline else ""))
    ok = True
    for spec in bench["end_to_end"]:
        sample = values[spec["name"]]
        q1, median, q3 = statistics.quantiles(sample, n=4)
        spread = (q3 - q1) / median
        bound = spec["bound"]
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread < bound else "TOO NOISY")
        ok = ok and spread < bound
        line = f"{spec['name']:<20} {median:>11.5g} {spread:>8.2%} {bound:>6.2f}  {verdict:<12}"
        if baseline:
            worse = worse_by(spec, median, statistics.median(baseline[spec["name"]]))
            ok = ok and worse <= bound
            line += f" {worse:+8.2%} worse" + ("" if worse <= bound else " (OUT OF BOUND)")
        print(line)
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
