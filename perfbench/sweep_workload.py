"""The ``sweep`` workload: one paper-style row of variants per op.

Each op is one ``run_sweep(VARIANTS, [dataset])`` call with the serial
executor, in a process of its own (the process under test). Every dataset
has the same shape, so every op does the same work. The datasets form a
fixed pool whose accuracies are pinned; ``--seed`` picks which pool
entries a run replays and in which order, so every seed's answers are
checked.

Run as a script this module *is* that process: it imports ``repro``,
builds the datasets, warms up, reports ``ready`` on stdout, and on ``go``
runs the timed ops and reports their timings, answers and spans.

``python3 perfbench/sweep_workload.py --pin`` rewrites the pinned
accuracies of the pool (``pinned_sweep.json``).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

SETUPS = 3
READY_TIMEOUT_S = 90.0
PINNED = common.BENCH_DIR / "pinned_sweep.json"
#: Datasets in the pool: each of the 8 domains x 4 distortion profiles
#: four times. A run replays 100 of them plus one warm-up.
POOL = 128
POOL_SEED = 1
LENGTH, TRAIN, TEST, CLASSES = 32, 12, 12, 4
#: The archive's four distortion profiles: clean, spiky, shifted, warped.
PROFILES = (
    {"shift_frac": 0.05},
    {"shift_frac": 0.05, "spike_prob": 0.07},
    {"shift_frac": 0.25},
    {"shift_frac": 0.05, "warp_frac": 0.3},
)


def variants():
    from repro.evaluation.variants import MeasureVariant

    return [
        MeasureVariant("euclidean", "zscore"),
        MeasureVariant("lorentzian", "zscore"),
        MeasureVariant("manhattan", "minmax"),
        MeasureVariant("jaccard", "meannorm"),
        MeasureVariant("lorentzian", "adaptive"),
        MeasureVariant("nccc", "zscore"),
        MeasureVariant(
            "dtw", "zscore", tuning="loocv",
            grid=[{"delta": 0.0}, {"delta": 5.0}, {"delta": 10.0}],
        ),
        MeasureVariant("msm", "zscore", params={"c": 0.5}),
        MeasureVariant("sink", "zscore"),
        MeasureVariant("grail"),
    ]


def dataset(i: int):
    """Pool entry ``i``: domains and distortion profiles cycle, the shape
    never changes. Raw (unnormalized), so normalizations differ."""
    import numpy as np
    from repro.datasets.synthetic import DOMAINS, DatasetSpec, generate_dataset

    rng = np.random.default_rng(np.random.SeedSequence([POOL_SEED, 5, i]))
    spec = DatasetSpec(
        name=f"perfbench-sweep-{i}",
        domain=DOMAINS[i % len(DOMAINS)],
        n_classes=CLASSES,
        length=LENGTH,
        train_size=TRAIN,
        test_size=TEST,
        noise=0.15,
        scale_jitter=0.3,
        offset_jitter=0.3,
        seed=int(rng.integers(2**31 - 1)),
        **PROFILES[(i // len(DOMAINS)) % len(PROFILES)],
    )
    return generate_dataset(spec, normalize=None)


def pool_order(seed: int, n_ops: int) -> list[int]:
    """The pool entries of a run: ``n_ops`` timed ones, then the warm-up."""
    import numpy as np

    if n_ops + 1 > POOL:
        raise ValueError(f"a sweep run replays at most {POOL - 1} ops")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    return [int(i) for i in rng.permutation(POOL)[: n_ops + 1]]


# ----------------------------------------------------------------------
# the process under test
# ----------------------------------------------------------------------
def worker(config: dict) -> None:
    from repro import run_sweep
    from repro.distances.backends import active_backend

    import tracing

    import_s = time.perf_counter() - _STARTED
    order, trace = config["order"], config["trace"]
    n_ops = len(order) - 1
    t0 = time.perf_counter()
    datasets = [dataset(i) for i in order[:n_ops]]
    warm = dataset(order[n_ops])
    rows = variants()
    data_s = time.perf_counter() - t0
    rec = tracing.Recorder()
    missing = tracing.install(rec) if trace else []
    run_sweep(rows, [warm], executor="serial")
    tiers = {
        v.display: active_backend(v.measure) for v in rows if not v.is_embedding
    }
    print(json.dumps({"ready": True, "backends": tiers, "missing": missing}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    gc.collect()
    latencies, cycles, calibration, answers = [], [], [], []
    for i, ds in enumerate(datasets):
        calibration.append(common.calibrate())
        recorded = trace and (i // 2) % 2 == 1
        if recorded:
            rec.begin(str(i))
        op_start = time.perf_counter()
        try:
            result = rec.call(
                "sweep.run", run_sweep, (rows, [ds]), {"executor": "serial"},
                lambda a, k, r: {"cells": int(r.accuracies.size)},
            )
            answers.append(
                {
                    "accuracies": result.accuracies[0].tolist(),
                    "failures": [f.describe() for f in result.failures],
                }
            )
        except Exception as exc:  # noqa: BLE001 - a failed op is reported, not fatal
            answers.append({"error": repr(exc)})
        op_end = time.perf_counter()
        if recorded:
            rec.end()
        latencies.append(op_end - op_start)
        cycles.append(time.perf_counter() - op_start)
    calibration.append(common.calibrate())
    print(
        json.dumps(
            {
                "latencies": latencies,
                "cycles": cycles,
                "calibration": calibration,
                "answers": answers,
                "rss_mb": common.peak_rss_mb(),
                "import_s": import_s,
                "data_s": data_s,
                "records": [rec.ops.get(str(i)) for i in range(n_ops)],
            }
        ),
        flush=True,
    )


# ----------------------------------------------------------------------
# harness side
# ----------------------------------------------------------------------
def _check(answer: dict, pinned: list) -> str | None:
    import math

    if "error" in answer:
        return answer["error"]
    if answer["failures"]:
        return "; ".join(answer["failures"])
    if any(math.isnan(a) for a in answer["accuracies"]):
        return "NaN accuracy"
    if answer["accuracies"] != pinned:
        return f"accuracies {answer['accuracies']} != pinned {pinned}"
    return None


def run(seed: int, n_ops: int, trace: bool, deadline: float) -> dict:
    import numpy as np

    import tracing

    common.WORK.mkdir(parents=True, exist_ok=True)
    pinned = json.loads(PINNED.read_text())["accuracies"]
    if len(pinned) != POOL:
        raise RuntimeError(f"{PINNED.name} pins {len(pinned)} datasets, not {POOL}")
    order = pool_order(seed, n_ops)
    config = json.dumps({"order": order, "trace": trace})
    setups, notes, ready = [], [], {}
    for rep in range(1 if trace else SETUPS):
        log = open(common.WORK / f"sweep-worker{rep}.log", "wb")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, config],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            cwd=common.ROOT,
            env=common.child_env(),
            text=True,
        )
        try:
            reader = common.LineReader(proc.stdout)
            ready = reader.json_line(READY_TIMEOUT_S)
            setups.append(time.perf_counter() - start)
            last = rep == (0 if trace else SETUPS - 1)
            gc.collect()
            proc.stdin.write("go\n" if last else "exit\n")
            proc.stdin.flush()
            if last:
                result = reader.json_line(max(1.0, deadline - time.monotonic()))
            proc.wait(timeout=30)
        except (TimeoutError, EOFError) as exc:
            raise RuntimeError(
                f"sweep process failed: {exc}\n"
                + common.log_tail(common.WORK / f"sweep-worker{rep}.log")
            ) from exc
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            log.close()

    failures = []
    for i, answer in enumerate(result["answers"]):
        error = _check(answer, pinned[order[i]])
        if error:
            failures.append(f"op {i} (pool entry {order[i]}): {error}")
    # The sweep is in-process compute, whose wall time follows the VM's
    # speed phases (README, "Calibrated timings"); its end-to-end timings
    # are calibrated, and the wall-clock ones are printed beside them.
    out = {
        "setups": setups,
        "latencies": common.calibrated(result["latencies"], result["calibration"]).tolist(),
        "cycles": common.calibrated(result["cycles"], result["calibration"]).tolist(),
        "wall": {"latencies": result["latencies"], "cycles": result["cycles"]},
        "attempted": len(result["answers"]),
        "failed": len(failures),
        "failure_examples": failures[:3],
        "rss_mb": result["rss_mb"],
        "calibration": result["calibration"],
        "notes": notes,
        "env": {"backends": ready.get("backends", {})},
    }
    if trace:
        if ready.get("missing"):
            notes.append("layer boundaries not found: " + ", ".join(ready["missing"]))
        idx = [i for i, r in enumerate(result["records"]) if r is not None]
        plain = [i for i, r in enumerate(result["records"]) if r is None]
        lat = result["latencies"]
        layers = tracing.layer_metrics(
            [result["records"][i] for i in idx], [lat[i] for i in idx]
        )
        p50_traced = float(np.median([lat[i] for i in idx]))
        layers["trace.overhead_pct"] = 100.0 * (
            p50_traced / float(np.median([lat[i] for i in plain])) - 1.0
        )
        covered = [
            sum(v[0] for v in result["records"][i]["layers"].values()) / lat[i]
            for i in idx
        ]
        layers["_check"] = (
            f"summed layer self times cover {100 * float(np.median(covered)):.2f}% "
            f"of the row latency (p50); run_sweep's own share "
            f"{layers['trace.unattributed_pct']:.2f}%; tracing overhead "
            f"{layers['trace.overhead_pct']:.2f}%"
        )
        layers.update(
            {
                "setup.import_s": result["import_s"],
                "setup.data_s": result["data_s"],
                "setup.fit_s": 0.0,
                "setup.load_s": 0.0,
                "http.server_cpu_ms": 0.0,
                "http.request_kb": 0.0,
                "http.response_kb": 0.0,
                "stream.read_ms": 0.0,
            }
        )
        out["layers"] = layers
    return out


def pin() -> None:
    """Write the pool's accuracies: the reference every timed op is
    compared with."""
    from repro import run_sweep

    rows = variants()
    accuracies = [
        run_sweep(rows, [dataset(i)], executor="serial").accuracies[0].tolist()
        for i in range(POOL)
    ]
    rows_text = ",\n  ".join(json.dumps(row) for row in accuracies)
    PINNED.write_text(
        f'{{"pool_seed": {POOL_SEED}, "accuracies": [\n  {rows_text}\n]}}\n'
    )


if __name__ == "__main__":
    sys.path.insert(0, str(common.SRC))
    if sys.argv[1:2] == ["--pin"]:
        pin()
    else:
        worker(json.loads(sys.argv[1]))
