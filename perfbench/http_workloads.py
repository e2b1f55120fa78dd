"""The three HTTP workloads: ``predict``, ``predict_index`` and ``stream``.

Each runs against ``repro serve`` in its own process, driven by one
closed-loop client on one keep-alive ``http.client`` connection with
default socket options. Inputs and their oracles are generated from the
seed before the server starts; responses are stored during the timed phase
and checked after it, so checking costs the client nothing per op.
"""

from __future__ import annotations

import functools
import gc
import http.client
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import common
import tracing

#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Queries per /predict request.
BATCH = 4
#: Warm-up requests after /healthz, excluded from the timed phase.
WARMUP_OPS = 2
REQUEST_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0

PREDICT_REFS, PREDICT_LENGTH = 500, 128
INDEX_REFS, INDEX_LENGTH, INDEX_K = 100_000, 64, 5
#: The predict_index references, artifact and a pool of queries with their
#: oracle come from one pool seed and are built once per program version;
#: ``--seed`` picks which pool queries a run sends, and in which order.
INDEX_POOL, INDEX_POOL_SEED = 1024, 1
STREAMS, STREAM_POINTS, STREAM_CHUNK, STREAM_WINDOW = 2, 8192, 64, 64
#: Stream series, each with an injected discord and its batch-profile
#: oracle, come from a pool built once per program version (the oracle
#: takes seconds per series); ``--seed`` picks which two a run feeds.
STREAM_POOL, STREAM_POOL_SEED = 8, 1
STREAM_CONFIG = {
    "window": STREAM_WINDOW,
    "discord_threshold": 0.8,
    "drift_z": 6,
    "capacity": 2 * STREAM_POINTS,
}
PROFILE_ATOL = 1e-9
BANNER = re.compile(r"on http://127\.0\.0\.1:(\d+)")


class BenchError(RuntimeError):
    """A set-up step failed; the run cannot measure anything."""


# ----------------------------------------------------------------------
# server process + client
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on a kernel-chosen free port."""

    def __init__(self, argv: list[str], log_path: Path):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            cwd=common.ROOT,
            env=common.child_env(),
        )
        self.port = 0

    def wait_ready(self, timeout: float) -> int:
        """Wait for the bind banner, then for ``GET /healthz`` to answer 200."""
        deadline = time.monotonic() + timeout
        while not self.port:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited with {self.proc.returncode} before "
                    f"binding:\n{common.log_tail(self.log_path)}"
                )
            if time.monotonic() > deadline:
                raise BenchError("server did not bind in time")
            match = BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return self.port
                finally:
                    conn.close()
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(
                    f"/healthz never answered 200:\n{common.log_tail(self.log_path)}"
                )
            time.sleep(0.005)

    def stop(self) -> str:
        """SIGTERM, a bounded wait, then SIGKILL. Close clients first:
        ``repro serve`` does not exit while an idle keep-alive
        connection is open."""
        outcome = "not running"
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
                outcome = f"exit {self.proc.returncode}"
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
                outcome = "killed after SIGTERM timeout"
        self._log.close()
        return outcome

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        self._log.close()


class Client:
    """One keep-alive connection, reopened after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method, path, body, headers):
        """``(status, body bytes, latency s)``: first request byte
        written to last response byte read."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _headers(op_id: str, record: bool) -> dict[str, str]:
    return {
        "Content-Type": "application/json",
        tracing.TRACE_HEADER: op_id,
        tracing.RECORD_HEADER: "1" if record else "0",
    }


# ----------------------------------------------------------------------
# inputs and oracles
# ----------------------------------------------------------------------
@dataclass
class Op:
    method: str
    path: str
    body: bytes | None
    check: object  # callable(status, payload) -> str | None (error)


@dataclass
class Inputs:
    artifact: Path
    timed: list[Op]
    warmup: list[Op]
    #: requests after the timed phase whose answers are checked too
    verify: list[Op] = field(default_factory=list)
    server_args: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data_s: float = 0.0
    fit_s: float = 0.0


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _fit(directory: Path, X, y, **kwargs) -> float:
    from repro.serving import ModelArtifact

    start = time.perf_counter()
    ModelArtifact.fit(X, y, **kwargs).save(directory)
    return time.perf_counter() - start


def _build_predict(seed: int, n_queries: int, out: Path, oracle: bool) -> dict:
    from repro.classification import one_nn_predict
    from repro.datasets.synthetic import DOMAINS, DatasetSpec, generate_dataset
    from repro.distances import get_measure
    from repro.normalization import get_normalizer
    from repro.serving import ModelArtifact

    start = time.perf_counter()
    spec = DatasetSpec(
        name="perfbench-predict",
        domain=DOMAINS[seed % len(DOMAINS)],
        n_classes=4,
        length=PREDICT_LENGTH,
        train_size=PREDICT_REFS,
        test_size=n_queries,
        noise=0.15,
        shift_frac=0.1,
        scale_jitter=0.3,
        offset_jitter=0.3,
        seed=int(_rng(seed, 1).integers(2**31 - 1)),
    )
    data = generate_dataset(spec, normalize=None)
    Q = data.test_X
    if np.unique(Q, axis=0).shape[0] != Q.shape[0]:
        raise BenchError("predict queries repeat; the cache would hit")
    data_s = time.perf_counter() - start
    fit_s = _fit(
        out / "artifact", data.train_X, data.train_y,
        measure="nccc", normalization="zscore",
    )
    if not oracle:
        return {"data_s": data_s, "fit_s": fit_s}
    artifact = ModelArtifact.load(out / "artifact")
    Qn = get_normalizer(artifact.normalization).apply_dataset(Q)
    E = get_measure(artifact.measure).pairwise(Qn, artifact.train_X, **artifact.params)
    indices = np.argmin(E, axis=1)
    np.savez(
        out / "inputs.npz",
        queries=Q,
        labels=one_nn_predict(E, artifact.train_y),
        indices=indices,
        distances=E[np.arange(E.shape[0]), indices],
    )
    return {"data_s": data_s, "fit_s": fit_s}


def _build_predict_index(out: Path, oracle: bool) -> dict:
    from repro.distances import get_measure
    from repro.normalization import get_normalizer
    from repro.serving import ModelArtifact

    n_queries = INDEX_POOL
    start = time.perf_counter()
    rng = _rng(INDEX_POOL_SEED, 2)
    # Clustered references as in the repository's index-scaling bench:
    # i.i.d. noise would concentrate distances and void pruning.
    t = np.linspace(0, 2 * np.pi, INDEX_LENGTH)
    protos = np.vstack([np.sin((j % 4 + 1) * t + j) for j in range(8)])
    labels = rng.integers(0, 8, size=INDEX_REFS)
    X = protos[labels] + rng.normal(0, 0.25, (INDEX_REFS, INDEX_LENGTH))
    X = (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, keepdims=True)
    Q = X[rng.integers(0, INDEX_REFS, size=n_queries)] + rng.normal(
        0, 0.05, (n_queries, INDEX_LENGTH)
    )
    data_s = time.perf_counter() - start
    fit_s = _fit(
        out / "artifact", X, labels % 4,
        measure="euclidean", normalization="zscore", index="dft_lb",
    )
    if not oracle:
        return {"data_s": data_s, "fit_s": fit_s}
    artifact = ModelArtifact.load(out / "artifact")
    Qn = get_normalizer(artifact.normalization).apply_dataset(Q)
    measure = get_measure(artifact.measure)
    indices = np.empty((n_queries, INDEX_K), dtype=np.intp)
    gemm = np.empty((n_queries, INDEX_K))
    for lo in range(0, n_queries, 64):
        E = measure.pairwise(Qn[lo : lo + 64], artifact.train_X, **artifact.params)
        top = np.argsort(E, axis=1, kind="stable")[:, :INDEX_K]
        indices[lo : lo + 64] = top
        gemm[lo : lo + 64] = np.take_along_axis(E, top, axis=1)
    # Euclidean `pairwise` uses the expanded ||x||^2 + ||y||^2 - 2x.y form;
    # the exact index refines with the row-wise sqrt(sum((x - q)^2)). The
    # ranking oracle is `pairwise`; the distance oracle is the row-wise
    # definition, computed here for the oracle's own neighbours.
    direct = np.empty_like(gemm)
    for row in range(n_queries):
        diff = artifact.train_X[indices[row]] - Qn[row]
        direct[row] = np.sqrt((diff * diff).sum(axis=1))
    np.savez(
        out / "inputs.npz",
        queries=Q,
        labels=artifact.train_y[indices[:, 0]],
        indices=indices,
        distances=direct,
        gemm_distances=gemm,
    )
    return {"data_s": data_s, "fit_s": fit_s}


def _stream_series(seed: int, s: int, n: int) -> tuple[np.ndarray, int, int]:
    from repro.streaming import inject_discord

    rng = _rng(seed, 3, s)
    t = np.arange(n, dtype=np.float64)
    periods = rng.uniform(40.0, 160.0, size=2)
    series = (
        np.sin(2 * np.pi * t / periods[0])
        + 0.5 * np.sin(2 * np.pi * t / periods[1] + rng.uniform(0, 2 * np.pi))
        + rng.normal(0.0, 0.1, n)
    )
    length = max(n // 20, 2)
    at = int(rng.integers(n // 2, (3 * n) // 4))
    series, at = inject_discord(
        series, at=at, length=length, scale=6.0, seed=int(rng.integers(2**31 - 1))
    )
    return series, at, length


def _build_stream(out: Path, oracle: bool) -> dict:
    from repro.datasets.synthetic import DatasetSpec, generate_dataset
    from repro.search import matrix_profile

    seed = STREAM_POOL_SEED
    start = time.perf_counter()
    arrays = {}
    for k in range(STREAM_POOL):
        series, at, length = _stream_series(seed, k, STREAM_POINTS)
        arrays[f"series{k}"] = series
        arrays[f"discord{k}"] = np.array([at, length])
    arrays["warmup"] = _stream_series(seed, STREAM_POOL, 4 * STREAM_CHUNK)[0]
    refs = generate_dataset(
        DatasetSpec(
            name="perfbench-stream",
            domain="sensor",
            n_classes=2,
            length=STREAM_WINDOW,
            train_size=16,
            test_size=2,
            seed=int(_rng(seed, 4).integers(2**31 - 1)),
        ),
        normalize=None,
    )
    data_s = time.perf_counter() - start
    fit_s = _fit(out / "artifact", refs.train_X, refs.train_y, measure="euclidean")
    if not oracle:
        return {"data_s": data_s, "fit_s": fit_s}
    for k in range(STREAM_POOL):
        profile = matrix_profile(arrays[f"series{k}"], window=STREAM_WINDOW)
        arrays[f"profile{k}"] = profile.profile
    np.savez(out / "inputs.npz", **arrays)
    return {"data_s": data_s, "fit_s": fit_s}


def _materialize(name: str, key: str, make, live: bool) -> tuple[Path, Path, dict]:
    """``(inputs dir, artifact dir, set-up timings)`` of one workload.

    Inputs, artifact and oracle come from the cache entry ``key``. With
    ``live`` (trace runs) the inputs and the artifact are generated again,
    identically, so that ``setup.data_s`` and ``setup.fit_s`` are measured
    in the run; untraced runs report no set-up breakdown (zero timings).
    """
    entry = f"{name}-{key}-{common.source_fingerprint()}"
    directory = common.cache_dir(entry, lambda tmp: make(tmp, True))
    if not live:
        return directory, directory / "artifact", {"data_s": 0.0, "fit_s": 0.0}
    fresh = common.WORK / f"{name}-live"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir(parents=True)
    return directory, fresh / "artifact", make(fresh, False)


def _json_op(path: str, payload: dict, check) -> Op:
    return Op("POST", path, json.dumps(payload).encode(), check)


def _status_ok(status, payload) -> str | None:
    return None if status == 200 else f"status {status}"


def _predict_ops(Q, n_ops: int, extra: dict, check) -> tuple[list[Op], list[Op]]:
    """``(timed, warm-up)`` /predict ops of ``BATCH`` queries each;
    ``check(rows, status, payload)`` judges the answer for ``Q[rows]``."""
    ops = []
    for i in range(n_ops + WARMUP_OPS):
        rows = slice(BATCH * i, BATCH * (i + 1))
        ops.append(
            _json_op(
                "/predict",
                {"queries": Q[rows].tolist(), **extra},
                functools.partial(check, rows),
            )
        )
    return ops[WARMUP_OPS:], ops[:WARMUP_OPS]


def predict_inputs(seed: int, n_ops: int, live: bool) -> Inputs:
    n = BATCH * (n_ops + WARMUP_OPS)
    directory, artifact, meta = _materialize(
        "predict", f"s{seed}-n{n}", lambda out, oracle: _build_predict(seed, n, out, oracle), live
    )
    z = np.load(directory / "inputs.npz")
    labels, indices, distances = z["labels"], z["indices"], z["distances"]

    def check(rows, status, payload):
        if status != 200:
            return f"status {status}"
        if payload.get("cache_hits") != 0:
            return "cache hit on a query that never repeats"
        if (
            payload["labels"] != labels[rows].tolist()
            or payload["indices"] != indices[rows].tolist()
            or payload["distances"] != distances[rows].tolist()
        ):
            return "answer differs from one_nn_predict over pairwise"
        return None

    timed, warmup = _predict_ops(z["queries"], n_ops, {}, check)
    return Inputs(artifact, timed, warmup, data_s=meta["data_s"], fit_s=meta["fit_s"])


def predict_index_inputs(seed: int, n_ops: int, live: bool) -> Inputs:
    n = BATCH * (n_ops + WARMUP_OPS)
    if n > INDEX_POOL:
        raise BenchError(f"predict_index replays at most {INDEX_POOL} pool queries")
    directory, artifact, meta = _materialize(
        "predict_index", f"pool{INDEX_POOL}", _build_predict_index, live
    )
    z = np.load(directory / "inputs.npz")
    pick = _rng(seed, 2).permutation(INDEX_POOL)[:n]
    labels, indices, distances = z["labels"][pick], z["indices"][pick], z["distances"][pick]
    gap = float(np.max(np.abs(distances - z["gemm_distances"][pick])))

    def check(rows, status, payload):
        if status != 200:
            return f"status {status}"
        if payload.get("cache_hits") != 0 or payload.get("k") != INDEX_K:
            return "unexpected cache hit or k"
        if payload["neighbor_indices"] != indices[rows].tolist():
            return "neighbours differ from pairwise + stable argsort"
        if (
            payload["neighbor_distances"] != distances[rows].tolist()
            or payload["labels"] != labels[rows].tolist()
        ):
            return "distances differ from the row-wise Euclidean oracle"
        return None

    extra = {"k": INDEX_K, "mode": "exact"}
    timed, warmup = _predict_ops(z["queries"][pick], n_ops, extra, check)
    return Inputs(
        artifact,
        timed,
        warmup,
        notes=[
            "predict_index distance oracle: row-wise ED; max |row-wise - "
            f"pairwise (GEMM form)| over the oracle's neighbours = {gap:.3g}"
        ],
        data_s=meta["data_s"],
        fit_s=meta["fit_s"],
    )


def stream_inputs(seed: int, n_ops: int, live: bool) -> Inputs:
    directory, artifact, meta = _materialize("stream", f"pool{STREAM_POOL}", _build_stream, live)
    z = np.load(directory / "inputs.npz")
    pick = _rng(seed, 3).permutation(STREAM_POOL)[:STREAMS]
    alerts: dict[int, list[dict]] = {s: [] for s in range(STREAMS)}

    def append(stream_id: str, values: np.ndarray, first: bool, n_after: int, s: int | None):
        def check(status, payload):
            if status != 200:
                return f"status {status}"
            if payload["accepted"] != values.shape[0] or payload["dropped"] != 0:
                return "points dropped"
            if payload["n"] != n_after:
                return f"stream holds {payload['n']} points, expected {n_after}"
            if s is not None:  # read by the profile check, which runs later
                alerts[s].extend(payload["alerts"])
            return None

        body = {"values": values.tolist()}
        if first:
            body.update(STREAM_CONFIG)
        return _json_op(f"/stream/{stream_id}", body, check)

    warm = z["warmup"]
    warmup = [
        append("perfbench-warmup", warm[k : k + STREAM_CHUNK], k == 0, k + STREAM_CHUNK, None)
        for k in range(0, warm.shape[0], STREAM_CHUNK)
    ]
    warmup.append(Op("DELETE", "/stream/perfbench-warmup", None, _status_ok))
    timed = []
    for k in range(0, STREAM_POINTS, STREAM_CHUNK):
        for s in range(STREAMS):
            chunk = z[f"series{pick[s]}"][k : k + STREAM_CHUNK]
            timed.append(append(f"perfbench-{s}", chunk, k == 0, k + STREAM_CHUNK, s))

    def profile_check(s: int):
        batch = z[f"profile{pick[s]}"]
        at, length = (int(v) for v in z[f"discord{pick[s]}"])

        def check(status, payload):
            if status != 200:
                return f"status {status}"
            streamed = np.array(
                [np.inf if v is None else v for v in payload["profile"]]
            )
            if streamed.shape != batch.shape:
                return "profile length differs from the batch profile"
            both_inf = np.isinf(batch) & np.isinf(streamed)
            with np.errstate(invalid="ignore"):
                diff = np.minimum(
                    np.abs(batch - streamed), np.abs(batch**2 - streamed**2)
                )
            diff[both_inf] = 0.0
            worst = float(np.max(diff))
            if not worst <= PROFILE_ATOL:
                return f"profile differs from batch matrix_profile by {worst:.3g}"
            if not any(
                a["kind"] == "discord" and at - STREAM_WINDOW < a["at"] < at + length
                for a in alerts[s]
            ):
                return f"injected discord at {at} raised no alert"
            return None

        return check

    verify = []
    for s in range(STREAMS):
        verify.append(Op("GET", f"/stream/perfbench-{s}/profile", None, profile_check(s)))
        verify.append(Op("DELETE", f"/stream/perfbench-{s}", None, _status_ok))
    return Inputs(
        artifact=artifact,
        timed=timed,
        warmup=warmup,
        verify=verify,
        server_args=["--stream-capacity", str(2 * STREAM_POINTS)],
        data_s=meta["data_s"],
        fit_s=meta["fit_s"],
    )


INPUTS = {
    "predict": predict_inputs,
    "predict_index": predict_index_inputs,
    "stream": stream_inputs,
}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _records(i: int, trace: bool) -> bool:
    """Trace runs record every other pair of ops (pairs keep both
    streams of the stream workload on each side)."""
    return trace and (i // 2) % 2 == 1


def run(workload: str, seed: int, n_ops: int, trace: bool, deadline: float) -> dict:
    common.WORK.mkdir(parents=True, exist_ok=True)
    inputs = INPUTS[workload](seed, n_ops, live=trace)
    spans_path = common.WORK / f"{workload}-spans.json"
    spans_path.unlink(missing_ok=True)
    serve = ["serve", "--artifact", str(inputs.artifact), "--port", "0", *inputs.server_args]
    if trace:
        argv = [sys.executable, str(common.BENCH_DIR / "serve_traced.py"), str(spans_path), *serve]
    else:
        argv = [sys.executable, "-m", "repro", *serve]

    setups: list[float] = []
    notes = list(inputs.notes)
    server = client = None
    try:
        for rep in range(1 if trace else SETUPS):
            start = time.perf_counter()
            server = Server(argv, common.WORK / f"{workload}-server{rep}.log")
            client = Client(server.wait_ready(READY_TIMEOUT_S))
            # Warm-up answers are not judged (wrong answers count against
            # timed ops); a warm-up that is not served at all ends the run.
            for w, op in enumerate(inputs.warmup):
                status, _, _ = client.request(
                    op.method, op.path, op.body, _headers(f"fff{w:05x}", False)
                )
                if status != 200:
                    raise BenchError(f"warm-up {op.method} {op.path}: status {status}")
            setups.append(time.perf_counter() - start)
            if rep < (0 if trace else SETUPS - 1):
                client.close()
                notes.append(f"set-up {rep} server stop: {server.stop()}")

        results = _timed_phase(inputs.timed, client, server, trace, deadline)
        verify = []
        for j, op in enumerate(inputs.verify):
            op_id = f"{len(inputs.timed) + j + 1:08x}"
            try:
                verify.append(client.request(op.method, op.path, op.body, _headers(op_id, trace))[:2])
            except (OSError, http.client.HTTPException) as exc:
                client.close()
                verify.append((None, repr(exc).encode()))
        client.close()
        notes.append(f"server stop: {server.stop()}")
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.kill()

    failures = _check(inputs.timed, results["responses"]) + _check(inputs.verify, verify)
    out = {
        "setups": setups,
        "latencies": [lat for lat in results["latencies"] if lat is not None],
        "cycles": results["cycles"],
        "attempted": len(inputs.timed) + len(inputs.verify),
        "failed": len(failures),
        "failure_examples": failures[:3],
        "rss_mb": results["rss_mb"],
        "calibration": results["calibration"],
        "notes": notes,
    }
    if trace:
        out["layers"] = _layers(inputs, results, spans_path)
        out["layers"].update({"setup.data_s": inputs.data_s, "setup.fit_s": inputs.fit_s})
    return out


def _timed_phase(ops, client, server, trace, deadline) -> dict:
    gc.collect()
    latencies: list[float | None] = []
    responses: list[tuple[int | None, bytes]] = []
    starts, calib_s, calibration = [], [], []
    cpu0 = common.cpu_seconds(server.proc.pid)
    for i, op in enumerate(ops):
        if time.monotonic() > deadline or server.proc.poll() is not None:
            reason = "deadline" if server.proc.poll() is None else "server died"
            print(f"perfbench: {reason}; {len(ops) - i} ops not run", file=sys.stderr)
            responses.extend((None, reason.encode()) for _ in ops[i:])
            latencies.extend(None for _ in ops[i:])
            break
        c0 = time.perf_counter()
        calibration.append(common.calibrate())
        c1 = time.perf_counter()
        calib_s.append(c1 - c0)
        starts.append(c1)
        try:
            status, data, lat = client.request(
                op.method, op.path, op.body, _headers(f"{i + 1:08x}", _records(i, trace))
            )
        except (OSError, http.client.HTTPException) as exc:
            client.close()
            status, data, lat = None, repr(exc).encode(), None
        responses.append((status, data))
        latencies.append(lat)
    end = time.perf_counter()
    cpu1 = common.cpu_seconds(server.proc.pid) if server.proc.poll() is None else cpu0
    rss = common.peak_rss_mb(server.proc.pid) if server.proc.poll() is None else 0.0
    cycles = [
        starts[i + 1] - starts[i] - calib_s[i + 1] for i in range(len(starts) - 1)
    ] + ([end - starts[-1]] if starts else [])
    return {
        "latencies": latencies,
        "responses": responses,
        "cycles": cycles,
        "rss_mb": rss,
        "cpu_s": cpu1 - cpu0,
        "calibration": calibration,
    }


def _check(ops, responses) -> list[str]:
    failures = []
    for i, (op, (status, data)) in enumerate(zip(ops, responses)):
        if status is None:
            failures.append(f"{op.method} {op.path} #{i}: {data.decode(errors='replace')}")
            continue
        try:
            error = op.check(status, json.loads(data))
        except (ValueError, KeyError, TypeError) as exc:
            error = f"malformed response: {exc!r}"
        if error:
            failures.append(f"{op.method} {op.path} #{i}: {error}")
    return failures


def _layers(inputs, results, spans_path: Path) -> dict:
    if not spans_path.exists():
        raise BenchError("traced server wrote no spans (it did not shut down gracefully)")
    spans = json.loads(spans_path.read_text())
    ops = spans["ops"]
    n = len(inputs.timed)
    recorded = [i for i in range(n) if _records(i, True) and results["latencies"][i] is not None]
    plain = [i for i in range(n) if not _records(i, True) and results["latencies"][i] is not None]
    records = [ops.get(f"{i + 1:08x}") for i in recorded]
    if any(r is None for r in records):
        raise BenchError("a recorded request left no span record")
    lat = results["latencies"]
    layers = tracing.layer_metrics(records, [lat[i] for i in recorded])
    p50_traced = float(np.median([lat[i] for i in recorded]))
    p50_plain = float(np.median([lat[i] for i in plain]))
    layers["trace.overhead_pct"] = 100.0 * (p50_traced / p50_plain - 1.0)
    layers["http.server_cpu_ms"] = 1e3 * results["cpu_s"] / n
    sizes_in = [len(op.body or b"") / 1024.0 for op in inputs.timed]
    sizes_out = [len(data) / 1024.0 for _, data in results["responses"]]
    layers["http.request_kb"] = float(np.median(sizes_in))
    layers["http.response_kb"] = float(np.median(sizes_out))
    reads = [
        ops.get(f"{n + j + 1:08x}")
        for j, op in enumerate(inputs.verify)
        if op.method == "GET"
    ]
    layers["stream.read_ms"] = float(
        np.median([r["layers"]["http.request"][1] * 1e3 for r in reads if r])
    ) if any(reads) else 0.0
    layers["setup.import_s"] = spans["setup"].get("import_s", 0.0)
    layers["setup.load_s"] = spans["setup"].get("load_s", 0.0)
    gap = abs(layers["http.wait_ms"] + layers["http.server_ms"] - 1e3 * p50_traced)
    layers["_check"] = (
        f"http.wait_ms {layers['http.wait_ms']:.3f} + http.server_ms "
        f"{layers['http.server_ms']:.3f} vs traced client p50 {1e3 * p50_traced:.3f} ms: "
        f"gap {100 * gap / (1e3 * p50_traced):.2f}% "
        f"(tracing overhead {layers['trace.overhead_pct']:.2f}%)"
    )
    # Each stream append should run exactly one MASS pass per subsequence
    # it completes; the response's running count gives the expected total.
    seen: dict[str, int] = {}
    expected = 0
    for i, op in enumerate(inputs.timed):
        status, data = results["responses"][i]
        if op.path.startswith("/stream/") and status == 200:
            total = json.loads(data)["subsequences"]
            if i in recorded:
                expected += total - seen.get(op.path, 0)
            seen[op.path] = total
    if expected:
        calls = sum(r["layers"].get("search.mass", (0, 0, 0))[2] for r in records)
        layers["_check"] += (
            f"; {calls} MASS calls for {expected} new subsequences"
            + ("" if calls == expected else " (MISMATCH)")
        )
    return layers
