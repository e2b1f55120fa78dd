"""Shared helpers of the end-to-end benchmark: paths, statistics, the
calibration kernel, /proc readings, the environment record, the on-disk
oracle cache and line-oriented child-process I/O.

Nothing here imports ``repro``; the program under test is imported only by
the workload modules, from the checkout's ``src/``. Importing this module
pins every BLAS/OpenMP pool of the importing process to one thread, so it
must be imported before numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import shutil
import threading
import time
from pathlib import Path

#: Every BLAS/OpenMP pool the benchmark's processes could start.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import numpy as np  # noqa: E402 - after the thread pinning above

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working space for artifacts, logs and span dumps of the current run.
WORK = BENCH_DIR / ".work"
#: Oracles and artifacts keyed by seed and program source; never holds
#: timings, so reusing an entry cannot change a measured number.
CACHE = BENCH_DIR / ".cache"


def child_env() -> dict[str, str]:
    """Environment for processes under test: pinned threads, ``src`` first."""
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def block_throughput(cycle_s, block: int) -> float:
    """Median ops/s over consecutive equal-count blocks of op cycle times.

    A median over blocks, not total ops over total time, so one slow
    stretch of the VM moves one block and not the whole figure.
    """
    cycles = np.asarray(cycle_s, dtype=np.float64)
    n_blocks = max(1, cycles.shape[0] // block)
    size = cycles.shape[0] // n_blocks
    rates = [
        size / cycles[i * size : (i + 1) * size].sum() for i in range(n_blocks)
    ]
    return float(np.median(rates))


# ----------------------------------------------------------------------
# calibration kernel
# ----------------------------------------------------------------------
_CAL_RNG = np.random.default_rng(0)
_CAL_SIGNALS = [_CAL_RNG.normal(size=64) for _ in range(50)]
_CAL_A = [float(v) for v in _CAL_RNG.normal(size=32)]
_CAL_B = [float(v) for v in _CAL_RNG.normal(size=32)]


def _calibration_dp() -> float:
    """A 32 x 32 warping-style dynamic program over Python lists."""
    inf = float("inf")
    prev = [0.0] + [inf] * len(_CAL_B)
    for a in _CAL_A:
        cur = [inf] * (len(_CAL_B) + 1)
        for j, b in enumerate(_CAL_B, start=1):
            d = a - b
            cur[j] = d * d + min(prev[j], prev[j - 1], cur[j - 1])
        prev = cur
    return prev[-1]


def calibrate() -> tuple[float, float]:
    """One sample of the fixed calibration kernel: ``(fft_s, loop_s)``.

    Many small numpy FFTs and a pure-Python dynamic program, timed
    between ops and outside op timings. They are shaped like the
    program's own per-pair work (sliding and kernel measures; the
    reference tier's elastic kernels), so they slow down with it when the
    VM changes speed: when they drift together with the op latencies, the
    machine moved, not the program.
    """
    t0 = time.perf_counter()
    for x in _CAL_SIGNALS:
        spectrum = np.fft.rfft(x)
        np.fft.irfft(spectrum * spectrum.conj())
    t1 = time.perf_counter()
    _calibration_dp()
    _calibration_dp()
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


#: Calibration-kernel time (both parts) at the reference speed that
#: calibrated timings are scaled to: its time in a fast phase of a
#: 2-vCPU Xeon VM.
CAL_REF_S = 1.1e-3


def calibrated(times, samples) -> np.ndarray:
    """Op times scaled to the reference speed.

    ``samples`` holds one calibration sample before each op and one after
    the last (``len(times) + 1``). Op ``i`` is multiplied by
    ``CAL_REF_S`` over the mean kernel time of the samples on either side
    of it, so a phase in which the machine runs this kind of work twice
    as slowly stretches the op and the kernel alike and cancels out.
    """
    kernel = np.asarray(samples, dtype=np.float64).reshape(-1, 2).sum(axis=1)
    around = (kernel[:-1] + kernel[1:]) / 2.0
    return np.asarray(times, dtype=np.float64) * (CAL_REF_S / around)


def calibration_summary(samples) -> dict[str, float]:
    arr = np.asarray(samples, dtype=np.float64).reshape(-1, 2)
    return {
        "calib.fft_ms": float(np.median(arr[:, 0]) * 1e3),
        "calib.loop_ms": float(np.median(arr[:, 1]) * 1e3),
    }


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds consumed so far by a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def git_sha() -> str:
    """Commit of the checkout from ``.git`` files, or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(extra: dict | None = None) -> dict:
    import platform
    import importlib.util

    record = {
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }
    record.update(extra or {})
    return record


# ----------------------------------------------------------------------
# oracle cache
# ----------------------------------------------------------------------
def source_fingerprint() -> str:
    """Hash of every program source file, so a cache entry built from one
    version of the program is never read by another."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    for path in sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Cache entries kept per workload (oldest evicted): enough for a
#: ten-seed set run twice, without growing without bound.
CACHE_KEEP = 24


def cache_dir(name: str, build) -> Path:
    """Directory ``CACHE/name``, filled by ``build(tmp_dir)`` on a miss.

    The entry is built in a temporary sibling and renamed into place, so
    an interrupted build never leaves a half-written entry behind. Names
    start with ``<workload>-``; each workload keeps its newest
    ``CACHE_KEEP`` entries.
    """
    final = CACHE / name
    if final.exists():
        return final
    tmp = CACHE / f"{name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    try:
        tmp.rename(final)
    except OSError:  # a concurrent run finished the same entry first
        shutil.rmtree(tmp, ignore_errors=True)
    prefix = name.split("-", 1)[0] + "-"
    entries = sorted(
        (p for p in CACHE.iterdir() if p.name.startswith(prefix) and ".tmp" not in p.name),
        key=lambda p: p.stat().st_mtime,
    )
    for old in entries[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    return final


# ----------------------------------------------------------------------
# child-process I/O
# ----------------------------------------------------------------------
class LineReader:
    """Reads a child's stdout lines on a thread, so waits can time out."""

    def __init__(self, stream):
        self._lines: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._pump, args=(stream,), daemon=True
        )
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self._lines.put(line)
        self._lines.put(None)

    def json_line(self, timeout: float) -> dict:
        """Next JSON line; raises ``TimeoutError`` or ``EOFError``."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("child produced no result in time")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                raise TimeoutError("child produced no result in time") from None
            if line is None:
                raise EOFError("child closed its output")
            if line.startswith("{"):
                return json.loads(line)


def log_tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""
