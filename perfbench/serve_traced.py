"""Run ``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_traced.py SPANS_OUT serve --artifact DIR ...

Everything after ``SPANS_OUT`` is handed to ``repro.cli.main`` unchanged.
Requests carrying ``X-Perfbench-Record: 1`` are recorded; the spans are
written to ``SPANS_OUT`` once, after the server's graceful shutdown.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import repro.cli
    import repro.serving.server  # noqa: F401 - wrapped below

    rec = tracing.Recorder()
    rec.setup["import_s"] = time.perf_counter() - _STARTED
    missing = tracing.install(rec)
    tracing.wrap_handler(rec)
    if missing:
        print(
            "perfbench: layer boundaries not found (metrics read 0): "
            + ", ".join(missing),
            file=sys.stderr,
        )
    code = repro.cli.main(argv)
    rec.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
