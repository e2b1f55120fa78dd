"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror what a practitioner reproducing the paper needs:

- ``measures``  — list registered measures (filter by category/family);
- ``backends``  — per-measure implementation-backend status (compiled
  tier availability, JIT warm/cold state, numba presence);
- ``normalizations`` — list the 8 normalization methods;
- ``archive``   — describe the dataset archive (synthetic or real UCR);
- ``evaluate``  — 1-NN accuracy of measures on archive datasets;
- ``compare``   — paper-style baseline comparison table with Wilcoxon
  markers and average ranks;
- ``experiment`` — run a named paper experiment (``table2`` .. ``table7``,
  ``figure2`` .. ``figure8``) end to end;
- ``catalog``   — emit the generated measure reference (docs/measures.md);
- ``trace``     — summarize a ``--trace`` JSON-lines file into a
  per-measure time/accuracy breakdown plus the sweep's critical path;
- ``bench``     — run the pinned per-family benchmark workloads
  (``bench run`` -> ``BENCH_sweep.json``) and gate a run against a
  baseline (``bench compare``, nonzero exit on regression);
- ``fit``       — freeze a measure + normalization + reference set into
  a serveable artifact directory (``.npz`` + manifest);
- ``serve``     — answer online 1-NN ``/predict`` queries over a fitted
  artifact from a stdlib HTTP server with load shedding, request-scoped
  tracing (``/debug/traces``), Prometheus ``/metrics`` and an optional
  latency SLO (``--slo-p99-ms``) that flips ``/healthz`` readiness;
- ``top``       — live terminal dashboard polling a running server's
  ``/metrics`` and ``/debug/traces`` (qps, percentiles, shed rate,
  cache hit rate, SLO state, slowest trace's critical path);
- ``stream``    — replay a dataset as a live stream (``stream replay``),
  either in-process or against a running server's ``/stream`` endpoints
  (``--url``), printing alerts as they fire; ``--verify`` checks the
  incremental matrix profile against the batch recomputation (1e-9).

The sweep-running subcommands (``evaluate``, ``compare``, ``experiment``)
accept ``--trace PATH`` to capture an observability trace and
``--progress`` for live per-cell lines on stderr. ``evaluate`` and
``experiment`` additionally expose the sweep engine's execution knobs:
``--executor serial|process --workers N`` picks where cells run, and
``--checkpoint DIR --resume --max-retries N --backoff S
--cell-timeout S`` make sweeps fault-tolerant and resumable (a killed
run continues from its journal, recomputing only unfinished cells).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from .datasets import default_archive, list_ucr_datasets, load_ucr, ucr_available
from .distances import CATEGORIES, get_measure, list_measures
from .evaluation import (
    MeasureVariant,
    SweepConfig,
    compare_to_baseline,
    run_sweep,
    unsupervised_params,
)
from .normalization import describe_normalizations
from .reporting import format_comparison_table, format_rank_figure
from .stats import nemenyi_test


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    """Shared ``--trace`` / ``--progress`` flags for sweep subcommands."""
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write an observability trace (JSON lines) to PATH",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print live per-cell progress lines to stderr",
    )


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    """Shared sweep-engine flags (executor, durability, failure policy)."""
    parser.add_argument(
        "--executor", choices=["serial", "process"], default="serial",
        help="run cells in-process (serial) or on a worker pool (process)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --executor process (default: cpu count)",
    )
    parser.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal every finished cell to DIR (crash-safe, resumable)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay completed cells from --checkpoint, compute the rest",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="re-attempts per failing cell before it degrades to NaN",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.05, metavar="S",
        help="base seconds of exponential backoff between retries",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="S",
        help="per-attempt wall-clock budget in seconds",
    )
    parser.add_argument(
        "--backend", choices=["auto", "compiled", "reference"],
        default="auto",
        help="distance implementation tier (auto prefers compiled "
        "kernels where usable; compiled requires them; reference "
        "forces the numpy implementations)",
    )


def _sweep_config(
    args: argparse.Namespace, *, executor: str | None = None
) -> SweepConfig:
    """Build the frozen engine config from parsed CLI flags."""
    return SweepConfig(
        executor=executor or getattr(args, "executor", "serial"),
        workers=getattr(args, "workers", None),
        max_retries=getattr(args, "max_retries", 0),
        backoff=getattr(args, "backoff", 0.05),
        cell_timeout=getattr(args, "cell_timeout", None),
        checkpoint=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", False),
        backend=getattr(args, "backend", "auto"),
    )


def _report_failures(sweep) -> None:
    """Describe degraded cells (NaN entries) on stderr."""
    if sweep.ok:
        return
    print(
        f"{len(sweep.failures)} cell(s) failed after retries "
        "(NaN in the matrix):",
        file=sys.stderr,
    )
    for line in sweep.failure_report():
        print(f"  {line}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Time-series distance measures benchmark (SIGMOD 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measures = sub.add_parser("measures", help="list registered measures")
    p_measures.add_argument(
        "--category", choices=CATEGORIES, default=None,
        help="filter by measure category",
    )
    p_measures.add_argument(
        "--family", default=None, help="filter by survey family"
    )

    sub.add_parser(
        "backends",
        help="per-measure implementation-backend status (compiled tiers)",
    )

    sub.add_parser("normalizations", help="list the 8 normalization methods")

    p_archive = sub.add_parser("archive", help="describe available datasets")
    p_archive.add_argument(
        "--datasets", type=int, default=16,
        help="number of synthetic datasets to describe",
    )

    p_eval = sub.add_parser("evaluate", help="1-NN accuracy of measures")
    p_eval.add_argument("measures", nargs="+", help="measure names")
    p_eval.add_argument("--datasets", type=int, default=8)
    p_eval.add_argument("--normalization", default=None)
    p_eval.add_argument(
        "--scale", type=float, default=0.5, help="archive size scale"
    )
    _add_observability_args(p_eval)
    _add_execution_args(p_eval)

    p_cmp = sub.add_parser("compare", help="paper-style baseline comparison")
    p_cmp.add_argument("measures", nargs="+", help="candidate measure names")
    p_cmp.add_argument("--baseline", default="nccc")
    p_cmp.add_argument("--datasets", type=int, default=8)
    p_cmp.add_argument("--scale", type=float, default=0.5)
    _add_observability_args(p_cmp)

    sub.add_parser("catalog", help="print the markdown measure catalog")

    p_exp = sub.add_parser(
        "experiment", help="run a named paper experiment (table2, table5, ...)"
    )
    p_exp.add_argument("name", help="experiment name; 'list' to enumerate")
    p_exp.add_argument("--datasets", type=int, default=8)
    p_exp.add_argument("--scale", type=float, default=0.5)
    p_exp.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep"
    )
    _add_observability_args(p_exp)
    _add_execution_args(p_exp)

    p_trace = sub.add_parser(
        "trace", help="work with observability traces (--trace output)"
    )
    p_trace.add_argument(
        "action", choices=["summarize"], help="what to do with the trace"
    )
    p_trace.add_argument("path", help="JSON-lines trace file to read")
    p_trace.add_argument(
        "--datasets", type=int, default=10,
        help="how many slowest datasets to list",
    )
    p_trace.add_argument(
        "--slowest", type=int, default=3, metavar="N",
        help="for serving traces: critical paths of the N slowest requests",
    )

    p_bench = sub.add_parser(
        "bench", help="pinned benchmark workloads and regression gate"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_action", required=True)
    p_bench_run = bench_sub.add_parser(
        "run", help="run the per-family workloads, write BENCH json"
    )
    p_bench_run.add_argument(
        "--out", default="BENCH_sweep.json",
        help="output path for the bench record",
    )
    p_bench_run.add_argument(
        "--quick", action="store_true",
        help="smaller shapes / fewer repeats (the CI gate)",
    )
    p_bench_run.add_argument(
        "--repeats", type=int, default=None,
        help="timed repetitions per workload (default: 3 quick, 10 full)",
    )
    p_bench_cmp = bench_sub.add_parser(
        "compare", help="gate a bench record against a baseline"
    )
    p_bench_cmp.add_argument("baseline", help="baseline BENCH json file")
    p_bench_cmp.add_argument(
        "current", nargs="?", default="BENCH_sweep.json",
        help="bench record to gate (default BENCH_sweep.json)",
    )
    p_bench_cmp.add_argument(
        "--threshold", type=float, default=20.0,
        help="regression threshold in percent (p95 latency, peak RSS)",
    )

    p_fit = sub.add_parser(
        "fit", help="fit a serveable 1-NN artifact (reference set + measure)"
    )
    p_fit.add_argument("measure", help="distance measure to freeze")
    p_fit.add_argument(
        "--out", required=True, metavar="DIR",
        help="artifact output directory (arrays.npz + manifest.json)",
    )
    p_fit.add_argument(
        "--normalization", default=None,
        help="per-series normalization applied to reference set and queries",
    )
    p_fit.add_argument(
        "--datasets", type=int, default=8,
        help="archive size to load the source dataset from",
    )
    p_fit.add_argument(
        "--dataset-index", type=int, default=0,
        help="which archive dataset's train split to freeze",
    )
    p_fit.add_argument("--scale", type=float, default=0.5, help="archive size scale")
    p_fit.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="measure parameter override (repeatable); defaults to the "
        "paper's unsupervised parameters",
    )
    p_fit.add_argument(
        "--backend", choices=["auto", "compiled", "reference"],
        default="auto",
        help="implementation tier to fit (and record in the manifest as "
        "the tier the artifact was validated against)",
    )
    p_fit.add_argument(
        "--index", action="append", default=[], metavar="KIND[:K=V,...]",
        help="reference index to build into the artifact (repeatable), "
        "e.g. 'paa_lb:segments=16' (DTW) or 'grail_ann:dimensions=32'; "
        "exact kinds serve mode=exact, ANN kinds serve mode=approx "
        "(Euclidean always answers exactly through ed_scan, which "
        "'dft_lb', 'isax' and 'paa_lb' name under it)",
    )

    p_serve = sub.add_parser(
        "serve", help="serve online 1-NN queries over a fitted artifact"
    )
    p_serve.add_argument(
        "--artifact", required=True, metavar="DIR",
        help="artifact directory written by `repro fit`",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--max-inflight", type=int, default=32, metavar="N",
        help="concurrent /predict requests admitted before shedding (503)",
    )
    p_serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="S",
        help="Retry-After seconds suggested to shed clients",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=None, metavar="N",
        help="LRU query-cache entries (0 disables; default 1024)",
    )
    p_serve.add_argument(
        "--backend", choices=["auto", "compiled", "reference"],
        default="auto",
        help="implementation tier for the serving matrix route "
        "(compiled kernels are JIT-warmed before the first request)",
    )
    p_serve.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="arm a rolling-window p99 latency objective on /predict; "
        "a sustained breach flips /healthz to 503 until recovery",
    )
    p_serve.add_argument(
        "--slo-window", type=float, default=60.0, metavar="S",
        help="rolling SLO evaluation window in seconds",
    )
    p_serve.add_argument(
        "--trace-keep", type=int, default=16, metavar="N",
        help="request traces retained per store (N slowest + N most recent)",
    )
    p_serve.add_argument(
        "--access-log", metavar="PATH", default=None,
        help="append one JSON line per request (ts, method, path, status, "
        "duration_ms, trace_id, shed) to PATH",
    )
    _add_observability_args(p_serve)

    p_serve.add_argument(
        "--max-streams", type=int, default=64, metavar="N",
        help="live /stream streams held before refusing creation (409)",
    )
    p_serve.add_argument(
        "--stream-capacity", type=int, default=100_000, metavar="N",
        help="points buffered per stream; appends past it are dropped "
        "and counted, never queued",
    )

    p_stream = sub.add_parser(
        "stream", help="replay series as live streams, watch alerts fire"
    )
    stream_sub = p_stream.add_subparsers(dest="stream_action", required=True)
    p_replay = stream_sub.add_parser(
        "replay",
        help="replay a dataset (or .npy file) as a stream, print alerts",
    )
    p_replay.add_argument(
        "--url", default=None, metavar="URL",
        help="POST to a running server's /stream endpoints instead of "
        "replaying in-process",
    )
    p_replay.add_argument(
        "--stream-id", default="replay",
        help="stream name on the server (with --url)",
    )
    p_replay.add_argument(
        "--series", default=None, metavar="PATH",
        help="replay a 1-D .npy file instead of an archive dataset",
    )
    p_replay.add_argument("--datasets", type=int, default=8)
    p_replay.add_argument(
        "--dataset-index", type=int, default=0,
        help="which archive dataset to flatten into the stream",
    )
    p_replay.add_argument("--scale", type=float, default=0.5)
    p_replay.add_argument(
        "--points", type=int, default=None, metavar="N",
        help="truncate the stream to its first N points",
    )
    p_replay.add_argument(
        "--window", type=int, default=64, metavar="W",
        help="matrix-profile subsequence length",
    )
    p_replay.add_argument(
        "--chunk", type=int, default=64, metavar="N",
        help="points per append/POST",
    )
    p_replay.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="stream buffer cap (default 1e6 local, server default remote)",
    )
    p_replay.add_argument(
        "--discord-threshold", type=float, default=0.8, metavar="D",
        help="discord alert threshold; values < 1 are a fraction of the "
        "theoretical max distance sqrt(2*window)",
    )
    p_replay.add_argument(
        "--motif-threshold", type=float, default=None, metavar="D",
        help="motif alert threshold in z-normalized ED units",
    )
    p_replay.add_argument(
        "--drift-z", type=float, default=None, metavar="Z",
        help="drift alert threshold in baseline standard deviations",
    )
    p_replay.add_argument(
        "--inject-discord", action="store_true",
        help="plant a seeded anomalous burst two-thirds in before replay",
    )
    p_replay.add_argument(
        "--verify", action="store_true",
        help="after replay, check the incremental profile against the "
        "batch matrix profile (1e-9); nonzero exit on mismatch",
    )

    p_top = sub.add_parser(
        "top", help="live dashboard for a running `repro serve` instance"
    )
    p_top.add_argument(
        "url", nargs="?", default="http://127.0.0.1:8765",
        help="base URL of the server (default http://127.0.0.1:8765)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between polls",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (scriptable)",
    )
    return parser


def _load_datasets(count: int, scale: float):
    if ucr_available():
        names = list_ucr_datasets()[:count]
        return [load_ucr(name) for name in names]
    archive = default_archive(n_datasets=max(count, 16), size_scale=scale)
    return archive.subset(count)


def _variant(name: str, normalization: str | None) -> MeasureVariant:
    measure = get_measure(name)
    return MeasureVariant(
        measure.name,
        normalization,
        params=unsupervised_params(measure.name),
        label=measure.label,
    )


def cmd_measures(args: argparse.Namespace) -> int:
    """List registered measures, optionally filtered."""
    names = list_measures(args.category, args.family)
    for name in names:
        measure = get_measure(name)
        print(
            f"{name:<24} {measure.category:<9} {measure.family:<18} "
            f"{measure.complexity:<12} {measure.description}"
        )
    print(f"({len(names)} measures)")
    return 0


def cmd_backends(_: argparse.Namespace) -> int:
    """Show per-measure implementation-backend status."""
    from .reporting import format_backend_table

    print(format_backend_table())
    return 0


def cmd_normalizations(_: argparse.Namespace) -> int:
    """List the 8 Section 4 normalization methods."""
    for label, description in describe_normalizations():
        print(f"{label:<16} {description}")
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    """Describe the active dataset archive with sparklines."""
    from .datasets.stats import archive_stats
    from .reporting.sparkline import sparkline

    if ucr_available():
        names = list_ucr_datasets()
        print(f"real UCR archive with {len(names)} datasets:")
        datasets = [load_ucr(name) for name in names[: args.datasets]]
    else:
        archive = default_archive(n_datasets=max(args.datasets, 16))
        print(
            f"synthetic archive ({len(archive)} specs; set $UCR_ARCHIVE_PATH "
            "for the real UCR archive):"
        )
        datasets = archive.subset(args.datasets)
    for ds in datasets:
        domain = ds.metadata.get("domain", "")
        suffix = f"  [{domain}]" if domain else ""
        print(f"  {ds.summary()}{suffix}")
        print(f"    {sparkline(ds.train_X[0], width=48)}")
    print()
    print(archive_stats(datasets).describe())
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Report 1-NN accuracy of the named measures."""
    datasets = _load_datasets(args.datasets, args.scale)
    variants = [_variant(name, args.normalization) for name in args.measures]
    sweep = run_sweep(variants, datasets, config=_sweep_config(args))
    print(f"{'measure':<20} {'avg accuracy':>12}")
    for label, acc in sorted(
        sweep.mean_accuracy().items(), key=lambda kv: -kv[1]
    ):
        print(f"{label:<20} {acc:>12.4f}")
    _report_failures(sweep)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Render a paper-style baseline comparison + rank figure."""
    datasets = _load_datasets(args.datasets, args.scale)
    baseline = _variant(args.baseline, None)
    candidates = [_variant(name, None) for name in args.measures]
    sweep = run_sweep([baseline, *candidates], datasets)
    table = compare_to_baseline(sweep, baseline.label)
    print(format_comparison_table(table, f"Measures vs {baseline.label}"))
    if len(sweep.labels) >= 3:
        print()
        print(
            format_rank_figure(
                nemenyi_test(sweep.labels, sweep.accuracies),
                "Average ranks (Friedman + Nemenyi)",
            )
        )
    return 0


def cmd_catalog(_: argparse.Namespace) -> int:
    """Print the markdown measure catalog (docs/measures.md)."""
    from .reporting.catalog import catalog_markdown

    print(catalog_markdown())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a trace file: per-measure tables plus the critical path."""
    from .observability import load_trace, summarize_events
    from .reporting import (
        format_critical_path,
        format_serve_summary,
        format_trace_summary,
    )

    events = load_trace(args.path)
    serving = format_serve_summary(
        events,
        title=f"Serving summary: {args.path}",
        slowest=args.slowest,
    )
    if serving:
        # A serve trace has request roots, not a sweep span — the
        # per-endpoint view (with per-request critical paths) replaces
        # the sweep tables, which would be empty noise here.
        print(serving)
        return 0
    summary = summarize_events(events)
    print(
        format_trace_summary(
            summary,
            title=f"Trace summary: {args.path}",
            max_datasets=args.datasets,
        )
    )
    rendered = format_critical_path(events)
    if rendered:
        print()
        print(rendered)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the pinned workloads or gate a record against a baseline."""
    from .observability.bench import compare_bench, run_bench

    if args.bench_action == "run":
        record = run_bench(
            out=args.out, quick=args.quick, repeats=args.repeats
        )
        for family, payload in sorted(record["families"].items()):
            latency = payload["latency_seconds"]
            print(
                f"{family:<10} p50={latency['p50'] * 1e3:9.3f} ms  "
                f"p95={latency['p95'] * 1e3:9.3f} ms  "
                f"rss={payload['peak_rss_bytes'] / (1 << 20):7.1f} MiB"
            )
        print(f"wrote {args.out} ({record['workload']}, sha {record['git_sha'][:12]})")
        return 0
    code, lines = compare_bench(
        args.baseline, args.current, threshold_pct=args.threshold
    )
    print("\n".join(lines))
    return code


def _parse_index_spec(text: str) -> dict:
    """Parse an ``--index`` value: ``kind`` or ``kind:key=val,key=val``.

    Numeric values become int where possible, float otherwise, so specs
    like ``paa_lb:segments=16`` and ``grail_ann:min_recall=0.95`` both
    round-trip into the keyword arguments the index builders expect.
    """
    kind, sep, rest = text.partition(":")
    spec: dict = {"kind": kind.strip()}
    if not spec["kind"]:
        raise ValueError(f"--index expects KIND[:K=V,...], got {text!r}")
    if sep and not rest:
        raise ValueError(f"--index has a trailing ':' and no options: {text!r}")
    for item in filter(None, rest.split(",")):
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ValueError(
                f"--index option must be K=V, got {item!r} in {text!r}"
            )
        try:
            parsed: object = int(value)
        except ValueError:
            try:
                parsed = float(value)
            except ValueError:
                parsed = value
        spec[name.strip()] = parsed
    return spec


def cmd_fit(args: argparse.Namespace) -> int:
    """Freeze a measure + reference set into a serveable artifact."""
    from .serving import ModelArtifact

    params = unsupervised_params(args.measure)
    for override in args.param:
        name, _, value = override.partition("=")
        if not _ or not name:
            print(f"--param expects NAME=VALUE, got {override!r}", file=sys.stderr)
            return 2
        params[name] = float(value)
    try:
        index_specs = [_parse_index_spec(text) for text in args.index]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    datasets = _load_datasets(args.datasets, args.scale)
    if not 0 <= args.dataset_index < len(datasets):
        print(
            f"--dataset-index {args.dataset_index} out of range "
            f"(loaded {len(datasets)} datasets)",
            file=sys.stderr,
        )
        return 2
    dataset = datasets[args.dataset_index]
    from .distances import use_backend

    with use_backend(args.backend):
        artifact = ModelArtifact.fit_dataset(
            dataset,
            measure=args.measure,
            normalization=args.normalization,
            params=params,
            index=index_specs or None,
        )
    artifact.save(args.out)
    info = artifact.describe()
    print(
        f"fitted {info['measure']} ({info['category']}) on "
        f"{dataset.name}: {info['n_train']} reference series of length "
        f"{info['series_length']}, {info['n_classes']} classes "
        f"[backend {info['backend']}]"
    )
    for spec in info["indexes"]:
        detail = ", ".join(
            f"{k}={v}" for k, v in spec.items() if k != "kind"
        )
        print(f"index {spec['kind']}" + (f" ({detail})" if detail else ""))
    print(f"fingerprint {info['fingerprint']}")
    print(f"wrote {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve online 1-NN queries over a fitted artifact (blocking)."""
    from .serving import serve_artifact

    server = serve_artifact(
        args.artifact,
        args.host,
        args.port,
        max_inflight=args.max_inflight,
        retry_after=args.retry_after,
        cache_size=args.cache_size,
        backend=args.backend,
        slo_p99_ms=args.slo_p99_ms,
        slo_window=args.slo_window,
        trace_keep=args.trace_keep,
        access_log=args.access_log,
        max_streams=args.max_streams,
        stream_capacity=args.stream_capacity,
    )
    info = server.engine.artifact.describe()
    slo_note = (
        f" slo p99<={args.slo_p99_ms:g}ms/{args.slo_window:g}s"
        if args.slo_p99_ms is not None
        else ""
    )
    print(
        f"serving {info['measure']} artifact {info['fingerprint'][:12]} "
        f"({info['n_train']} x {info['series_length']}) on {server.url} "
        f"[backend {server.engine.backend}] "
        f"(max inflight {server.gate.limit}{slo_note})",
        file=sys.stderr,
    )
    server.serve_forever(install_signal_handlers=True)
    stats = server.engine.cache_stats()
    print(
        f"graceful shutdown: cache {stats.hits} hits / {stats.misses} "
        "misses, in-flight requests flushed",
        file=sys.stderr,
    )
    return 0


def _load_stream_series(args: argparse.Namespace):
    """Resolve the 1-D series ``repro stream replay`` feeds."""
    import numpy as np

    if args.series is not None:
        series = np.asarray(np.load(args.series), dtype=np.float64).ravel()
        source = args.series
    else:
        datasets = _load_datasets(args.datasets, args.scale)
        if not 0 <= args.dataset_index < len(datasets):
            raise ValueError(
                f"--dataset-index {args.dataset_index} out of range "
                f"(loaded {len(datasets)} datasets)"
            )
        dataset = datasets[args.dataset_index]
        # Concatenating the train split row by row turns a classification
        # dataset into one long stream with genuine regime changes at the
        # series boundaries — good fodder for the detectors.
        series = np.asarray(dataset.train_X, dtype=np.float64).ravel()
        source = dataset.name
    if args.points is not None:
        series = series[: args.points]
    return series, source


def cmd_stream(args: argparse.Namespace) -> int:
    """Replay a series through the streaming subsystem, printing alerts."""
    import numpy as np

    from .streaming import (
        StreamClient,
        build_monitor,
        inject_discord,
        replay_local,
        replay_remote,
        verify_against_batch,
    )

    try:
        series, source = _load_stream_series(args)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if series.shape[0] < 2 * args.window:
        print(
            f"stream of {series.shape[0]} points is shorter than "
            f"2 * window = {2 * args.window}",
            file=sys.stderr,
        )
        return 2
    discord_at = None
    if args.inject_discord:
        series, discord_at = inject_discord(series)
    print(
        f"replaying {source}: {series.shape[0]} points, window "
        f"{args.window}, chunks of {args.chunk}"
        + (f", discord injected at {discord_at}" if discord_at is not None else ""),
        file=sys.stderr,
    )

    def on_alert(alert) -> None:
        print(alert.describe())

    if args.url is not None:
        config = {
            "window": args.window,
            "discord_threshold": args.discord_threshold,
        }
        if args.capacity is not None:
            config["capacity"] = args.capacity
        if args.motif_threshold is not None:
            config["motif_threshold"] = args.motif_threshold
        if args.drift_z is not None:
            config["drift_z"] = args.drift_z
        client = StreamClient(args.url, args.stream_id, config=config)
        summary = replay_remote(
            series, client, chunk=args.chunk, on_alert=on_alert
        )
        counters = summary.get("counters", {})
        print(
            f"done: {counters.get('n', '?')} points on "
            f"{args.url}/stream/{args.stream_id}, "
            f"{counters.get('alerts', len(summary.get('alerts', [])))} alerts"
        )
        if args.verify:
            payload = client.profile()
            streamed = np.array(
                [np.inf if v is None else v for v in payload["profile"]]
            )
            from .search import matrix_profile

            batch = matrix_profile(
                series[: payload["n"]], window=payload["window"]
            )
            diff = float(np.max(np.abs(batch.profile - streamed)))
            ok = diff <= 1e-9
            print(f"verify: max |batch - streamed| = {diff:.3g} "
                  f"({'ok' if ok else 'MISMATCH'})")
            return 0 if ok else 1
        return 0

    monitor = build_monitor(
        args.window,
        capacity=args.capacity,
        discord_threshold=args.discord_threshold,
        motif_threshold=args.motif_threshold,
        drift_z=args.drift_z,
    )
    counters = replay_local(
        series, monitor, chunk=args.chunk, on_alert=on_alert
    )
    print(
        f"done: {counters['n']} points, {counters['subsequences']} "
        f"subsequences, {counters['alerts']} alerts "
        f"({counters['dropped']} dropped)"
    )
    if args.verify:
        report = verify_against_batch(monitor)
        if not report["checked"]:
            print("verify: stream too short to check")
            return 0
        print(
            f"verify: max |batch - streamed| = "
            f"{report['max_abs_diff']:.3g} "
            f"({'ok' if report['ok'] else 'MISMATCH'})"
        )
        return 0 if report["ok"] else 1
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard against a running server's telemetry endpoints."""
    from .observability.telemetry import run_top

    if args.once:
        return run_top(args.url, iterations=1, clear=False)
    return run_top(args.url, interval=args.interval)


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run a named paper experiment (or list them)."""
    from .evaluation import get_experiment, list_experiments

    if args.name == "list":
        for name in list_experiments():
            print(f"{name:<10} {get_experiment(name).description}")
        return 0
    experiment = get_experiment(args.name)
    datasets = _load_datasets(args.datasets, args.scale)
    print(f"{experiment.description} on {len(datasets)} datasets")
    # --jobs N (> 1) is shorthand for --executor process --workers N.
    executor = "process" if args.jobs > 1 else args.executor
    if args.jobs > 1 and args.workers is None:
        args.workers = args.jobs
    sweep = run_sweep(
        list(experiment.variants),
        datasets,
        config=_sweep_config(args, executor=executor),
    )
    _report_failures(sweep)
    table = compare_to_baseline(sweep, experiment.baseline)
    print(
        format_comparison_table(
            table, f"{experiment.description} (vs {experiment.baseline})"
        )
    )
    if 3 <= len(sweep.labels) <= 20:
        print()
        print(
            format_rank_figure(
                nemenyi_test(sweep.labels, sweep.accuracies),
                "Average ranks (Friedman + Nemenyi)",
            )
        )
    return 0


_COMMANDS = {
    "measures": cmd_measures,
    "backends": cmd_backends,
    "normalizations": cmd_normalizations,
    "archive": cmd_archive,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "catalog": cmd_catalog,
    "experiment": cmd_experiment,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "fit": cmd_fit,
    "serve": cmd_serve,
    "stream": cmd_stream,
    "top": cmd_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    with contextlib.ExitStack() as stack:
        if getattr(args, "trace", None) or getattr(args, "progress", False):
            from .observability import ProgressSink, get_bus, trace_to

            if getattr(args, "trace", None):
                stack.enter_context(trace_to(args.trace))
            if getattr(args, "progress", False):
                stack.enter_context(get_bus().sink(ProgressSink()))
        return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
