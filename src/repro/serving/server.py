"""Stdlib HTTP front-end for the query engine, with backpressure.

``repro serve --artifact DIR --port N`` exposes a fitted
:class:`~repro.serving.ModelArtifact` behind these endpoints:

- ``POST /predict`` — a JSON batch (``{"queries": [[...], ...]}``) or a
  base64-encoded ``.npy`` payload (``{"queries_npy_b64": "..."}``),
  optionally with ``k`` (neighbors per query), ``mode``
  (``exact``/``approx``/``brute``) and ``index`` (pin a fitted index by
  kind). Responds in the legacy flat schema-1 shape unless the request
  names any of those knobs (or asks ``"schema": 2``), in which case the
  versioned schema-2 shape carries ``(batch, k)`` neighbor arrays plus
  index prune counters;
- ``GET /healthz`` — liveness plus the artifact's manifest summary;
  flips to ``503``/``degraded`` while the latency SLO is breached;
- ``GET /metrics`` — the server's :class:`~repro.observability.MetricsSink`
  aggregates and process counters. Content-negotiated: JSON by default
  (the original format, preserved), Prometheus text exposition 0.0.4
  when the client sends ``Accept: text/plain`` or ``?format=prometheus``;
- ``GET /debug/traces`` — summaries of the retained request traces
  (``?order=slowest|recent&limit=N``) plus retention accounting;
- ``GET /debug/traces/<id>`` — one trace's full span tree and critical
  path;
- ``POST /stream/<id>`` — append points to a named live stream (created
  on first POST; the creating body may carry ``window``, ``capacity``
  and detector knobs, see :mod:`repro.serving.streams`). The response
  returns the accepted/dropped split and any alerts this chunk fired;
- ``GET /stream`` — every live stream's counters plus registry
  aggregates; ``GET /stream/<id>/profile`` — the stream's incremental
  matrix profile (batch-parity within 1e-9); ``GET /stream/<id>/alerts``
  — retained alerts and per-stream counters; ``DELETE /stream/<id>`` —
  drop the stream and free its buffer.

**Backpressure.** Every worker thread a request would occupy counts
against a bounded admission gate; once ``max_inflight`` ``/predict``
requests are in flight, further ones are *shed* immediately with
``503 Service Unavailable`` + a ``Retry-After`` header instead of
queueing without bound. Shedding is deliberate load-loss, never
wrong answers: admitted requests always run to completion, and the
gate is released only after the response is written.

**Observability.** Every request runs inside a
:func:`~repro.observability.trace_context`: the trace id is taken from
the client's ``X-Repro-Trace-Id`` header when valid, minted otherwise,
echoed back on every response, and stamped by the bus into each span
emitted on the handler thread — so ``serve.request`` ->
``serve.predict`` -> ``matrix.compute`` form one retrievable tree per
request in the server's :class:`TraceBuffer`. An optional structured
access log writes one JSON line per request carrying the same trace id.

**SLO.** ``slo_p99_ms`` arms a rolling-window p99 objective over
non-shed ``/predict`` latencies (:class:`SloTracker`): a sustained
breach emits ``serve.slo.breach``, burns error budget visibly in
``/metrics``, and turns ``/healthz`` unready until the window recovers.

**Graceful shutdown.** ``serve_forever(install_signal_handlers=True)``
converts SIGTERM/SIGINT into a graceful stop: the accept loop exits, and
``server_close`` joins the non-daemon worker threads so every in-flight
request is flushed before the process exits.
"""

from __future__ import annotations

import base64
import io
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..exceptions import ReproError, ServingError, StreamingError
from ..observability import (
    MetricsSink,
    get_bus,
    new_trace_id,
    trace_context,
    valid_trace_id,
)
from ..observability.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    SloTracker,
    TraceBuffer,
    render_exposition,
)
from .engine import QueryEngine
from .streams import (
    DEFAULT_MAX_STREAMS,
    DEFAULT_STREAM_CAPACITY,
    DEFAULT_STREAM_WINDOW,
    STREAM_CONFIG_KEYS,
    StreamRegistry,
)

#: Default bound on concurrent ``/predict`` requests.
DEFAULT_MAX_INFLIGHT = 32

#: Default ``Retry-After`` seconds suggested to shed clients.
DEFAULT_RETRY_AFTER = 1.0

#: Largest request body accepted, in bytes (a batch of ~4k queries of
#: length 512 as JSON). Bigger bodies are rejected with 413.
MAX_BODY_BYTES = 64 << 20

#: Header carrying the request's trace id, both directions.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Default per-store trace retention (recent ring and slowest top-N).
DEFAULT_TRACE_KEEP = 16

#: Default SLO evaluation window, seconds.
DEFAULT_SLO_WINDOW = 60.0


class AdmissionGate:
    """Bounded in-flight counter: admit-or-shed, never queue.

    ``try_enter`` is a single lock-protected compare-and-increment, so
    the shed decision costs nanoseconds even under overload — the whole
    point of shedding at the door instead of timing out in a queue.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ServingError(f"max_inflight must be >= 1, got {limit}")
        self.limit = int(limit)
        self._depth = 0
        self._lock = threading.Lock()

    def try_enter(self) -> bool:
        """Admit one request unless the gate is full."""
        with self._lock:
            if self._depth >= self.limit:
                return False
            self._depth += 1
            return True

    def leave(self) -> None:
        """Release one admitted request's slot."""
        with self._lock:
            self._depth -= 1

    @property
    def depth(self) -> int:
        """Current number of admitted, unfinished requests."""
        with self._lock:
            return self._depth


def _parse_queries(payload: Any) -> np.ndarray:
    """Extract the query batch from a decoded ``/predict`` JSON body."""
    if not isinstance(payload, dict):
        raise ServingError("request body must be a JSON object")
    if "queries" in payload:
        try:
            return np.asarray(payload["queries"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ServingError(f"'queries' is not numeric: {exc}") from exc
    if "queries_npy_b64" in payload:
        try:
            raw = base64.b64decode(payload["queries_npy_b64"], validate=True)
            return np.asarray(
                np.load(io.BytesIO(raw), allow_pickle=False),
                dtype=np.float64,
            )
        except (ValueError, OSError, TypeError) as exc:
            raise ServingError(
                f"'queries_npy_b64' is not a base64 .npy payload: {exc}"
            ) from exc
    raise ServingError(
        "request body needs a 'queries' (nested JSON list) or "
        "'queries_npy_b64' (base64 .npy) field"
    )


def _parse_search_options(payload: dict) -> tuple[int, str, str | None, int]:
    """Extract ``(k, mode, index, response schema)`` from a request body.

    The response schema defaults to 1 (the legacy flat shape) for bodies
    that name none of the search knobs, and to 2 as soon as ``k``,
    ``mode`` or ``index`` appears — a legacy client never sees a new
    shape, a new client never has to ask twice. ``"schema": 1`` may be
    requested explicitly, but only for 1-NN (the flat shape cannot carry
    a second neighbor).
    """
    wants_new = any(key in payload for key in ("k", "mode", "index"))
    try:
        k = int(payload.get("k", 1))
    except (TypeError, ValueError) as exc:
        raise ServingError(f"'k' must be an integer: {exc}") from exc
    mode = payload.get("mode", "exact")
    if not isinstance(mode, str):
        raise ServingError(f"'mode' must be a string, got {type(mode).__name__}")
    index = payload.get("index")
    if index is not None and not isinstance(index, str):
        raise ServingError(
            f"'index' must be an index kind name, got {type(index).__name__}"
        )
    schema = payload.get("schema", 2 if wants_new else 1)
    if schema not in (1, 2):
        raise ServingError(f"'schema' must be 1 or 2, got {schema!r}")
    if schema == 1 and k != 1:
        raise ServingError(
            "the legacy schema-1 response shape is 1-NN only; request "
            '"schema": 2 for k > 1'
        )
    return k, mode, index, int(schema)


class _Handler(BaseHTTPRequestHandler):
    """Per-request handler; all shared state lives on ``self.server``."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default per-request stderr chatter; the event bus
        (and the optional structured access log) is the supported way to
        observe the server."""

    def _respond(
        self,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self._respond_bytes(status, body, "application/json", extra_headers)

    def _respond_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        # Stage, don't send: the bytes go on the wire only after the
        # request's root span has closed and its access-log line is
        # written (see _dispatch), so a client that reacts to the
        # response immediately — polling /debug/traces or tailing the
        # log — always observes its own request's telemetry.
        self._staged = (status, body, content_type, dict(extra_headers or {}))

    def _send_staged(self) -> None:
        status, body, content_type, extra_headers = self._staged
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header(TRACE_HEADER, self._trace_id)
        for name, value in extra_headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")

    @staticmethod
    def _span_path(path: str) -> str:
        """Span/metric label for *path*, with ids templated out.

        Stream ids are client-chosen, so labelling spans with the raw
        path would let clients mint unbounded ``path`` label values in
        the metrics sink; every ``/stream/<id>...`` request is labelled
        with its route template instead.
        """
        if path.startswith("/stream/"):
            rest = path[len("/stream/"):]
            _, slash, tail = rest.partition("/")
            return "/stream/{id}" + (slash + tail if slash else "")
        return path

    def _dispatch(self, method: str) -> None:
        """Common request wrapper: trace context, root span, access log.

        The trace id comes from the client's ``X-Repro-Trace-Id`` header
        when syntactically valid (distributed callers correlate their
        own traces through us) and is minted otherwise; either way it is
        echoed on the response and stamped into every span the handler
        thread emits, which is what links ``serve.request`` to the
        engine's ``serve.predict`` and the measure's ``matrix.compute``
        in one tree.
        """
        server: ReproServer = self.server.repro  # type: ignore[attr-defined]
        parts = urlsplit(self.path)
        path, query = parts.path, parse_qs(parts.query)
        incoming = self.headers.get(TRACE_HEADER, "")
        trace_id = incoming if valid_trace_id(incoming) else new_trace_id()
        self._trace_id = trace_id
        self._staged = (500, b"{}", "application/json", {})
        self._gate_held = False
        started = time.monotonic()
        shed = False
        try:
            with trace_context(trace_id):
                with get_bus().span(
                    "serve.request", path=self._span_path(path), method=method
                ) as span:
                    status, shed = self._route(
                        server, method, path, query, span
                    )
                    span.set(status=status)
            duration = time.monotonic() - started
            if server.slo is not None and path == "/predict" and not shed:
                # Shed requests answer in microseconds by design; folding
                # them into the latency objective would mask a breach.
                server.slo.observe(duration)
            server.log_access(
                method=method,
                path=path,
                status=status,
                duration_ms=round(duration * 1e3, 3),
                trace_id=trace_id,
                shed=shed,
            )
            self._send_staged()
        finally:
            # The admission slot is released only after the response is
            # on the wire — the gate bounds occupied worker threads, not
            # just occupied compute.
            if self._gate_held:
                server.gate.leave()

    def _route(
        self,
        server: "ReproServer",
        method: str,
        path: str,
        query: dict[str, list[str]],
        span: Any,
    ) -> tuple[int, bool]:
        """Route one request; returns ``(status, shed)``."""
        if method == "POST":
            if path == "/predict" or path.startswith("/stream/"):
                # Stream appends occupy a worker thread and run O(n)
                # profile updates, so they count against the same
                # admission gate as /predict: shed, never queue.
                if not server.gate.try_enter():
                    get_bus().count("serve.shed")
                    span.set(shed=True)
                    self._respond(
                        503,
                        {
                            "error": "overloaded: admission queue full",
                            "inflight": server.gate.depth,
                            "limit": server.gate.limit,
                        },
                        {"Retry-After": f"{server.retry_after:g}"},
                    )
                    return 503, True
                self._gate_held = True
                if path == "/predict":
                    status, payload = self._predict(server)
                else:
                    status, payload = self._stream_append(server, path)
                self._respond(status, payload)
                return status, False
            self._respond(404, {"error": f"unknown path {path!r}"})
            return 404, False

        if method == "DELETE":
            if path.startswith("/stream/"):
                return self._stream_delete(server, path), False
            self._respond(404, {"error": f"unknown path {path!r}"})
            return 404, False

        if path == "/stream":
            return self._stream_listing(server), False
        if path.startswith("/stream/"):
            return self._stream_detail(server, path), False
        if path == "/healthz":
            return self._healthz(server), False
        if path == "/metrics":
            return self._metrics(server, query), False
        if path == "/debug/traces":
            return self._trace_listing(server, query), False
        if path.startswith("/debug/traces/"):
            return self._trace_detail(server, path), False
        self._respond(404, {"error": f"unknown path {path!r}"})
        return 404, False

    # -- GET routes ----------------------------------------------------
    def _healthz(self, server: "ReproServer") -> int:
        payload = {
            "status": "ok",
            "inflight": server.gate.depth,
            "artifact": server.engine.artifact.describe(),
            "streams": server.streams.summary(),
        }
        status = 200
        if server.slo is not None:
            snapshot = server.slo.snapshot()
            payload["slo"] = snapshot.to_dict()
            if snapshot.breaching:
                # Readiness flip: a load balancer polling /healthz stops
                # routing here until the window recovers.
                status, payload["status"] = 503, "degraded"
        self._respond(status, payload)
        return status

    def _wants_prometheus(self, query: dict[str, list[str]]) -> bool:
        fmt = query.get("format", [""])[0].lower()
        if fmt in ("prometheus", "prom", "text"):
            return True
        if fmt == "json":
            return False
        accept = self.headers.get("Accept", "")
        return "text/plain" in accept and "application/json" not in accept

    def _metrics(
        self, server: "ReproServer", query: dict[str, list[str]]
    ) -> int:
        if self._wants_prometheus(query):
            self._respond_bytes(
                200,
                server.render_prometheus().encode(),
                PROMETHEUS_CONTENT_TYPE,
            )
        else:
            self._respond(200, server.render_metrics())
        return 200

    def _trace_listing(
        self, server: "ReproServer", query: dict[str, list[str]]
    ) -> int:
        order = query.get("order", ["slowest"])[0]
        if order not in ("slowest", "recent"):
            self._respond(
                400, {"error": f"order must be 'slowest' or 'recent', got {order!r}"}
            )
            return 400
        try:
            limit = int(query.get("limit", ["0"])[0]) or None
        except ValueError:
            self._respond(400, {"error": "limit must be an integer"})
            return 400
        payload = {
            "order": order,
            "traces": [
                trace.summary()
                for trace in server.traces.traces(order=order, limit=limit)
            ],
            "stats": server.traces.stats(),
        }
        self._respond(200, payload)
        return 200

    def _trace_detail(self, server: "ReproServer", path: str) -> int:
        trace_id = path[len("/debug/traces/"):]
        trace = server.traces.get(trace_id)
        if trace is None:
            self._respond(
                404, {"error": f"no retained trace {trace_id!r}"}
            )
            return 404
        self._respond(200, trace.to_dict())
        return 200

    # -- stream routes -------------------------------------------------
    @staticmethod
    def _stream_target(path: str) -> tuple[str, str]:
        """Split ``/stream/<id>[/<sub>]`` into ``(id, sub)``."""
        rest = path[len("/stream/"):]
        stream_id, _, tail = rest.partition("/")
        return stream_id, tail

    def _read_json_body(self) -> dict:
        """Read and decode this request's JSON-object body.

        Raises :class:`ServingError` on empty/invalid bodies; oversized
        bodies get a ``status`` attribute of 413 so routes can surface
        the right code without re-checking lengths.
        """
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ServingError("empty request body")
        if length > MAX_BODY_BYTES:
            exc = ServingError(
                f"body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
            exc.status = 413
            raise exc
        try:
            payload = json.loads(self.rfile.read(length))
        except ValueError as exc:
            raise ServingError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        return payload

    def _stream_append(
        self, server: "ReproServer", path: str
    ) -> tuple[int, dict]:
        """POST /stream/<id>: create-on-first-use, append, report alerts."""
        stream_id, tail = self._stream_target(path)
        if tail:
            return 404, {"error": f"POST not supported on {path!r}"}
        try:
            payload = self._read_json_body()
            if "values" not in payload:
                raise ServingError(
                    "stream append body needs a 'values' array of points"
                )
            try:
                values = np.asarray(
                    payload["values"], dtype=np.float64
                ).ravel()
            except (TypeError, ValueError) as exc:
                raise ServingError(f"'values' is not numeric: {exc}") from exc
            config = {
                key: payload[key]
                for key in STREAM_CONFIG_KEYS
                if key in payload
            }
            handle, created = server.streams.get_or_create(stream_id, config)
            accepted, dropped, alerts = handle.append(values)
            bus = get_bus()
            if created:
                bus.count("serve.stream.create")
            if accepted:
                bus.count("serve.stream.points", accepted)
            if dropped:
                bus.count("serve.stream.dropped", dropped)
            for alert in alerts:
                bus.count("serve.stream.alerts", 1, kind=alert.kind)
            return 200, {
                "stream": stream_id,
                "created": created,
                "accepted": accepted,
                "dropped": dropped,
                "n": handle.monitor.state.n,
                "subsequences": handle.monitor.profile.n_subsequences,
                "alerts": [alert.to_dict() for alert in alerts],
            }
        except ReproError as exc:
            return getattr(exc, "status", 400), {"error": str(exc)}

    def _stream_listing(self, server: "ReproServer") -> int:
        payload = server.streams.summary()
        payload["streams"] = [
            handle.summary() for handle in server.streams.handles()
        ]
        self._respond(200, payload)
        return 200

    def _stream_detail(self, server: "ReproServer", path: str) -> int:
        stream_id, tail = self._stream_target(path)
        handle = server.streams.get(stream_id)
        if handle is None:
            self._respond(404, {"error": f"no stream {stream_id!r}"})
            return 404
        if tail == "profile":
            with handle.lock:
                payload = handle.monitor.profile.to_dict()
            payload["stream"] = stream_id
        elif tail == "alerts":
            with handle.lock:
                payload = {
                    "stream": stream_id,
                    "alerts": [
                        alert.to_dict() for alert in handle.monitor.alerts
                    ],
                    "counters": handle.monitor.counters(),
                }
        elif not tail:
            payload = handle.summary()
        else:
            self._respond(404, {"error": f"unknown path {path!r}"})
            return 404
        self._respond(200, payload)
        return 200

    def _stream_delete(self, server: "ReproServer", path: str) -> int:
        stream_id, tail = self._stream_target(path)
        if tail:
            self._respond(404, {"error": f"DELETE not supported on {path!r}"})
            return 404
        if server.streams.remove(stream_id):
            get_bus().count("serve.stream.delete")
            self._respond(200, {"stream": stream_id, "deleted": True})
            return 200
        self._respond(404, {"error": f"no stream {stream_id!r}"})
        return 404

    def _predict(self, server: "ReproServer") -> tuple[int, dict]:
        """Parse, search, and shape the ``/predict`` response.

        Two response schemas are spoken. **Schema 1** (the legacy shape)
        is emitted when the request names neither ``schema`` nor any of
        the new knobs: flat ``labels``/``indices``/``distances`` vectors,
        1-NN only — byte-compatible with pre-index clients. **Schema 2**
        is emitted when the request carries ``"schema": 2`` or any of
        ``k`` / ``mode`` / ``index``: ``neighbor_indices`` and
        ``neighbor_distances`` are ``(batch, k)`` nested lists and the
        response echoes ``k``, ``mode`` and the index work counters.
        """
        try:
            payload = self._read_json_body()
            queries = _parse_queries(payload)
            k, mode, index, schema = _parse_search_options(payload)
            result = server.engine.search(queries, k=k, mode=mode, index=index)
            labels = server.engine.artifact.train_y[result.indices[:, 0]]
            if schema == 1:
                return 200, {
                    "labels": labels.tolist(),
                    "indices": result.indices[:, 0].tolist(),
                    "distances": result.distances[:, 0].tolist(),
                    "cache_hits": result.cache_hits,
                    "batch": int(labels.shape[0]),
                }
            return 200, {
                "schema": 2,
                "labels": labels.tolist(),
                "neighbor_indices": result.indices.tolist(),
                "neighbor_distances": result.distances.tolist(),
                "k": k,
                "mode": mode,
                "cache_hits": result.cache_hits,
                "pruned": result.stats.pruned,
                "full_computations": result.stats.refined,
                "batch": int(labels.shape[0]),
            }
        except ReproError as exc:
            return getattr(exc, "status", 400), {"error": str(exc)}


class _ThreadingServer(ThreadingHTTPServer):
    """ThreadingHTTPServer configured for graceful drains.

    Worker threads are non-daemon and ``server_close`` blocks on them, so
    a shutdown flushes every admitted request before returning — the
    property the CI SIGTERM drill asserts.
    """

    daemon_threads = False
    block_on_close = True
    # Modest accept backlog; beyond it the kernel refuses, which is the
    # outermost (involuntary) layer of backpressure.
    request_queue_size = 64


class ReproServer:
    """Owns the HTTP server, engine, gate, metrics sink, trace buffer
    and (optionally) the SLO tracker and structured access log.

    Usable three ways: ``serve_forever()`` in a foreground process (the
    CLI), ``start_background()`` for tests and the load harness, or as a
    context manager wrapping either.
    """

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        retry_after: float = DEFAULT_RETRY_AFTER,
        slo_p99_ms: float | None = None,
        slo_window: float = DEFAULT_SLO_WINDOW,
        trace_keep: int = DEFAULT_TRACE_KEEP,
        access_log: str | Path | None = None,
        max_streams: int = DEFAULT_MAX_STREAMS,
        stream_capacity: int = DEFAULT_STREAM_CAPACITY,
        stream_window: int = DEFAULT_STREAM_WINDOW,
    ):
        self.engine = engine
        self.gate = AdmissionGate(max_inflight)
        self.retry_after = float(retry_after)
        self.streams = StreamRegistry(
            max_streams=max_streams,
            default_window=stream_window,
            capacity=stream_capacity,
            engine=engine,
        )
        self.sink = MetricsSink(group_by=("path", "status", "route", "measure"))
        self.traces = TraceBuffer(
            keep_recent=trace_keep, keep_slowest=trace_keep
        )
        self.slo = (
            None
            if slo_p99_ms is None
            else SloTracker(slo_p99_ms, slo_window)
        )
        self._access_log_path = (
            None if access_log is None else Path(access_log)
        )
        self._access_log_fh: Any = None
        self._access_log_lock = threading.Lock()
        self._httpd = _ThreadingServer((host, port), _Handler)
        self._httpd.repro = self  # type: ignore[attr-defined]
        self._sink_attached = False
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` — port is resolved even when 0 was asked."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _attach_sink(self) -> None:
        if not self._sink_attached:
            bus = get_bus()
            bus.attach(self.sink)
            bus.attach(self.traces)
            self._sink_attached = True
        if self._access_log_path is not None and self._access_log_fh is None:
            self._access_log_fh = self._access_log_path.open(
                "a", encoding="utf-8"
            )

    def _detach_sink(self) -> None:
        if self._sink_attached:
            bus = get_bus()
            bus.detach(self.sink)
            bus.detach(self.traces)
            self._sink_attached = False
        if self._access_log_fh is not None:
            with self._access_log_lock:
                self._access_log_fh.close()
                self._access_log_fh = None

    def log_access(self, **fields: Any) -> None:
        """Append one JSON access-log line (no-op without a log path)."""
        fh = self._access_log_fh
        if fh is None:
            return
        line = json.dumps({"ts": round(time.time(), 3), **fields})
        try:
            with self._access_log_lock:
                fh.write(line + "\n")
                fh.flush()
        except ValueError:
            pass  # closed during shutdown race; the request still served

    def serve_forever(self, *, install_signal_handlers: bool = False) -> None:
        """Run the accept loop in the calling thread until shutdown.

        With ``install_signal_handlers=True`` (CLI foreground mode),
        SIGTERM and SIGINT trigger a graceful stop: no new connections,
        in-flight requests flushed, then this method returns.
        """
        self._attach_sink()
        previous: dict[int, Any] = {}
        if install_signal_handlers:
            def _stop(signum: int, frame: Any) -> None:
                # shutdown() blocks until the accept loop exits, so it
                # must run off the loop's own thread.
                threading.Thread(
                    target=self._httpd.shutdown, daemon=True
                ).start()

            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(signum, _stop)
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        finally:
            self._httpd.server_close()  # joins in-flight worker threads
            self._detach_sink()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def start_background(self) -> "ReproServer":
        """Serve from a daemon thread; returns self once accepting."""
        if self._thread is not None:
            raise ServingError("server already started")
        self._attach_sink()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Graceful stop from any thread: drain in-flight, then return."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        self._detach_sink()

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        if self._thread is not None:
            self.shutdown()
        return False

    # -- metrics -------------------------------------------------------
    def render_metrics(self) -> dict:
        """The JSON ``/metrics`` payload: aggregates + counters + state."""
        counters = {
            name: value
            for name, value in sorted(get_bus().counters().items())
            if name.startswith("serve.")
        }
        payload = {
            "counters": counters,
            "inflight": self.gate.depth,
            "cache": self.engine.cache_stats().to_dict(),
            "metrics": self.sink.to_dicts(),
            "traces": self.traces.stats(),
            "streams": self.streams.summary(),
        }
        if self.slo is not None:
            payload["slo"] = self.slo.snapshot().to_dict()
        return payload

    def render_prometheus(self) -> str:
        """The ``/metrics`` payload in Prometheus text format 0.0.4."""
        counters = {
            name: value
            for name, value in get_bus().counters().items()
            if name.startswith("serve.")
        }
        cache = self.engine.cache_stats().to_dict()
        streams = self.streams.summary()
        gauges: dict[str, float] = {
            "repro_serve_inflight": float(self.gate.depth),
            "repro_serve_cache_size": float(cache.get("size", 0)),
            "repro_serve_cache_capacity": float(cache.get("capacity", 0)),
            "repro_serve_streams_active": float(streams["active"]),
            "repro_serve_streams_points": float(streams["points"]),
            "repro_serve_streams_dropped": float(streams["dropped"]),
            "repro_serve_streams_alerts": float(streams["alerts"]),
            "repro_serve_streams_rejected": float(streams["rejected"]),
            "repro_serve_stream_max_lag_seconds": streams["max_lag_seconds"],
        }
        if self.slo is not None:
            snapshot = self.slo.snapshot()
            gauges["repro_serve_slo_breaching"] = float(snapshot.breaching)
            gauges["repro_serve_slo_windowed_p99_seconds"] = (
                snapshot.p99_seconds
            )
            gauges["repro_serve_slo_target_p99_seconds"] = (
                snapshot.target_p99_seconds
            )
            gauges["repro_serve_slo_burn_rate"] = snapshot.burn_rate
        return render_exposition(self.sink, counters, gauges)


def serve_artifact(
    artifact_path: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    retry_after: float = DEFAULT_RETRY_AFTER,
    cache_size: int | None = None,
    backend: str = "auto",
    slo_p99_ms: float | None = None,
    slo_window: float = DEFAULT_SLO_WINDOW,
    trace_keep: int = DEFAULT_TRACE_KEEP,
    access_log: str | Path | None = None,
    max_streams: int = DEFAULT_MAX_STREAMS,
    stream_capacity: int = DEFAULT_STREAM_CAPACITY,
) -> ReproServer:
    """Load an artifact and build a ready-to-run :class:`ReproServer`.

    ``backend`` selects the distance implementation tier for the
    engine's matrix route (see :class:`QueryEngine`); the compiled tier
    is JIT-warmed here, before the server accepts its first request.
    """
    from .artifact import ModelArtifact
    from .engine import DEFAULT_CACHE_SIZE

    artifact = ModelArtifact.load(artifact_path)
    engine = QueryEngine(
        artifact,
        cache_size=DEFAULT_CACHE_SIZE if cache_size is None else cache_size,
        backend=backend,
    )
    return ReproServer(
        engine,
        host,
        port,
        max_inflight=max_inflight,
        retry_after=retry_after,
        slo_p99_ms=slo_p99_ms,
        slo_window=slo_window,
        trace_keep=trace_keep,
        access_log=access_log,
        max_streams=max_streams,
        stream_capacity=stream_capacity,
    )
