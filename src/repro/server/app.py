"""The networked simulation service: asyncio HTTP front end.

:class:`SimulationServer` exposes one shared
:class:`~repro.service.service.SimulationService` over a stdlib-only
asyncio HTTP server (``repro serve --listen HOST:PORT``), speaking the
v1 envelope on four endpoints:

=======================  =============================================
``POST /v1/run``         one request envelope in, one result envelope
                         out (200 ok / 400 parse error / 500 execution
                         error / 503 shed / 504 timeout)
``POST /v1/batch``       a JSONL stream of envelopes in, a JSONL
                         stream of results out (one line per request,
                         order preserved; always 200)
``GET /v1/health``       liveness: status, drain flag, in-flight count
``GET /v1/metrics``      the merged metrics-registry snapshot (process,
                         service and server families: requests by
                         endpoint and status, engine batches, executed
                         runs, stage duration histograms, ...);
                         ``?format=prometheus`` renders the same
                         families as Prometheus text exposition
``GET /v1/trace``        ids of recently completed traces (requires
                         ``tracing=True`` / ``repro serve --trace``)
``GET /v1/trace/<id>``   one trace as a span-tree JSON payload
                         (``<id>`` may be ``last``)
``POST /v1/trace/<id>/spans``  a remote client ships its half of a
                         trace; spans are re-anchored and merged
=======================  =============================================

On top of the in-process service the server adds the robustness layer
a network edge needs:

* **bounded admission with load-shedding** — at most ``max_pending``
  admitted requests may be in flight; past that, requests get a
  well-formed ``shed``-status result (HTTP 503) instead of unbounded
  queue growth, and the client is expected to back off and retry;
* **per-request execution timeouts** — ``request_timeout`` seconds
  after admission an unresolved request answers with a
  ``timeout``-status result (HTTP 504; the underlying engine batch
  still completes and populates the store);
* **connection limits** — at most ``max_connections`` concurrent
  sockets; excess connections receive an immediate 503 and are closed;
* **graceful drain** — on SIGTERM (``run()``) or :meth:`aclose`, the
  listener stops accepting, every already-admitted request resolves
  and is answered, and only then does the service shut down.

Requests are admitted onto the shared service through the same
:class:`~repro.api.transport.InProcessTransport` the in-process
``Client`` uses, so concurrent remote submissions coalesce in the
micro-batcher and dedup against the content-addressed store exactly
like local ones — and every served result is bitwise identical to an
in-process run of the same config.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.api.envelope import (
    API_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    RunRequest,
    RunResult,
    now,
)
from repro.api.transport import InProcessTransport
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.trace import PARENT_HEADER, TRACE_HEADER, spans_from_wire
from repro.server.http import (
    BadRequest,
    HttpRequest,
    error_body,
    read_request,
    response_bytes,
)
from repro.service.requests import parse_request
from repro.service.service import SimulationService

if TYPE_CHECKING:
    from repro.dlpic.solver import DLFieldSolver
    from repro.service.store import ResultStore

#: HTTP status for each terminal result status.
HTTP_FOR_STATUS = {
    STATUS_OK: 200,
    STATUS_ERROR: 500,
    STATUS_SHED: 503,
    STATUS_TIMEOUT: 504,
}


class SimulationServer:
    """One shared ``SimulationService`` behind an asyncio HTTP edge.

    Parameters
    ----------
    service:
        An existing service to expose.  By default the server
        constructs (and owns, and closes) its own, running the
        background worker — ``max_batch_size``, ``max_wait``,
        ``store``, ``dl_solver``, ``workers`` and ``model_dir``
        configure it and are ignored otherwise (``workers > 1``
        shards compatibility groups across spawned worker processes).
    host, port:
        Bind address; port ``0`` picks a free ephemeral port
        (:attr:`url` reports the bound address after :meth:`start`).
    max_pending:
        Admission bound: requests admitted but unresolved.  At the
        bound, new work is shed with a ``shed``-status result (503).
    request_timeout:
        Per-request execution deadline in seconds (``None`` = no
        deadline); an expired request answers with a
        ``timeout``-status result (504).
    max_connections:
        Concurrent-socket bound; excess connections get 503 + close.
    on_result:
        Optional callback ``(RunRequest | None, RunResult) -> None``
        invoked from the event loop for every served request (the CLI
        uses it to print the per-request table in listen mode).
    on_ready:
        Optional callback ``(SimulationServer) -> None`` invoked once
        the listener is bound (the CLI prints the resolved address —
        useful with ``port=0``).
    tracing:
        Enable end-to-end tracing on the owned service
        (``repro serve --trace``); ignored when ``service=`` is passed
        (the service's own setting rules).  Traced requests adopt the
        client's ``X-Repro-Trace-Id``, record a ``server.request``
        span, and publish completed traces at ``GET /v1/trace/<id>``.
    """

    def __init__(
        self,
        service: "SimulationService | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 256,
        request_timeout: "float | None" = None,
        max_connections: int = 128,
        max_batch_size: int = 16,
        max_wait: float = 0.005,
        store: "ResultStore | None" = None,
        dl_solver: "DLFieldSolver | None" = None,
        workers: int = 1,
        model_dir: "str | None" = None,
        on_result: "Callable[[RunRequest | None, RunResult], None] | None" = None,
        on_ready: "Callable[[SimulationServer], None] | None" = None,
        tracing: bool = False,
    ) -> None:
        if max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {max_pending}")
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive or None, got {request_timeout}"
            )
        if service is None:
            service = SimulationService(
                max_batch_size=max_batch_size, max_wait=max_wait,
                store=store, dl_solver=dl_solver,
                workers=workers, model_dir=model_dir, start=True,
                tracing=tracing,
            )
            self._owns_service = True
        else:
            self._owns_service = False
        self.service = service
        self.tracer = getattr(service, "tracer", None)
        self._transport = InProcessTransport(service)
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self.on_result = on_result
        self.on_ready = on_ready
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "repro_requests_total",
            "Run requests answered, by endpoint and terminal status.",
            ("endpoint", "status"),
        )
        self._parse_failures = self.metrics.counter(
            "repro_parse_failures_total",
            "Requests rejected before execution (unparseable payloads), by endpoint.",
            ("endpoint",),
        )
        self._responses = self.metrics.counter(
            "repro_http_responses_total", "HTTP responses by status code.", ("code",)
        )
        self._connection_outcomes = self.metrics.counter(
            "repro_connections_total",
            "Connections accepted, or rejected at the connection limit.",
            ("outcome",),
        )
        # Only ok results feed the stage histograms: a failed or shed
        # request has no execution stages, and counting its wall time
        # would skew the distribution.
        self._stages = self.metrics.histogram(
            "repro_stage_duration_seconds",
            "Per-request stage durations of ok results (seconds).",
            ("stage",),
        )
        self.metrics.gauge(
            "repro_connections_open", "Open connections.",
            fn=lambda: self._connections,
        )
        self.metrics.gauge(
            "repro_connections_limit", "Concurrent-connection bound."
        ).set(max_connections)
        self.metrics.gauge(
            "repro_queue_inflight", "Admitted requests not yet answered.",
            fn=lambda: self._inflight,
        )
        self.metrics.gauge(
            "repro_queue_max_pending", "Admission bound on in-flight requests."
        ).set(max_pending)
        self.metrics.gauge(
            "repro_api_info", "The wire API version served (value always 1).",
            ("api_version",),
        ).set(1, api_version=API_VERSION)
        # Known label values start at 0, so rate queries find their series.
        for endpoint in ("/v1/run", "/v1/batch"):
            self._parse_failures.inc(0, endpoint=endpoint)
            for status in HTTP_FOR_STATUS:
                self._requests.inc(0, endpoint=endpoint, status=status)
        for outcome in ("accepted", "rejected"):
            self._connection_outcomes.inc(0, outcome=outcome)
        self._server: "asyncio.AbstractServer | None" = None
        self._inflight = 0
        self._connections = 0
        self._draining = False
        self._closed = False
        # writer -> currently-processing-a-request flag; idle
        # connections can be closed outright during drain.
        self._conn_busy: "dict[asyncio.StreamWriter, bool]" = {}
        self._handler_tasks: "set[asyncio.Task]" = set()

    # -- addresses --------------------------------------------------------
    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` (after :meth:`start`)."""
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=512
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.on_ready is not None:
            with contextlib.suppress(Exception):
                self.on_ready(self)

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, answer in-flight, shut down."""
        if self._closed:
            return
        self._draining = True
        self._closed = True
        if self._server is not None:
            self._server.close()
        # Idle keep-alive connections are parked in read_request();
        # closing them ends their handler loops.  Busy ones finish
        # writing their current response (marked Connection: close
        # while draining) and exit on their own.
        for writer, busy in list(self._conn_busy.items()):
            if not busy:
                writer.close()
        while self._inflight:
            await asyncio.sleep(0.005)
        if self._handler_tasks:
            await asyncio.wait(self._handler_tasks, timeout=10)
        if self._owns_service:
            self.service.close()

    def run(self) -> None:
        """Blocking entry point: serve until SIGINT/SIGTERM, then drain."""
        asyncio.run(self._run_until_signal())

    async def _run_until_signal(self) -> None:
        await self.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, stop.set)
        try:
            await stop.wait()
        finally:
            await self.aclose()

    # -- connection handling ----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        if self._connections >= self.max_connections:
            self._connection_outcomes.inc(outcome="rejected")
            with contextlib.suppress(ConnectionError, OSError):
                writer.write(response_bytes(
                    503, error_body(
                        f"connection limit of {self.max_connections} reached"
                    ),
                    keep_alive=False,
                ))
                await writer.drain()
            writer.close()
            return
        self._connection_outcomes.inc(outcome="accepted")
        self._connections += 1
        self._conn_busy[writer] = False
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, TimeoutError, OSError, asyncio.IncompleteReadError):
            pass  # peer went away mid-request
        finally:
            self._connections -= 1
            self._conn_busy.pop(writer, None)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                self._responses.inc(code=exc.status)
                writer.write(response_bytes(
                    exc.status, error_body(str(exc)), keep_alive=False
                ))
                await writer.drain()
                return
            if request is None:
                return
            self._conn_busy[writer] = True
            try:
                response = await self._route(request)
            finally:
                self._conn_busy[writer] = False
            if len(response) == 3:
                status, body, content_type = response
            else:
                status, body = response
                content_type = "application/json"
            keep_alive = request.keep_alive and not self._draining
            self._responses.inc(code=status)
            writer.write(response_bytes(
                status, body, keep_alive=keep_alive, content_type=content_type
            ))
            await writer.drain()
            if not keep_alive:
                return

    # -- routing ----------------------------------------------------------
    async def _route(self, request: HttpRequest) -> "tuple[int, Any] | tuple[int, Any, str]":
        route = (request.method, request.path)
        if route == ("POST", "/v1/run"):
            return await self._handle_run(request)
        if route == ("POST", "/v1/batch"):
            return await self._handle_batch(request)
        if route == ("GET", "/v1/health"):
            return 200, self.health()
        if route == ("GET", "/v1/metrics"):
            return self._handle_metrics(request)
        if request.path == "/v1/trace" or request.path.startswith("/v1/trace/"):
            return self._handle_trace(request)
        if request.path in ("/v1/run", "/v1/batch", "/v1/health", "/v1/metrics"):
            return 405, error_body(
                f"method {request.method} is not allowed on {request.path}"
            )
        return 404, error_body(
            f"unknown path {request.path!r}; endpoints: POST /v1/run, "
            f"POST /v1/batch, GET /v1/health, GET /v1/metrics, "
            f"GET /v1/trace/<id>"
        )

    def _handle_metrics(self, request: HttpRequest) -> "tuple[int, Any] | tuple[int, Any, str]":
        fmt = request.query.get("format", ["json"])[0]
        if fmt not in ("json", "prometheus"):
            return 400, error_body(
                f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'"
            )
        # What an in-process Client.stats reads, plus the server's own.
        snapshot = {**self._transport.stats, **self.metrics.snapshot()}
        if fmt == "prometheus":
            return (
                200,
                render_prometheus(snapshot),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        return 200, snapshot

    def _handle_trace(self, request: HttpRequest) -> "tuple[int, Any]":
        """The trace endpoints (404 unless the service traces)."""
        if self.tracer is None:
            return 404, error_body(
                "tracing is disabled on this server; start it with "
                "`repro serve --trace` (SimulationServer(tracing=True))"
            )
        buffer = self.tracer.buffer
        parts = [p for p in request.path.split("/") if p]  # ["v1","trace",...]
        if request.method == "GET" and len(parts) == 2:
            return 200, {"traces": buffer.ids(), "buffer": buffer.stats()}
        if request.method == "GET" and len(parts) == 3:
            trace_id = parts[2]
            trace = buffer.last() if trace_id == "last" else buffer.get(trace_id)
            if trace is None:
                return 404, error_body(
                    f"no completed trace {trace_id!r} in the buffer "
                    f"({len(buffer)} buffered)"
                )
            return 200, trace.to_payload()
        if request.method == "POST" and len(parts) == 4 and parts[3] == "spans":
            return self._merge_remote_spans(parts[2], request)
        return 405, error_body(
            "trace endpoints: GET /v1/trace, GET /v1/trace/<id>, "
            "POST /v1/trace/<id>/spans"
        )

    def _merge_remote_spans(
        self, trace_id: str, request: HttpRequest
    ) -> "tuple[int, Any]":
        """Adopt a remote client's half of a trace it initiated."""
        trace = self.tracer.get(trace_id)
        if trace is None:
            return 404, error_body(
                f"no completed trace {trace_id!r} to merge spans into"
            )
        try:
            obj = request.json()
            if not isinstance(obj, Mapping) or not isinstance(
                obj.get("spans"), list
            ):
                raise ValueError("span payload must be {'spans': [...]}")
            spans = spans_from_wire(obj["spans"])
        except ValueError as exc:
            return 400, error_body(str(exc))
        trace.adopt_remote(spans)
        return 200, {"trace_id": trace_id, "merged_spans": len(spans)}

    # -- the run endpoints -------------------------------------------------
    async def _handle_run(self, request: HttpRequest) -> "tuple[int, Any]":
        try:
            obj = request.json()
        except ValueError as exc:
            result = RunResult(
                id="request-0", status=STATUS_ERROR, error=str(exc)
            )
            self._parse_failures.inc(endpoint="/v1/run")
            self._notify(None, result)
            return 400, result.to_dict(arrays=False)
        http_status, result = await self._serve_one(
            obj, index=0, endpoint="/v1/run",
            trace_id=request.headers.get(TRACE_HEADER.lower()),
            parent_id=request.headers.get(PARENT_HEADER.lower()),
        )
        return http_status, result.to_dict()

    async def _handle_batch(self, request: HttpRequest) -> "tuple[int, Any]":
        try:
            text = request.body.decode()
        except UnicodeDecodeError as exc:
            result = RunResult(
                id="request-0", status=STATUS_ERROR,
                error=f"batch body is not valid UTF-8: {exc}",
            )
            self._parse_failures.inc(endpoint="/v1/batch")
            return 400, result.to_dict(arrays=False)
        # One line = one envelope, like `repro serve` file mode; blank
        # and comment lines are skipped.  Lines are served CONCURRENTLY
        # so the micro-batcher can coalesce them into one engine call.
        indexed: "list[tuple[int, str]]" = []
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                indexed.append((lineno, stripped))

        async def _serve_line(lineno: int, line: str) -> RunResult:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                result = RunResult(
                    id=f"request-{lineno}", status=STATUS_ERROR,
                    error=f"request line {lineno}: {exc}",
                )
                self._parse_failures.inc(endpoint="/v1/batch")
                self._notify(None, result)
                return result
            _, result = await self._serve_one(obj, index=lineno, endpoint="/v1/batch")
            return result

        results = await asyncio.gather(
            *(_serve_line(lineno, line) for lineno, line in indexed)
        )
        body = "\n".join(json.dumps(result.to_dict()) for result in results)
        return 200, body + ("\n" if body else "")

    async def _serve_one(
        self,
        obj: Any,
        index: int,
        endpoint: str,
        trace_id: "str | None" = None,
        parent_id: "str | None" = None,
    ) -> "tuple[int, RunResult]":
        """Parse, admit, execute and time one request envelope.

        ``trace_id``/``parent_id`` carry the ``X-Repro-Trace-Id`` /
        ``X-Repro-Parent-Span`` propagation headers: with tracing on,
        the server *adopts* the client's trace id and nests its
        ``server.request`` span under the client's HTTP span, so the
        merged tree at ``/v1/trace/<id>`` reads client → server →
        service → worker top to bottom.
        """
        started = now()
        try:
            run_request = parse_request(obj, index=index)
        except (ValueError, TypeError) as exc:
            request_id = ""
            if isinstance(obj, Mapping):
                request_id = str(obj.get("id", "") or f"request-{index}")
            result = RunResult(
                id=request_id or f"request-{index}",
                status=STATUS_ERROR, error=str(exc),
            )
            self._parse_failures.inc(endpoint=endpoint)
            self._notify(None, result)
            return 400, result

        trace = None
        server_span = None
        if self.tracer is not None:
            trace = self.tracer.start_trace("request", trace_id=trace_id)
            server_span = trace.start_span("server.request", parent_id=parent_id)
            server_span.set_attribute("endpoint", endpoint)
            server_span.set_attribute("request_id", run_request.id)

        if self._draining or self._inflight >= self.max_pending:
            reason = (
                "server is draining" if self._draining else
                f"admission queue full ({self._inflight} requests in flight, "
                f"bound {self.max_pending})"
            )
            result = RunResult.from_failure(
                run_request, STATUS_SHED, f"request shed: {reason}; retry later",
                wall_s=now() - started,
            )
            if server_span:
                server_span.set_attribute("status", STATUS_SHED).finish()
                trace.finish()
            self._requests.inc(endpoint=endpoint, status=STATUS_SHED)
            self._notify(run_request, result)
            return HTTP_FOR_STATUS[STATUS_SHED], result

        self._inflight += 1
        try:
            # The transport's future never raises — failures arrive as
            # error-status results, exactly like the in-process Client.
            future = self._transport.submit(
                run_request,
                trace=trace,
                parent_id=server_span.span_id if server_span else None,
            )
            try:
                result = await asyncio.wait_for(
                    asyncio.wrap_future(future), self.request_timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                result = RunResult.from_failure(
                    run_request, STATUS_TIMEOUT,
                    f"execution exceeded the server's {self.request_timeout}s "
                    f"deadline (the run may still complete and populate the "
                    f"result store)",
                    wall_s=now() - started,
                )
        finally:
            self._inflight -= 1
        if server_span:
            server_span.set_attribute("status", result.status).finish()
        http_status = HTTP_FOR_STATUS.get(result.status, 500)
        self._requests.inc(endpoint=endpoint, status=result.status)
        if result.status == STATUS_OK:
            for key, value in result.timings.items():
                if key != "trace_id":  # every other timing key is "<stage>_s"
                    self._stages.observe(value, stage=key[:-2])
        self._notify(run_request, result)
        return http_status, result

    def _notify(self, request: "RunRequest | None", result: RunResult) -> None:
        if self.on_result is not None:
            with contextlib.suppress(Exception):
                self.on_result(request, result)

    # -- introspection endpoints -------------------------------------------
    def health(self) -> "dict[str, Any]":
        """The ``GET /v1/health`` payload."""
        return {
            "status": "draining" if self._draining else "ok",
            "api_version": API_VERSION,
            "draining": self._draining,
            "inflight": self._inflight,
            "connections": self._connections,
        }


@contextlib.contextmanager
def serve_in_thread(**kwargs: Any):
    """Run a :class:`SimulationServer` on a background event loop.

    The context yields the started server (its :attr:`url` points at
    the bound ephemeral port); leaving the context performs the
    graceful drain and joins the loop thread.  This is how tests and
    benchmarks stand a real networked server up in-process.
    """
    server = SimulationServer(**kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: "list[BaseException]" = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 — re-raised in the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-server", daemon=True)
    thread.start()
    started.wait()
    if failure:
        loop.close()
        raise failure[0]
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
