"""Client transports: how a :class:`~repro.api.Client` reaches a service.

The :class:`Client` façade is transport-generic: every consumer speaks
``submit()`` / ``run()`` / ``map()`` against a :class:`Transport`, and
the transport decides where the work executes:

* :class:`InProcessTransport` — the default: requests go straight into
  a (possibly owned) :class:`~repro.service.service.SimulationService`
  in this process.  This is the exact pre-transport ``Client`` code
  path, bit for bit.
* :class:`HttpTransport` — requests travel as v1 JSON envelopes over
  ``POST /v1/run`` to a ``repro serve --listen`` server
  (:mod:`repro.server`); results come back as v1 result envelopes and
  are rebuilt with their exact array dtypes, so remote results are
  bitwise identical to in-process ones.

Every transport's ``submit()`` returns a ``Future[RunResult]`` that
**never raises**: submit-time rejections, connection failures and
server-side failures all travel as terminal-status results (``error``,
``shed``, ``timeout``), so one bad request cannot break a gather.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.api.envelope import RunRequest, RunResult, now
from repro.obs.metrics import PROCESS_METRICS
from repro.obs.trace import PARENT_HEADER, TRACE_HEADER, Tracer

if TYPE_CHECKING:
    from repro.service.store import SimulationResult


@runtime_checkable
class Transport(Protocol):
    """The surface a :class:`~repro.api.Client` needs from a transport."""

    def submit(self, request: RunRequest) -> "Future[RunResult]":
        """File one request; the future resolves to a result, never raises."""
        ...

    def flush(self) -> None:
        """Execute/push everything pending now, if the transport buffers."""
        ...

    def drain(self) -> None:
        """Make sure already-submitted requests will complete."""
        ...

    def close(self) -> None:
        """Release the transport's resources."""
        ...

    @property
    def stats(self) -> "dict[str, dict]":
        """The serving side's merged metrics snapshot (family name -> family)."""
        ...


class _FlushOnWait(Future):
    """A synchronous service's future: waiting on it runs what is pending.

    A thread-free service executes only on ``flush()``, so a caller that
    waits on a future it submitted would otherwise wait forever.
    Flushing at the first wait, not at submit, keeps requests filed
    together in one micro-batch.
    """

    def __init__(self, flush: "Callable[[], None]") -> None:
        super().__init__()
        self._flush = flush

    def result(self, timeout: "float | None" = None) -> RunResult:
        if not self.done():
            self._flush()
        return super().result(timeout)

    def exception(self, timeout: "float | None" = None) -> "BaseException | None":
        if not self.done():
            self._flush()
        return super().exception(timeout)


class InProcessTransport:
    """Requests execute in this process, through a ``SimulationService``.

    Parameters
    ----------
    service:
        The service to speak to.
    owns_service:
        Close the service when the transport closes (the ``Client``
        sets this when it constructed the service itself).
    """

    def __init__(self, service: object, owns_service: bool = False) -> None:
        self.service = service
        self._owns_service = owns_service

    def submit(
        self,
        request: RunRequest,
        *,
        trace: "object | None" = None,
        parent_id: "str | None" = None,
    ) -> "Future[RunResult]":
        submitted = now()
        outer: "Future[RunResult]" = (
            Future() if self._has_worker() else _FlushOnWait(self.service.flush)
        )
        # When the service has tracing on and no caller-provided trace
        # context arrives (the HTTP server passes its own), the client
        # side of the trace starts here: a ``client.request`` root span
        # that every service span nests under.
        root = None
        if trace is None:
            tracer = getattr(self.service, "tracer", None)
            if tracer is not None:
                trace = tracer.start_trace("request")
                root = trace.start_span("client.request")
                parent_id = root.span_id
        try:
            inner, status = self.service.submit_with_status(
                request.config,
                observables=request.observables,
                phase_space=request.phase_space,
                trace=trace,
                parent_id=parent_id,
            )
        except Exception as exc:  # noqa: BLE001 — travels in the result
            # Submit-time failures (unservable config, closed service, a
            # DL model that will not load) ride the same error-result
            # path as execution failures, so one bad request in a map()
            # cannot break the gather.
            if root:
                root.set_attribute("error", f"{type(exc).__name__}: {exc}").finish()
            if trace:
                trace.finish()
            outer.set_result(RunResult.from_error(request, exc, wall_s=now() - submitted))
            return outer

        def _convert(done: "Future[SimulationResult]") -> None:
            wall = now() - submitted
            try:
                served = done.result()
            except BaseException as exc:  # noqa: BLE001 — travels in the result
                result = RunResult.from_error(request, exc, status, wall)
                if root:
                    root.set_attribute("error", f"{type(exc).__name__}: {exc}")
            else:
                result = RunResult.from_service(request, served, status, wall)
            if root:
                root.finish()
            if trace:
                # A deduplicated requester receives a result executed
                # under another request's trace; its own trace id wins
                # in its copy of the envelope.
                result.timings["trace_id"] = trace.trace_id
                trace.finish()
            try:
                outer.set_result(result)
            except InvalidStateError:
                # The requester walked away (e.g. a server-side
                # execution timeout cancelled the future); the run
                # still landed in the store.
                pass

        inner.add_done_callback(_convert)
        return outer

    def flush(self) -> None:
        self.service.flush()

    def drain(self) -> None:
        if not self._has_worker():
            self.service.flush()

    def _has_worker(self) -> bool:
        # A synchronous (thread-free) service only executes on flush;
        # a background service resolves futures on its own.
        return getattr(self.service, "_thread", None) is not None

    def close(self) -> None:
        if self._owns_service:
            self.service.close()

    @property
    def stats(self) -> "dict[str, dict]":
        """The process-wide families merged with the service's own."""
        return {**PROCESS_METRICS.snapshot(), **self.service.metrics.snapshot()}


class HttpTransport:
    """Requests travel to a ``repro serve --listen`` server over HTTP.

    A pool of ``max_connections`` worker threads each keeps one
    persistent (keep-alive) HTTP/1.1 connection to the server, so N
    concurrently submitted requests arrive on up to N parallel
    connections — exactly the arrival pattern the server's
    micro-batcher coalesces into batched engine executions.

    Parameters
    ----------
    url:
        The server base URL, e.g. ``"http://127.0.0.1:8787"``.
    max_connections:
        Concurrent connections (= worker threads) this transport opens.
    timeout:
        Client-side socket timeout per request (seconds); ``None``
        waits indefinitely.  Distinct from the *server's* per-request
        execution timeout, which returns a ``timeout``-status result.
    trace:
        Trace every request end to end (default off).  The transport
        opens a client-side trace, forwards its id in the
        ``X-Repro-Trace-Id`` header so a ``--trace`` server adopts it,
        and after the response ships its client-side spans to the
        server (``POST /v1/trace/<id>/spans``) so ``/v1/trace/<id>``
        renders the merged client + server + worker span tree.  The
        client half is also buffered locally in ``transport.tracer``.
    """

    def __init__(
        self,
        url: str,
        *,
        max_connections: int = 16,
        timeout: "float | None" = None,
        trace: bool = False,
    ) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(
                f"HttpTransport needs an http://host:port URL, got {url!r}"
            )
        if parsed.path not in ("", "/") or parsed.query:
            raise ValueError(f"the server URL takes no path or query, got {url!r}")
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self.url = f"http://{parsed.hostname}:{parsed.port or 80}"
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._timeout = timeout
        self.tracer = Tracer() if trace else None
        self._local = threading.local()
        self._closed = False
        self._conns: "set[http.client.HTTPConnection]" = set()
        self._conns_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_connections, thread_name_prefix="repro-http"
        )

    # -- connection management -------------------------------------------
    def _connection(self, fresh: bool = False) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None or fresh:
            if conn is not None:
                conn.close()
                with self._conns_lock:
                    self._conns.discard(conn)
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            self._local.conn = conn
            with self._conns_lock:
                self._conns.add(conn)
        return conn

    def request(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> "tuple[int, bytes]":
        """One HTTP round trip on this thread's persistent connection.

        Retries once on a fresh connection when the kept-alive socket
        turns out to be stale (server closed it between requests).
        """
        merged = {"Content-Type": "application/json"} if body is not None else {}
        if headers:
            merged.update(headers)
        headers = merged
        for attempt in (0, 1):
            conn = self._connection(fresh=attempt > 0)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                if response.will_close:
                    conn.close()
                    self._local.conn = None
                return response.status, data
            except (ConnectionError, http.client.HTTPException, OSError):
                conn.close()
                self._local.conn = None
                if attempt:
                    raise
        raise AssertionError("unreachable")

    # -- the transport surface -------------------------------------------
    def _roundtrip(self, request: RunRequest, submitted: float) -> RunResult:
        body = json.dumps(request.to_dict()).encode()
        trace = self.tracer.start_trace("request") if self.tracer is not None else None
        root = trace.start_span("client.request") if trace else None
        headers = None
        http_span = None
        if trace:
            http_span = trace.start_span("client.http", parent_id=root.span_id)
            headers = {
                TRACE_HEADER: trace.trace_id,
                PARENT_HEADER: http_span.span_id,
            }
        try:
            status, data = self.request("POST", "/v1/run", body, headers=headers)
            if http_span:
                http_span.finish()
            payload = json.loads(data)
            if not isinstance(payload, dict) or "status" not in payload:
                raise ValueError(
                    f"server returned HTTP {status} with a non-result body"
                )
            result = RunResult.from_dict(payload)
        except Exception as exc:  # noqa: BLE001 — travels in the result
            if trace:
                if http_span:
                    http_span.finish()
                root.set_attribute("error", f"{type(exc).__name__}: {exc}").finish()
                trace.finish()
            return RunResult.from_error(request, exc, wall_s=now() - submitted)
        if trace:
            root.finish()
            result.timings["trace_id"] = trace.trace_id
            self._ship_spans(trace)
            trace.finish()
        return result

    def _ship_spans(self, trace: object) -> None:
        """Best-effort: send the client half of a trace to the server.

        Spans go in wire format with ``start_s`` relative to the
        client root span's start; the server re-anchors them against
        its own ``server.request`` span (which the ``X-Repro-*``
        headers linked under our ``client.http`` span) and merges them
        into the buffered trace, so ``GET /v1/trace/<id>`` shows the
        full client → server → worker timeline.
        """
        spans = trace.span_dicts()
        if not spans:
            return
        try:
            self.request(
                "POST",
                f"/v1/trace/{trace.trace_id}/spans",
                json.dumps({"spans": spans}).encode(),
            )
        except (OSError, ValueError, http.client.HTTPException):
            pass  # telemetry must never fail a request

    def submit(self, request: RunRequest) -> "Future[RunResult]":
        submitted = now()
        outer: "Future[RunResult]" = Future()

        def _run() -> None:
            outer.set_result(self._roundtrip(request, submitted))

        try:
            self._executor.submit(_run)
        except RuntimeError as exc:  # executor shut down
            outer.set_result(RunResult.from_error(request, exc))
        return outer

    def flush(self) -> None:
        """No-op: HTTP requests are pushed as they are submitted."""

    def drain(self) -> None:
        """No-op: the server resolves responses on its own."""

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        with self._conns_lock:
            for conn in self._conns:
                conn.close()
            self._conns.clear()

    @property
    def stats(self) -> "dict[str, dict]":
        """The server's ``GET /v1/metrics`` snapshot (empty on failure)."""
        try:
            status, data = self.request("GET", "/v1/metrics")
            if status != 200:
                return {}
            return json.loads(data)
        except (OSError, ValueError, http.client.HTTPException):
            return {}

    def __enter__(self) -> "HttpTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
