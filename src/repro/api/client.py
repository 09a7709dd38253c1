"""The ``Client`` façade: the one way into the simulation service.

A :class:`Client` accepts :class:`~repro.api.envelope.RunRequest`
objects (or bare :class:`~repro.config.SimulationConfig`, wrapped with
envelope defaults), routes them through a
:class:`~repro.api.transport.Transport` and returns
:class:`~repro.api.envelope.RunResult` futures — status, timings,
store key, cache-hit flag and the selected observable arrays.

The client is transport-generic:

* the default transport is an in-process
  :class:`~repro.service.service.SimulationService` (owned by the
  client, or shared by passing ``service=``) — the exact pre-transport
  behavior, bit for bit;
* :meth:`Client.connect` (or ``transport=HttpTransport(url)``) speaks
  the same v1 envelope to a ``repro serve --listen`` server over HTTP
  (:mod:`repro.server`), with remote results bitwise identical to
  in-process ones.

Two in-process execution modes:

* ``background=True`` (default) — the service runs its worker thread;
  futures resolve as micro-batches flush.
* ``background=False`` — fully synchronous: submissions queue until
  :meth:`flush` (which ``run()``/``map()`` call for you, as does the
  first ``result()`` or ``exception()`` on a pending future from
  :meth:`submit`), then execute on the calling thread, so requests
  filed before the wait run as one micro-batch.  Deterministic and
  thread-free; the mode the experiment pipeline and the data campaigns
  use.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.api.envelope import RunRequest, RunResult
from repro.api.transport import HttpTransport, InProcessTransport, Transport
from repro.config import SimulationConfig

if TYPE_CHECKING:
    from repro.dlpic.solver import DLFieldSolver
    from repro.service.store import ResultStore


class Client:
    """Submit v1 run requests, get v1 result futures.

    Parameters
    ----------
    service:
        An existing :class:`SimulationService` to speak to.  By default
        the client constructs (and owns, and closes) its own.
    transport:
        An explicit :class:`~repro.api.transport.Transport` to route
        requests through instead — mutually exclusive with ``service=``
        and the owned-service kwargs.  The client closes it.
    max_batch_size, max_wait, store, dl_solver, workers, model_dir, tracing:
        Forwarded to the owned service (ignored when ``service=`` or
        ``transport=`` is passed).  ``workers > 1`` shards ready
        compatibility groups across spawned worker processes;
        ``model_dir`` lets those workers rehydrate the DL solver for
        ``solver="dl"`` requests; ``tracing=True`` records an
        end-to-end span timeline per request (``timings["trace_id"]``
        names it in ``client.service.tracer.buffer``).
    background:
        Service execution mode — see the module docstring.
    raise_on_error:
        With ``True`` (default) :meth:`run` and :meth:`map` raise
        :class:`~repro.api.envelope.ApiError` on failed requests
        (any terminal status: ``error``, ``shed``, ``timeout``); with
        ``False`` they return the failure-status results instead.
        Futures from :meth:`submit` always resolve to a
        :class:`RunResult` (never raise) so one bad request cannot
        break a gather.
    """

    def __init__(
        self,
        service: "object | None" = None,
        *,
        transport: "Transport | None" = None,
        max_batch_size: int = 16,
        max_wait: float = 0.02,
        store: "ResultStore | None" = None,
        dl_solver: "DLFieldSolver | None" = None,
        workers: int = 1,
        model_dir: "str | None" = None,
        background: bool = True,
        raise_on_error: bool = True,
        tracing: bool = False,
    ) -> None:
        if transport is not None:
            if service is not None:
                raise ValueError("pass either service= or transport=, not both")
            self.transport = transport
        elif service is not None:
            self.transport = InProcessTransport(service, owns_service=False)
        else:
            from repro.service.service import SimulationService

            self.transport = InProcessTransport(
                SimulationService(
                    max_batch_size=max_batch_size,
                    max_wait=max_wait,
                    store=store,
                    dl_solver=dl_solver,
                    workers=workers,
                    model_dir=model_dir,
                    start=background,
                    tracing=tracing,
                ),
                owns_service=True,
            )
        self.raise_on_error = raise_on_error
        self._auto_id = 0

    @classmethod
    def connect(
        cls,
        url: str,
        *,
        max_connections: int = 16,
        timeout: "float | None" = None,
        raise_on_error: bool = True,
        tracing: bool = False,
    ) -> "Client":
        """A client speaking to a ``repro serve --listen`` server.

        ``url`` is the server base URL (``"http://host:port"``);
        ``max_connections`` bounds the concurrent persistent
        connections the underlying :class:`HttpTransport` opens.
        ``tracing=True`` traces every request end to end: the trace id
        travels in the ``X-Repro-Trace-Id`` header, and against a
        ``--trace`` server the client ships its spans back so
        ``/v1/trace/<id>`` (and ``repro trace``) shows the merged
        client → server → worker timeline.
        """
        return cls(
            transport=HttpTransport(
                url,
                max_connections=max_connections,
                timeout=timeout,
                trace=tracing,
            ),
            raise_on_error=raise_on_error,
        )

    @property
    def service(self) -> object:
        """The in-process service behind this client, if there is one."""
        service = getattr(self.transport, "service", None)
        if service is None:
            raise AttributeError(
                f"a {type(self.transport).__name__} client has no in-process service"
            )
        return service

    # -- request intake ---------------------------------------------------
    def _as_request(self, request: "RunRequest | SimulationConfig") -> RunRequest:
        if isinstance(request, SimulationConfig):
            self._auto_id += 1
            request = RunRequest(config=request, id=f"run-{self._auto_id}")
        if not isinstance(request, RunRequest):
            raise TypeError(
                f"submit() takes a RunRequest or SimulationConfig, "
                f"got {type(request).__name__}"
            )
        if not request.id:
            self._auto_id += 1
            request = request.with_updates(id=f"run-{self._auto_id}")
        return request

    # -- the API ----------------------------------------------------------
    def submit(
        self, request: "RunRequest | SimulationConfig"
    ) -> "Future[RunResult]":
        """File one request; the future resolves to a :class:`RunResult`.

        The returned future never raises: execution errors come back as
        ``status="error"`` results carrying the message (a networked
        transport adds ``shed`` and ``timeout`` terminal statuses).
        """
        return self.transport.submit(self._as_request(request))

    def run(self, request: "RunRequest | SimulationConfig") -> RunResult:
        """Submit one request and wait for its result."""
        future = self.submit(request)
        self.transport.drain()
        result = future.result()
        if self.raise_on_error:
            result.raise_for_status()
        return result

    def map(
        self, requests: "Iterable[RunRequest | SimulationConfig]"
    ) -> "list[RunResult]":
        """Submit many requests, wait for all, preserve order."""
        futures = [self.submit(request) for request in requests]
        self.transport.drain()
        results = [future.result() for future in futures]
        if self.raise_on_error:
            for result in results:
                result.raise_for_status()
        return results

    def submit_many(
        self, requests: "Sequence[RunRequest | SimulationConfig]"
    ) -> "list[Future[RunResult]]":
        """File many requests without waiting (order preserved)."""
        return [self.submit(request) for request in requests]

    def flush(self) -> None:
        """Execute everything pending now (in-process transports)."""
        self.transport.flush()

    @property
    def stats(self) -> "dict[str, dict]":
        """The serving side's metrics snapshot: the process and service
        families, plus the server's own over HTTP (:mod:`repro.obs.metrics`)."""
        return self.transport.stats

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Close the transport (an owned service is closed with it)."""
        self.transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
