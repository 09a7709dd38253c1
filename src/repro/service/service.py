"""The micro-batching simulation service.

:class:`SimulationService` turns the batched engines into a
request/response system: callers submit :class:`SimulationConfig`-keyed
run requests and get back futures, while a background worker coalesces
compatible pending requests (same structural key, step count and
solver family — see ``repro.service.batcher``) and executes each group
through ONE engine built by the registry
(:func:`repro.engines.make_engine`): a traditional
:class:`~repro.pic.simulation.EnsembleSimulation`, a
:class:`~repro.dlpic.DLEnsemble` or a noise-free
:class:`~repro.vlasov.ensemble.VlasovEnsemble` — so N independently
arriving requests cost one set of vectorized steps instead of N Python
loops.  Because every batched engine is bitwise identical per row to
its single-run form, each served result is bitwise identical to
running that config alone, whatever the family.

Requests are deduplicated at two levels before they ever reach an
engine:

* **store hits** — the content-addressed :class:`ResultStore` is
  consulted at submit time; a known key returns an already-resolved
  future without queueing anything;
* **in-flight dedup** — a second submit of a key that is currently
  queued or executing returns the *same* future (one engine row serves
  every duplicate requester).

*Where* a ready group executes is delegated to an
:class:`~repro.service.executor.Executor`: the default
:class:`~repro.service.executor.InlineExecutor` runs it on the worker
thread (the exact pre-pool path, bitwise unchanged), while
``workers > 1`` shards groups across spawned processes through a
:class:`~repro.service.executor.ShardedExecutor` — see
``repro.service.executor``.

The service counts what it sees in :attr:`SimulationService.metrics`
(a :class:`~repro.obs.metrics.MetricsRegistry`): submits by outcome,
engine batches by size, executed runs by dtype/worker and
failed groups by exception type, all from the submit path and the
group outcomes it already receives.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import TYPE_CHECKING

from repro.config import SimulationConfig
from repro.engines.base import validate_engine_config
from repro.engines.observables import canonical_observables, resolve_observables
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.service.batcher import MicroBatcher, PendingRequest
from repro.service.executor import (
    Executor,
    GroupOutcome,
    GroupTask,
    InlineExecutor,
    ShardedExecutor,
)
from repro.service.store import ResultStore, SimulationResult, result_key

if TYPE_CHECKING:
    from repro.dlpic.solver import DLFieldSolver

# Submit outcomes reported by ``submit_with_status``.
STATUS_QUEUED = "queued"
STATUS_CACHED = "cached"
STATUS_INFLIGHT = "inflight"


class SimulationService:
    """Accepts run requests, micro-batches them, returns futures.

    Parameters
    ----------
    max_batch_size:
        Largest ensemble one engine call may advance; a compatibility
        group flushes as soon as it reaches this size.
    max_wait:
        Deadline (seconds) after which a partial group flushes anyway —
        the latency bound a lone request pays for batching.
    store:
        Result store; defaults to a memory-only LRU.  Pass a store with
        a ``directory`` for a persistent on-disk tier.
    dl_solver:
        Optional :class:`~repro.dlpic.DLFieldSolver` backing requests
        with ``solver="dl"``.  Its weight fingerprint becomes part of
        those requests' store keys.
    start:
        Start the background worker thread (default).  With
        ``start=False`` the service is fully synchronous: submissions
        queue up until :meth:`flush` executes them on the caller's
        thread — deterministic, thread-free operation for tests and
        one-shot drains.
    workers:
        Execution parallelism.  ``1`` (default) keeps the inline
        in-thread path, bitwise unchanged; ``N > 1`` shards ready
        compatibility groups across ``N`` spawned worker processes
        (:class:`~repro.service.executor.ShardedExecutor`).
    model_dir:
        Directory sharded workers rehydrate their ``DLFieldSolver``
        from (required for ``solver="dl"`` requests when
        ``workers > 1``; the in-memory ``dl_solver`` object cannot
        cross process boundaries).
    executor:
        An explicit :class:`~repro.service.executor.Executor` to run
        groups on, overriding ``workers`` (the caller keeps ownership
        and closes it).
    tracing:
        Enable end-to-end request tracing (default off).  When on,
        every request carries a :class:`~repro.obs.trace.Trace` through
        submit → batch → dispatch → worker execution → delivery, and
        completed traces land in ``service.tracer.buffer``.  When off,
        ``service.tracer`` is ``None`` and the per-request cost is a
        handful of ``perf_counter`` calls for the always-on stage
        timings.
    """

    def __init__(
        self,
        max_batch_size: int = 16,
        max_wait: float = 0.02,
        store: "ResultStore | None" = None,
        dl_solver: "DLFieldSolver | None" = None,
        start: bool = True,
        workers: int = 1,
        model_dir: "str | None" = None,
        executor: "Executor | None" = None,
        tracing: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.tracer = Tracer() if tracing else None
        self.store = store if store is not None else ResultStore()
        self._batcher = MicroBatcher(max_batch_size=max_batch_size, max_wait=max_wait)
        self._dl_solver = dl_solver
        self._dl_fingerprint: "str | None" = None
        self._model_dir = str(model_dir) if model_dir is not None else None
        if executor is not None:
            self._executor = executor
            self._owns_executor = False
        elif workers > 1:
            self._executor = ShardedExecutor(workers, model_dir=self._model_dir)
            self._owns_executor = True
        else:
            self._executor = InlineExecutor(dl_solver=dl_solver)
            self._owns_executor = True
        self._dispatched = 0  # groups handed to the executor, unsettled
        self._inflight: "dict[str, Future[SimulationResult]]" = {}
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self.metrics = MetricsRegistry()
        self._submits = self.metrics.counter(
            "repro_service_submits_total",
            "Accepted submits by outcome: queued, cached (a result-store hit) "
            "or inflight (coalesced onto an identical queued or running request).",
            ("outcome",),
        )
        for outcome in (STATUS_QUEUED, STATUS_CACHED, STATUS_INFLIGHT):
            self._submits.inc(0, outcome=outcome)  # every outcome has a series
        self._batches = self.metrics.counter(
            "repro_batch_size_total", "Executed engine batches by batch size.",
            ("size",),
        )
        self._runs = self.metrics.counter(
            "repro_service_runs_by_tier_total",
            "Executed engine runs by dtype and worker process id.",
            ("dtype", "worker"),
        )
        self._group_errors = self.metrics.counter(
            "repro_service_group_errors_total",
            "Compatibility groups that failed, by exception type.", ("kind",),
        )
        self._store_errors = self.metrics.counter(
            "repro_service_store_errors_total",
            "Result-store archives that failed to read at lookup or to write at delivery.",
        )
        self.metrics.gauge(
            "repro_service_pending", "Requests waiting in the micro-batcher.",
            fn=self._pending,
        )
        self.metrics.gauge(
            "repro_service_dispatched",
            "Groups handed to the executor and not yet settled.",
            fn=lambda: self._dispatched,
        )
        self.metrics.gauge(
            "repro_service_workers", "Executor parallelism (1 = inline)."
        ).set(self._executor.workers)
        self.metrics.counter(
            "repro_pool_restarts_total",
            "Worker pools replaced after a worker crashed.",
            fn=lambda: self._executor.pool_restarts,
        )
        self._thread: "threading.Thread | None" = None
        if start:
            self._thread = threading.Thread(
                target=self._worker, name="simulation-service", daemon=True
            )
            self._thread.start()

    # -- public API ------------------------------------------------------
    def submit(
        self,
        config: SimulationConfig,
        observables: "object | None" = None,
        phase_space: bool = False,
    ) -> "Future[SimulationResult]":
        """Request a run; the future resolves to a :class:`SimulationResult`.

        The engine family comes from ``config.solver``.  ``observables``
        selects which measurements the run records (any form
        :func:`repro.engines.observables.canonical_observables`
        accepts; ``None`` means the default energies + ``mode1`` set)
        and ``phase_space`` attaches the final particle/distribution
        state to the result.
        """
        return self.submit_with_status(config, observables, phase_space)[0]

    def submit_with_status(
        self,
        config: SimulationConfig,
        observables: "object | None" = None,
        phase_space: bool = False,
        *,
        trace: "object | None" = None,
        parent_id: "str | None" = None,
    ) -> "tuple[Future[SimulationResult], str]":
        """Like :meth:`submit`, also reporting how the request was met.

        Returns ``(future, status)`` with status one of ``"cached"``
        (served from the result store without queueing), ``"inflight"``
        (coalesced onto an identical request already queued or running;
        the same future object is returned) or ``"queued"`` (filed with
        the micro-batcher).

        ``trace``/``parent_id`` attach the request to an active
        :class:`~repro.obs.trace.Trace` (a transport or the server
        passes its own); with ``tracing=True`` and no incoming trace
        the service opens one itself.  The service finishes every trace
        it sees once the request settles — ``Trace.finish`` is
        idempotent, and spans a caller adds afterwards still render.
        """
        t_submit = time.perf_counter()
        if trace is None:
            trace = self.tracer.start_trace("request") if self.tracer is not None else None
        submit_span = (
            trace.start_span("service.submit", parent_id=parent_id) if trace else None
        )
        try:
            solver = config.solver
            spec = validate_engine_config(config)  # fail fast on unservable configs
            selection = canonical_observables(observables)
            # Building the pipeline validates the selection against this
            # family (unknown names/params, family-incompatible observables
            # all fail the submit, not the engine).
            resolve_observables(selection, spec.kind)
            key = self._result_key(config, solver, selection, phase_space)
            # The store is thread-safe and possibly disk-backed: consult it
            # outside the service lock so a multi-ms archive read never
            # stalls other submitters or the worker.
            t_store = time.perf_counter()
            try:
                cached = self.store.get(key)
            except Exception:  # noqa: BLE001 — an unreadable archive is a miss
                cached = None
                self._store_errors.inc()
            store_s = time.perf_counter() - t_store
            if submit_span:
                Span(
                    "service.store_lookup",
                    trace=trace,
                    parent_id=submit_span.span_id,
                    start=t_store,
                ).set_attribute("hit", cached is not None).finish(
                    end=t_store + store_s
                )
            with self._wake:
                if self._closed:
                    raise RuntimeError(
                        "SimulationService is closed (close() was called, or the "
                        "service was used as an exited context manager); create a "
                        "new service to submit further requests"
                    )
                if cached is not None:
                    self._submits.inc(outcome=STATUS_CACHED)
                    timings: "dict[str, object]" = {"store_s": store_s}
                    if trace:
                        timings["trace_id"] = trace.trace_id
                    cached = dataclasses.replace(cached, timings=timings)
                    future: "Future[SimulationResult]" = Future()
                    future.set_result(cached)
                    if submit_span:
                        submit_span.set_attribute("status", STATUS_CACHED)
                    return future, STATUS_CACHED
                inflight = self._inflight.get(key)
                if inflight is not None:
                    self._submits.inc(outcome=STATUS_INFLIGHT)
                    if submit_span:
                        submit_span.set_attribute("status", STATUS_INFLIGHT)
                    return inflight, STATUS_INFLIGHT
                future = Future()
                # File with the batcher before taking the in-flight slot:
                # if grouping raises, no requester is left holding a future
                # that nothing will ever resolve.
                self._batcher.add(
                    PendingRequest(
                        key=key, config=config, solver=solver, future=future,
                        observables=selection, phase_space=phase_space,
                        trace=trace, parent_id=parent_id,
                        store_s=store_s, t_submit=t_submit,
                    )
                )
                self._inflight[key] = future
                self._submits.inc(outcome=STATUS_QUEUED)
                self._wake.notify()
                if submit_span:
                    submit_span.set_attribute("status", STATUS_QUEUED)
                return future, STATUS_QUEUED
        except BaseException as exc:
            if submit_span:
                submit_span.set_attribute("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if submit_span:
                submit_span.finish()
                # Settled-now paths (cached, inflight, rejected) end the
                # trace here; queued requests finish at delivery.
                status = submit_span.attributes.get("status")
                if status != STATUS_QUEUED:
                    trace.finish()

    def flush(self) -> None:
        """Execute every pending group now; returns once all resolved.

        Groups are popped under the lock and run without it, so a
        concurrent worker can keep serving other groups; with
        ``start=False`` this is the only way requests execute.  With a
        sharded executor the dispatched groups run in worker processes;
        flush waits until every one of them has settled its futures.
        """
        with self._wake:
            groups = self._batcher.drain()
        for group in groups:
            self._execute(group)
        self._wait_dispatched()

    def _wait_dispatched(self) -> None:
        """Block until every dispatched group has settled (pool drain)."""
        with self._wake:
            while self._dispatched:
                self._wake.wait()

    @property
    def executor(self) -> Executor:
        """The executor running this service's groups (e.g. for ``warm()``)."""
        return self._executor

    @property
    def batch_size_histogram(self) -> "dict[int, int]":
        """Executed engine-batch sizes -> occurrence counts."""
        return {
            int(sample["labels"]["size"]): sample["value"]
            for sample in self._batches.snapshot()["samples"]
        }

    def close(self) -> None:
        """Drain pending work, resolve all futures, stop the worker.

        Already-queued groups are executed, not abandoned: the worker
        (or a final :meth:`flush` in synchronous mode) drains the
        batcher, then close waits for every dispatched group to settle
        before shutting the executor down — no submitted future is
        left forever pending.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        else:
            self.flush()
        self._wait_dispatched()
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------
    def _pending(self) -> int:
        with self._lock:
            return len(self._batcher)

    def _require_dl_fingerprint(self) -> str:
        """The serving DL model's fingerprint (loads from model_dir lazily).

        A service constructed with only ``model_dir=`` (the sharded
        form — workers rehydrate their own solver) still needs the
        model identity for result keys and delivered results, so the
        checkpoint is loaded here once, on the first DL submit.
        ``model_dir`` may be a plain directory or a ``registry:``
        reference (resolved by :meth:`DLFieldSolver.load_auto`).
        """
        if self._dl_fingerprint is None:
            if self._dl_solver is None:
                if self._model_dir is None:
                    raise ValueError(
                        "this service has no DL solver; construct it with "
                        "dl_solver=... or model_dir=..."
                    )
                from repro.dlpic.solver import DLFieldSolver

                self._dl_solver = DLFieldSolver.load_auto(self._model_dir)
                # The inline executor runs on this process: hand it the
                # freshly loaded solver so it is not loaded twice.
                if (
                    isinstance(self._executor, InlineExecutor)
                    and self._executor._dl_solver is None
                ):
                    self._executor._dl_solver = self._dl_solver
            self._dl_fingerprint = self._dl_solver.fingerprint()
        return self._dl_fingerprint

    def _result_key(
        self,
        config: SimulationConfig,
        solver: str,
        observables: "tuple | None" = None,
        phase_space: bool = False,
    ) -> str:
        fingerprint = None
        if solver == "dl":
            fingerprint = self._require_dl_fingerprint()
        return result_key(
            config, solver, solver_fingerprint=fingerprint,
            observables=observables, phase_space=phase_space,
        )

    def _worker(self) -> None:
        while True:
            with self._wake:
                groups = self._batcher.take_ready()
                while not groups and not self._closed:
                    deadline = self._batcher.next_deadline()
                    timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
                    self._wake.wait(timeout)
                    groups = self._batcher.take_ready()
                if self._closed and not groups:
                    groups = self._batcher.drain()
                    if not groups:
                        return
            for group in groups:
                self._execute(group)

    def _execute(self, group: "list[PendingRequest]") -> None:
        """Hand one compatibility group to the executor.

        Never raises: engine failures travel to every requester via
        their futures — the worker thread must survive anything a
        group throws at it.  With the inline executor the group runs
        (and its futures settle) before this method returns, exactly
        the pre-pool behavior; a sharded executor returns immediately
        and :meth:`_finish_group` fires from the pool's callback
        thread when the worker process delivers.
        """
        task = GroupTask(
            configs=tuple(request.config.to_dict() for request in group),
            solver=group[0].solver,
            n_steps=group[0].config.n_steps,
            observables=group[0].observables,
            phase_space=tuple(request.phase_space for request in group),
            model_dir=self._model_dir,
            traced=any(request.trace for request in group),
        )
        with self._wake:
            self._dispatched += 1
        t_dispatch = time.perf_counter()
        try:
            future = self._executor.submit(task)
        except BaseException as exc:  # noqa: BLE001 — e.g. closed executor
            self._fail_group(group, exc)
            self._settle_dispatch()
            return
        future.add_done_callback(
            lambda f: self._finish_group(group, f, t_dispatch)
        )

    def _finish_group(
        self,
        group: "list[PendingRequest]",
        future: "Future[GroupOutcome]",
        t_dispatch: float,
    ) -> None:
        """Turn one settled group outcome into per-request results."""
        try:
            exc = future.exception()
            if exc is not None:
                self._fail_group(group, exc)
                return
            outcome = future.result()
            # Compatibility groups share their dtype (it is structural),
            # so one label set covers every member.
            self._batches.inc(size=len(group))
            self._runs.inc(
                len(group), dtype=group[0].config.dtype, worker=outcome.worker_pid
            )
            try:
                self._deliver(group, outcome, t_dispatch)
            except Exception as deliver_exc:  # noqa: BLE001 — e.g. MemoryError
                self._fail_group(group, deliver_exc)
        finally:
            self._settle_dispatch()

    def _deliver(
        self,
        group: "list[PendingRequest]",
        outcome: GroupOutcome,
        t_dispatch: float,
    ) -> None:
        """Build, store and resolve one result per batched request.

        Also stamps the canonical stage breakdown on every result and,
        for traced requests, records the dispatch-side spans and adopts
        the worker-side ones.  The worker's spans are relative to its
        own execution window; anchoring that window at
        ``t_done - outcome.exec_s`` places it as late as possible, so
        pickling/IPC cost shows up as executor queue time.
        """
        series = outcome.series
        t_done = time.perf_counter()
        anchor = t_done - outcome.exec_s
        queue_wait_s = max(0.0, (t_done - t_dispatch) - outcome.exec_s)
        for b, request in enumerate(group):
            timings: "dict[str, object]" = {
                "batch_wait_s": max(0.0, t_dispatch - request.t_submit),
                "queue_wait_s": queue_wait_s,
                "exec_s": outcome.exec_s,
            }
            if request.trace:
                timings["trace_id"] = request.trace.trace_id
            result = SimulationResult(
                key=request.key,
                config=request.config,
                solver=request.solver,
                series={
                    name: (values.copy() if name == "time" else values[:, b].copy())
                    for name, values in series.items()
                },
                efield=outcome.efield[b].copy(),
                final_x=outcome.final_x[b],
                final_v=outcome.final_v[b],
                final_f=outcome.final_f[b],
                # DL results carry the serving model's identity; the
                # fingerprint was resolved at submit time (it is part of
                # the result key), so this is a cached read.
                model_fingerprint=(
                    self._dl_fingerprint if request.solver == "dl" else None
                ),
                timings=timings,
            )
            t_put = time.perf_counter()
            try:
                # Thread-safe store; keep the (possibly compressed-npz)
                # write out of the service lock.  Stored before the
                # in-flight slot is released, so a concurrent submit of
                # this key always finds one or the other.
                self.store.put(result)
            except Exception:  # noqa: BLE001 — the store is a cache, the run serves
                self._store_errors.inc()
            # Store cost = submit-time lookup + delivery-time write.
            # The memory tier shares this dict, so stamping after put
            # updates the cached copy too.
            timings["store_s"] = request.store_s + (time.perf_counter() - t_put)
            with self._lock:
                self._inflight.pop(request.key, None)
            if request.trace:
                self._record_delivery_spans(
                    request, outcome, t_dispatch, anchor, t_done, t_put
                )
            self._resolve(request.future, result=result)

    def _record_delivery_spans(
        self,
        request: PendingRequest,
        outcome: GroupOutcome,
        t_dispatch: float,
        anchor: float,
        t_done: float,
        t_put: float,
    ) -> None:
        """Attach dispatch-stage + adopted worker spans to one trace."""
        trace = request.trace
        parent = request.parent_id
        Span(
            "service.batch_wait", trace=trace, parent_id=parent,
            start=request.t_submit,
        ).finish(end=t_dispatch)
        dispatch = Span(
            "executor.dispatch", trace=trace, parent_id=parent, start=t_dispatch
        )
        dispatch.set_attribute("batch", outcome.batch)
        dispatch.set_attribute("worker_pid", outcome.worker_pid)
        Span(
            "executor.queue", trace=trace, parent_id=dispatch.span_id,
            start=t_dispatch,
        ).finish(end=anchor)
        if outcome.spans:
            trace.adopt(outcome.spans, anchor=anchor, parent_id=dispatch.span_id)
        dispatch.finish(end=t_done)
        Span(
            "service.store_put", trace=trace, parent_id=parent, start=t_put
        ).finish()
        trace.finish()

    def _fail_group(
        self, group: "list[PendingRequest]", exc: BaseException
    ) -> None:
        """Resolve every request of a failed group with the error."""
        self._group_errors.inc(kind=type(exc).__name__)
        with self._lock:
            for request in group:
                self._inflight.pop(request.key, None)
        for request in group:
            if request.trace:
                request.trace.start_span(
                    "service.error", parent_id=request.parent_id
                ).set_attribute("error", f"{type(exc).__name__}: {exc}").finish()
                request.trace.finish()
            # Already-resolved futures reject the exception harmlessly.
            self._resolve(request.future, exception=exc)

    def _settle_dispatch(self) -> None:
        with self._wake:
            self._dispatched -= 1
            self._wake.notify_all()

    @staticmethod
    def _resolve(
        future: "Future[SimulationResult]",
        result: "SimulationResult | None" = None,
        exception: "BaseException | None" = None,
    ) -> None:
        """Settle a future, tolerating callers that cancelled it."""
        try:
            if exception is not None:
                future.set_exception(exception)
            else:
                future.set_result(result)
        except InvalidStateError:
            pass
