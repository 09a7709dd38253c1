"""Executor layer: where a compatibility group actually runs.

The micro-batcher decides *what* executes together (one structurally
compatible group = one engine call); the executor decides *where*.
:class:`SimulationService` hands each ready group to its executor as a
:class:`GroupTask` — a fully picklable description of the engine call
(configs via the canonical ``to_dict`` serialization, the canonical
observables selection, per-member phase-space flags and the DL model
directory) — and gets back a future resolving to a
:class:`GroupOutcome` of plain arrays.

Two executors ship:

:class:`InlineExecutor`
    Runs the group synchronously on the calling thread — the exact
    pre-pool execution path, bitwise unchanged, and the default
    (``workers=1``).  Uses the service's in-memory ``DLFieldSolver``
    directly.

:class:`ShardedExecutor`
    Dispatches whole groups to ``N`` **spawned** worker processes
    through :class:`concurrent.futures.ProcessPoolExecutor`.  Each
    worker process lazily rebuilds (and caches) its own engine
    infrastructure — including a per-process ``DLFieldSolver``
    rehydrated from ``model_dir`` — so nothing unpicklable ever
    crosses the process boundary.  Results travel back as raw float64
    arrays; pickling preserves float bits exactly, so a sharded result
    is bitwise identical to an inline one.  A crashed worker
    (``BrokenProcessPool``) or an expired ``group_timeout`` resolves
    the affected group's future with the error — the service turns
    that into error-status results for every requester — while the
    pool replenishes and keeps serving.

Because every worker sees the same content-addressed key space, an
on-disk :class:`~repro.service.store.ResultStore` shared between
services/processes acts as the cross-shard result tier (its writes are
atomic via temp-file + ``os.replace``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import make_engine, validate_engine_config
from repro.engines.observables import Observables, resolve_observables
from repro.obs.trace import Span, Trace


@dataclass(frozen=True)
class GroupTask:
    """One compatibility group, described in fully picklable terms.

    ``configs`` holds each member's :meth:`SimulationConfig.to_dict`
    (the canonical round-trip serialization); ``observables`` is the
    group's canonical selection (plain nested tuples); ``phase_space``
    flags which members want their final particle/distribution state
    attached.  ``model_dir`` lets a worker process rehydrate the DL
    solver for ``solver="dl"`` groups.
    """

    configs: "tuple[dict, ...]"
    solver: str
    n_steps: int
    observables: "tuple | None"
    phase_space: "tuple[bool, ...]"
    model_dir: "str | None" = None
    #: When set, the engine call clocks each step through
    #: ``Engine.run(callback=)`` and ships worker-side spans back in
    #: the outcome; the recorded series are the untraced ones.
    traced: bool = False

    def __len__(self) -> int:
        return len(self.configs)


@dataclass
class GroupOutcome:
    """What comes back from an executed group: plain arrays + gauges.

    ``series`` maps observable names to the full batched arrays
    (``time`` is shared, every other series is ``(n_records, batch)``
    -leading); ``efield`` is the final ``(batch, n_cells)`` field.
    ``final_x``/``final_v``/``final_f`` hold one entry per member
    (``None`` unless that member's ``phase_space`` flag was set).
    ``worker_pid`` labels the service's executed-run counter and
    ``exec_s`` splits the group's wall time into execution and executor
    queue.  ``spans`` carries worker-side trace spans for traced tasks:
    a worker-local :meth:`Trace.span_dicts`, whose ``start_s`` is
    relative to the worker's own execution window (the adopting trace
    re-anchors them into its timeline).
    """

    series: "dict[str, np.ndarray]"
    efield: np.ndarray
    final_x: "tuple[np.ndarray | None, ...]"
    final_v: "tuple[np.ndarray | None, ...]"
    final_f: "tuple[np.ndarray | None, ...]"
    worker_pid: int = field(default_factory=os.getpid)
    exec_s: float = 0.0
    spans: "tuple[dict, ...]" = ()

    @property
    def batch(self) -> int:
        return self.efield.shape[0]


class GroupTimeoutError(TimeoutError):
    """A dispatched group exceeded the executor's ``group_timeout``."""


@runtime_checkable
class Executor(Protocol):
    """Where compatibility groups execute.

    ``submit`` accepts a :class:`GroupTask` and returns a future
    resolving to a :class:`GroupOutcome` (or raising the execution
    error).  ``workers`` reports the parallelism; ``pool_restarts``
    counts worker pools replaced after a crash (the one quantity only
    the executor sees; the service counts everything else from the
    outcomes); ``close`` releases any resources.
    """

    workers: int
    pool_restarts: int

    def submit(self, task: GroupTask) -> "Future[GroupOutcome]":
        ...

    def close(self) -> None:
        ...


# ----------------------------------------------------------------------
# The actual engine call (shared by both executors; must be a module-
# level function so spawned workers can import it).

# Per-process cache of rehydrated DL solvers, keyed by model directory.
# Loading deserializes the checkpoint npz once; after that every dl
# group served by this process reuses the same solver (and its
# phase-space grid / FFT caches), which is the "each worker lazily
# builds and caches its engines" contract.
_DL_SOLVERS: "dict[str, object]" = {}


def _dl_solver_for(model_dir: "str | None") -> object:
    if model_dir is None:
        raise ValueError(
            "solver='dl' groups need model_dir= on the sharded service: worker "
            "processes rehydrate their own DLFieldSolver from disk (the parent's "
            "in-memory solver does not cross process boundaries)"
        )
    solver = _DL_SOLVERS.get(model_dir)
    if solver is None:
        from repro.dlpic.solver import DLFieldSolver

        solver = DLFieldSolver.load_auto(model_dir)
        _DL_SOLVERS[model_dir] = solver
    return solver


def run_group_task(task: GroupTask, dl_solver: "object | None" = None) -> GroupOutcome:
    """Execute one group through its registered engine.

    This is the exact engine call the pre-pool service made inline:
    validate, resolve the observables pipeline, build the engine via
    the registry, run, and collect the batched series plus each
    flagged member's final phase-space state.  ``dl_solver`` is the
    in-process solver (inline path); without one, ``solver="dl"``
    tasks rehydrate a per-process solver from ``task.model_dir``.
    """
    started = time.perf_counter()
    configs = tuple(SimulationConfig.from_dict(dict(d)) for d in task.configs)
    spec = validate_engine_config(configs[0])
    pipeline = Observables(resolve_observables(task.observables, spec.kind))
    if task.solver == "dl" and dl_solver is None:
        dl_solver = _dl_solver_for(task.model_dir)
    sim = make_engine(configs, dl_solver=dl_solver)
    # A traced run stamps the end of every step (its record included);
    # consecutive stamps, the first from here, are the step times.
    step_ends: "list[float]" = []
    t_built = time.perf_counter()
    history = sim.run(
        task.n_steps,
        history=pipeline,
        callback=(lambda _: step_ends.append(time.perf_counter())) if task.traced else None,
    )
    t_run_done = time.perf_counter()
    series = history.as_arrays()
    particles = getattr(sim, "particles", None)
    v_integer = getattr(sim, "v_at_integer_time", None)
    distribution = getattr(sim, "f", None)
    final_x: "list[np.ndarray | None]" = [None] * len(configs)
    final_v: "list[np.ndarray | None]" = [None] * len(configs)
    final_f: "list[np.ndarray | None]" = [None] * len(configs)
    for b, wanted in enumerate(task.phase_space):
        if not wanted:
            continue
        if particles is not None:
            final_x[b] = particles.x[b].copy()
            final_v[b] = v_integer[b].copy()
        elif distribution is not None:
            final_f[b] = distribution[b].copy()
    done = time.perf_counter()
    spans: "tuple[dict, ...]" = ()
    if task.traced:
        spans = _worker_spans(
            started, t_built, t_run_done, done, step_ends,
            n_steps=task.n_steps, batch=len(configs),
            dtype=configs[0].dtype, backend=configs[0].backend,
        )
    return GroupOutcome(
        series=series,
        efield=np.asarray(sim.efield),
        final_x=tuple(final_x),
        final_v=tuple(final_v),
        final_f=tuple(final_f),
        exec_s=done - started,
        spans=spans,
    )


def _worker_spans(
    t0: float,
    t_built: float,
    t_run_done: float,
    t_done: float,
    step_ends: "list[float]",
    *,
    n_steps: int,
    batch: int,
    dtype: str = "float64",
    backend: str = "numpy",
) -> "tuple[dict, ...]":
    """Worker-side spans in wire format, ``start_s`` relative to ``t0``.

    The worker's ``perf_counter`` epoch is unrelated to the service's,
    so the spans go on a worker-local :class:`Trace` and ship as its
    :meth:`~Trace.span_dicts`: offsets inside the worker's own
    execution window, which the adopting trace anchors just before
    delivery.  Every instant is already measured, so each span finishes
    at its explicit end, parents first (the root leads the list).
    """
    trace = Trace()
    root = (
        Span("executor.worker_run", trace=trace, start=t0)
        .set_attribute("worker_pid", os.getpid())
        .set_attribute("batch", int(batch))
        .set_attribute("dtype", dtype)
        .set_attribute("backend", backend)
        .finish(end=t_done)
    )
    Span("engine.build", trace=trace, parent_id=root.span_id, start=t0).finish(end=t_built)
    run = Span(
        "engine.run", trace=trace, parent_id=root.span_id, start=t_built
    ).finish(end=t_run_done)
    if step_ends:
        step_s = np.diff([t_built, *step_ends])
        (
            Span("engine.steps", trace=trace, parent_id=run.span_id, start=t_built)
            .set_attribute("n_steps", int(n_steps))
            .set_attribute("step_p50_s", float(np.percentile(step_s, 50)))
            .set_attribute("step_p99_s", float(np.percentile(step_s, 99)))
            .set_attribute("step_max_s", float(step_s.max()))
            .finish(end=step_ends[-1])
        )
    return tuple(trace.span_dicts())


def _pool_run_task(task: GroupTask) -> GroupOutcome:
    """Worker-process entry point (top-level for spawn picklability)."""
    return run_group_task(task)


def _pool_ping(hold_s: float = 0.0) -> int:
    """Warm-up probe: imports are paid, the worker pid comes back.

    ``hold_s`` keeps the worker briefly busy so consecutive pings fan
    out across distinct processes instead of landing on the first one.
    """
    if hold_s > 0:
        time.sleep(hold_s)
    return os.getpid()


# ----------------------------------------------------------------------
# Inline (default) executor


class InlineExecutor:
    """Runs each group synchronously on the submitting thread.

    The default executor (``workers=1``): behavior, ordering and bits
    are exactly the pre-pool in-thread execution path.  The returned
    future is already resolved when ``submit`` returns.
    """

    workers = 1
    pool_restarts = 0

    def __init__(self, dl_solver: "object | None" = None) -> None:
        self._dl_solver = dl_solver

    def submit(self, task: GroupTask) -> "Future[GroupOutcome]":
        future: "Future[GroupOutcome]" = Future()
        try:
            outcome = run_group_task(task, dl_solver=self._dl_solver)
        except BaseException as exc:  # noqa: BLE001 — travels via the future
            future.set_exception(exc)
            return future
        future.set_result(outcome)
        return future

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Sharded multi-process executor


class ShardedExecutor:
    """Dispatches whole compatibility groups to spawned worker processes.

    Parameters
    ----------
    workers:
        Pool size (``>= 1``).  Workers are **spawned**, not forked:
        each is a fresh interpreter importing this module, so the
        parent's thread/lock/solver state can never leak in and the
        same code runs identically on every platform.
    model_dir:
        Directory a worker rehydrates its ``DLFieldSolver`` from for
        ``solver="dl"`` groups (each worker loads it once, lazily).
    group_timeout:
        Optional per-group deadline in seconds.  An expired group's
        future raises :class:`GroupTimeoutError`; the stale worker
        result is discarded when it eventually lands.
    """

    def __init__(
        self,
        workers: int,
        model_dir: "str | os.PathLike[str] | None" = None,
        group_timeout: "float | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if group_timeout is not None and group_timeout <= 0:
            raise ValueError(
                f"group_timeout must be positive or None, got {group_timeout}"
            )
        self.workers = workers
        self.model_dir = str(model_dir) if model_dir is not None else None
        self.group_timeout = group_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._pool: "_ProcessPool | None" = None
        self._closed = False
        #: Pools replaced after a worker crash (read by the service's
        #: ``repro_pool_restarts_total`` counter).
        self.pool_restarts = 0

    # -- pool lifecycle ---------------------------------------------------
    def _ensure_pool(self) -> _ProcessPool:
        """Create (or recreate after a crash) the spawn pool, lazily."""
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._pool is None:
                self._pool = _ProcessPool(
                    max_workers=self.workers, mp_context=self._ctx
                )
            return self._pool

    def _retire_pool(self, broken: _ProcessPool) -> None:
        """Replace a broken pool so the next submit gets fresh workers."""
        with self._lock:
            if self._pool is not broken:
                return  # another callback already replenished
            self._pool = None
            if not self._closed:
                self.pool_restarts += 1
        broken.shutdown(wait=False, cancel_futures=True)

    def warm(self, timeout: "float | None" = 30.0) -> "list[int]":
        """Spawn every worker now; returns their pids.

        Spawning pays an interpreter start + import per worker; calling
        this before a latency-sensitive burst (or a benchmark's timed
        section) moves that cost out of the serving path.
        """
        pool = self._ensure_pool()
        hold = 0.05 if self.workers > 1 else 0.0
        futures = [
            pool.submit(_pool_ping, hold) for _ in range(self.workers)
        ]
        return sorted({f.result(timeout=timeout) for f in futures})

    # -- dispatch ---------------------------------------------------------
    def submit(self, task: GroupTask) -> "Future[GroupOutcome]":
        """Dispatch a group to the pool; the future resolves off-thread."""
        outer: "Future[GroupOutcome]" = Future()
        pool: "_ProcessPool | None" = None
        try:
            pool = self._ensure_pool()
            inner = pool.submit(_pool_run_task, task)
        except BaseException as exc:  # noqa: BLE001 — closed/spawn failure
            if isinstance(exc, BrokenProcessPool) and pool is not None:
                self._retire_pool(pool)
            outer.set_exception(exc)
            return outer
        timer: "threading.Timer | None" = None
        if self.group_timeout is not None:
            timer = threading.Timer(
                self.group_timeout, self._on_timeout, args=(outer,)
            )
            timer.daemon = True
            timer.start()
        inner.add_done_callback(lambda f: self._on_done(outer, f, pool, timer))
        return outer

    def _on_timeout(self, outer: "Future[GroupOutcome]") -> None:
        self._settle(outer, exception=GroupTimeoutError(
            f"group execution exceeded the executor's "
            f"{self.group_timeout:g}s deadline"
        ))

    def _on_done(
        self,
        outer: "Future[GroupOutcome]",
        inner: "Future[GroupOutcome]",
        pool: _ProcessPool,
        timer: "threading.Timer | None",
    ) -> None:
        if timer is not None:
            timer.cancel()
        exc = inner.exception()
        if isinstance(exc, BrokenProcessPool):
            # A worker died mid-group (OOM-kill, segfault, kill -9).
            # The whole pool is condemned; replace it so the next
            # group gets freshly spawned workers.
            self._retire_pool(pool)
        if exc is not None:
            self._settle(outer, exception=exc)
        else:
            self._settle(outer, result=inner.result())

    @staticmethod
    def _settle(
        outer: "Future[GroupOutcome]",
        result: "GroupOutcome | None" = None,
        exception: "BaseException | None" = None,
    ) -> None:
        try:
            if exception is not None:
                outer.set_exception(exception)
            else:
                outer.set_result(result)
        except InvalidStateError:
            pass  # completion and timeout race; the loser is discarded

    def close(self) -> None:
        """Shut the pool down (waits for in-flight groups to finish)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
