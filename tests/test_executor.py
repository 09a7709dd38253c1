"""The executor layer: inline default, sharded pool, fault paths."""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.api import Client, HttpTransport, RunRequest
from repro.config import SimulationConfig
from repro.engines.base import make_engine
from repro.obs import spans_from_wire, total
from repro.server import serve_in_thread
from repro.service import (
    GroupTask,
    GroupTimeoutError,
    InlineExecutor,
    ResultStore,
    ShardedExecutor,
    SimulationService,
)
from repro.service.executor import run_group_task


def _task(*configs: SimulationConfig, phase_space: bool = False) -> GroupTask:
    return GroupTask(
        configs=tuple(cfg.to_dict() for cfg in configs),
        solver=configs[0].solver,
        n_steps=configs[0].n_steps,
        observables=None,
        phase_space=tuple(phase_space for _ in configs),
    )


def _slow_config() -> SimulationConfig:
    """A run long enough (~seconds) to be interrupted mid-group."""
    return SimulationConfig(
        n_cells=64, particles_per_cell=100, n_steps=4000, v0=0.2, vth=0.01, seed=3
    )


def _count(service, family, **labels):
    """Sum of one of the service's metric families, filtered by labels."""
    return total(service.metrics.snapshot(), family, **labels)


RUNS = "repro_service_runs_by_tier_total"
GROUP_ERRORS = "repro_service_group_errors_total"


def _assert_results_bitwise_equal(a, b) -> None:
    assert a.key == b.key
    assert set(a.series) == set(b.series)
    for name in a.series:
        assert np.array_equal(a.series[name], b.series[name]), name
    assert np.array_equal(a.efield, b.efield)
    for attr in ("final_x", "final_v", "final_f"):
        va, vb = getattr(a, attr), getattr(b, attr)
        assert (va is None) == (vb is None)
        if va is not None:
            assert np.array_equal(va, vb)


def _assert_worker_span_tree(spans, n_steps: int) -> dict:
    """Check the worker half of a trace; returns its root span.

    One ``executor.worker_run`` root with ``engine.build`` and
    ``engine.run`` under it and ``engine.steps`` under ``engine.run``;
    every child inside its parent's window (with 1 ns of slack for the
    rounding an adopting trace's re-anchoring adds).
    """
    worker = {"executor.worker_run", "engine.build", "engine.run", "engine.steps"}
    by_name = {}
    for span in spans:
        if span["name"] in worker:
            by_name.setdefault(span["name"], []).append(span)
    assert set(by_name) == worker
    assert all(len(found) == 1 for found in by_name.values()), by_name
    root, build, run, steps = (
        by_name[name][0]
        for name in ("executor.worker_run", "engine.build", "engine.run", "engine.steps")
    )
    assert build["parent_id"] == run["parent_id"] == root["span_id"]
    assert steps["parent_id"] == run["span_id"]
    attrs = steps["attributes"]
    assert attrs["n_steps"] == n_steps
    assert 0 < attrs["step_p50_s"] <= attrs["step_p99_s"] <= attrs["step_max_s"]
    for child, parent in ((build, root), (run, root), (steps, run)):
        assert parent["start_s"] - 1e-9 <= child["start_s"]
        assert (
            child["start_s"] + child["duration_s"]
            <= parent["start_s"] + parent["duration_s"] + 1e-9
        ), (child, parent)
    return root


class TestWorkerSpans:
    """What a traced group ships back: ``Span`` dicts in wire format."""

    def test_traced_task_ships_one_worker_tree(self, tiny_config):
        task = dataclasses.replace(_task(tiny_config), traced=True)
        spans = list(run_group_task(task).spans)
        assert spans_from_wire(spans) == spans
        root = _assert_worker_span_tree(spans, task.n_steps)
        assert root["parent_id"] is None
        assert [span["parent_id"] for span in spans].count(None) == 1
        assert root["attributes"]["worker_pid"] == os.getpid()

    def test_untraced_task_ships_no_spans_and_the_same_bits(self, tiny_config):
        task = _task(tiny_config, tiny_config.with_updates(seed=9), phase_space=True)
        plain = run_group_task(task)
        traced = run_group_task(dataclasses.replace(task, traced=True))
        assert plain.spans == ()
        assert list(plain.series) == list(traced.series)
        for name, values in plain.series.items():
            other = traced.series[name]
            assert values.dtype == other.dtype, name
            assert values.tobytes() == other.tobytes(), name
        assert plain.efield.tobytes() == traced.efield.tobytes()
        for a, b in zip(plain.final_x + plain.final_v, traced.final_x + traced.final_v):
            assert a.tobytes() == b.tobytes()

    def test_spans_built_in_a_spawned_worker(self, tiny_config):
        with Client(workers=2, tracing=True) as client:
            result = client.run(RunRequest(config=tiny_config, id="spawned"))
            spans = client.service.tracer.get(result.timings["trace_id"]).span_dicts()
        root = _assert_worker_span_tree(spans, tiny_config.n_steps)
        assert root["attributes"]["worker_pid"] != os.getpid()
        (dispatch,) = [span for span in spans if span["name"] == "executor.dispatch"]
        assert root["parent_id"] == dispatch["span_id"]


class TestTracingOff:
    def test_default_layers_hold_no_tracer(self):
        with SimulationService(start=False) as service:
            assert service.tracer is None
        with HttpTransport("http://127.0.0.1:8787") as transport:
            assert transport.tracer is None
        with serve_in_thread() as server:
            assert server.tracer is None


class TestInlineExecutor:
    def test_default_service_uses_inline_executor(self, tiny_config):
        with SimulationService(start=False) as service:
            assert isinstance(service.executor, InlineExecutor)
            assert _count(service, "repro_service_workers") == 1

    def test_run_group_task_matches_engine_run(self, tiny_config):
        outcome = run_group_task(_task(tiny_config, phase_space=True))
        sim = make_engine([tiny_config])
        history = sim.run(tiny_config.n_steps)
        reference = history.as_arrays()
        for name, values in reference.items():
            got = outcome.series[name] if name == "time" else outcome.series[name][:, 0]
            want = values if name == "time" else values[:, 0]
            assert np.array_equal(got, want), name
        assert np.array_equal(outcome.efield, sim.efield)
        assert np.array_equal(outcome.final_x[0], sim.particles.x[0])
        assert np.array_equal(outcome.final_v[0], sim.v_at_integer_time[0])
        assert outcome.final_f[0] is None
        assert outcome.worker_pid == os.getpid()

    def test_group_task_pickles(self, tiny_config):
        task = _task(tiny_config, tiny_config.with_updates(seed=9))
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        outcome = run_group_task(clone)
        assert outcome.batch == 2

    def test_inline_stats_count_groups_and_runs(self, tiny_config):
        with SimulationService(start=False) as service:
            service.submit(tiny_config)
            service.submit(tiny_config.with_updates(seed=8))
            service.flush()
            assert service.batch_size_histogram == {2: 1}
            assert _count(service, RUNS, worker=os.getpid()) == 2
            assert _count(service, GROUP_ERRORS) == 0
            assert _count(service, "repro_pool_restarts_total") == 0

    def test_inline_submit_reports_errors_via_future(self, tiny_config):
        executor = InlineExecutor()
        bad = _task(tiny_config.with_updates(solver="dl"))
        future = executor.submit(bad)
        with pytest.raises(ValueError, match="model_dir"):
            future.result()


class TestShardedExecutor:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedExecutor(0)
        with pytest.raises(ValueError, match="group_timeout"):
            ShardedExecutor(1, group_timeout=0.0)

    def test_sharded_service_bitwise_equals_inline_and_close_drains(
        self, tiny_config
    ):
        mixed = [
            tiny_config,
            tiny_config.with_updates(seed=21, scenario="landau_damping"),
            tiny_config.with_updates(
                solver="mpi", seed=5, extra={"n_ranks": 2}
            ),
        ]
        with SimulationService(start=False) as inline_service:
            inline_futures = [
                inline_service.submit(cfg, phase_space=True) for cfg in mixed
            ]
            inline_service.flush()
            inline_results = [f.result() for f in inline_futures]

        service = SimulationService(max_wait=0.005, workers=2)
        try:
            assert isinstance(service.executor, ShardedExecutor)
            pids = service.executor.warm()
            assert pids and all(pid != os.getpid() for pid in pids)
            futures = [service.submit(cfg, phase_space=True) for cfg in mixed]
            results = [f.result(timeout=120) for f in futures]
        finally:
            service.close()
        for inline_result, sharded_result in zip(inline_results, results):
            _assert_results_bitwise_equal(inline_result, sharded_result)
        assert _count(service, "repro_service_workers") == 2
        assert _count(service, "repro_service_dispatched") == 0
        assert _count(service, RUNS) == len(mixed)
        assert sum(_count(service, RUNS, worker=pid) for pid in pids) == len(mixed)
        # Submitting after close names the service state.
        with pytest.raises(RuntimeError, match="SimulationService is closed"):
            service.submit(tiny_config)

    def test_close_resolves_queued_groups(self, tiny_config):
        service = SimulationService(max_wait=30.0, workers=2)
        futures = [
            service.submit(tiny_config.with_updates(seed=100 + i))
            for i in range(3)
        ]
        # max_wait is huge: nothing has flushed yet when close() runs,
        # so close must drain the queued group, not abandon it.
        service.close()
        for future in futures:
            assert future.result(timeout=1).n_steps == tiny_config.n_steps

    def test_worker_killed_mid_group_errors_and_pool_recovers(self, tiny_config):
        executor = ShardedExecutor(1)
        try:
            [pid] = executor.warm()
            doomed = executor.submit(_task(_slow_config()))
            time.sleep(0.3)  # let the worker pick the group up
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(Exception) as excinfo:
                doomed.result(timeout=120)
            assert "process" in str(excinfo.value).lower()
            # The pool replenishes: the next group is served by a
            # freshly spawned worker.
            outcome = executor.submit(_task(tiny_config)).result(timeout=120)
            assert outcome.worker_pid != pid
            assert executor.pool_restarts >= 1
        finally:
            executor.close()

    def test_worker_crash_resolves_service_requests_as_errors(self, tiny_config):
        # workers=1 means inline by design, so hand the service a
        # one-worker pool explicitly to exercise the crash path.
        service = SimulationService(
            max_wait=0.005, executor=ShardedExecutor(1)
        )
        try:
            [pid] = service.executor.warm()
            doomed = service.submit(_slow_config())
            time.sleep(0.3)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(Exception):
                doomed.result(timeout=120)
            assert _count(service, GROUP_ERRORS) == 1
            assert _count(service, GROUP_ERRORS, kind="BrokenProcessPool") == 1
            assert _count(service, "repro_pool_restarts_total") >= 1
            # The service keeps serving on the replenished pool; only
            # the group that completed counts as an executed batch.
            result = service.submit(tiny_config).result(timeout=120)
            assert result.n_steps == tiny_config.n_steps
            assert service.batch_size_histogram == {1: 1}
        finally:
            executor = service.executor
            service.close()
            executor.close()  # service does not own an injected executor

    def test_group_timeout_resolves_future(self):
        executor = ShardedExecutor(1, group_timeout=0.3)
        service = SimulationService(max_wait=0.005, executor=executor)
        try:
            executor.warm()  # spawn cost must not count against the deadline
            future = service.submit(_slow_config())
            with pytest.raises(GroupTimeoutError, match="deadline"):
                future.result(timeout=120)
            assert _count(service, GROUP_ERRORS, kind="GroupTimeoutError") == 1
        finally:
            service.close()
            executor.close()

    def test_sharded_dl_rehydrates_solver_from_model_dir(
        self, tiny_trained_solver, tiny_solver_config, tmp_path
    ):
        from repro.dlpic.solver import DLFieldSolver

        model_dir = tiny_trained_solver.save(tmp_path / "model")
        loaded = DLFieldSolver.load_auto(model_dir)
        config = tiny_solver_config.with_updates(solver="dl", n_steps=8)
        with SimulationService(start=False, dl_solver=loaded) as inline_service:
            future = inline_service.submit(config)
            inline_service.flush()
            inline_result = future.result()
        service = SimulationService(
            max_wait=0.005, workers=2,
            dl_solver=loaded, model_dir=str(model_dir),
        )
        try:
            sharded_result = service.submit(config).result(timeout=120)
        finally:
            service.close()
        _assert_results_bitwise_equal(inline_result, sharded_result)

    def test_sharded_dl_without_model_dir_is_a_clear_error(
        self, tiny_trained_solver, tiny_solver_config
    ):
        config = tiny_solver_config.with_updates(solver="dl", n_steps=4)
        executor = ShardedExecutor(1)  # no model_dir for the workers
        service = SimulationService(
            max_wait=0.005, dl_solver=tiny_trained_solver, executor=executor
        )
        try:
            future = service.submit(config)
            with pytest.raises(ValueError, match="model_dir"):
                future.result(timeout=120)
        finally:
            service.close()
            executor.close()


class TestSharedStoreAcrossServices:
    def test_two_services_on_one_store_directory_dedup(
        self, tiny_config, tmp_path
    ):
        store_dir = tmp_path / "store"
        with SimulationService(
            start=False, store=ResultStore(directory=store_dir)
        ) as producer:
            future = producer.submit(tiny_config)
            producer.flush()
            produced = future.result()
            assert _count(producer, RUNS) == 1
        # A different service (fresh memory tier, like another process)
        # pointed at the same directory serves the repeat from disk.
        with SimulationService(
            start=False, store=ResultStore(capacity=0, directory=store_dir)
        ) as consumer:
            future, status = consumer.submit_with_status(tiny_config)
            assert status == "cached"
            cached = future.result()
            assert _count(consumer, RUNS) == 0
            assert cached.from_cache
        for name in produced.series:
            assert np.array_equal(produced.series[name], cached.series[name])
        assert np.array_equal(produced.efield, cached.efield)

    def test_sharded_workers_share_the_disk_store(self, tiny_config, tmp_path):
        store_dir = tmp_path / "store"
        service = SimulationService(
            max_wait=0.005, workers=2,
            store=ResultStore(directory=store_dir),
        )
        try:
            first = service.submit(tiny_config).result(timeout=120)
            assert (store_dir / f"{first.key}.npz").exists()
        finally:
            service.close()
        # Another sharded service on the same directory never executes.
        other = SimulationService(
            max_wait=0.005, workers=2,
            store=ResultStore(capacity=0, directory=store_dir),
        )
        try:
            future, status = other.submit_with_status(tiny_config)
            assert status == "cached"
            assert future.result(timeout=10).from_cache
            assert _count(other, RUNS) == 0
        finally:
            other.close()
