"""Micro-batching simulation service: batcher policy, store, service."""

import threading

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.engines import engine_group_key
from repro.obs import total
from repro.pic.simulation import TraditionalPIC
from repro.service import (
    STATUS_CACHED,
    STATUS_INFLIGHT,
    STATUS_QUEUED,
    MicroBatcher,
    PendingRequest,
    ResultStore,
    SimulationResult,
    SimulationService,
    parse_request,
    read_requests,
    result_key,
)


@pytest.fixture
def config():
    return SimulationConfig(n_cells=16, particles_per_cell=10, n_steps=3, vth=0.01)


def count(service, family, **labels):
    """Sum of one of the service's metric families, filtered by labels."""
    return total(service.metrics.snapshot(), family, **labels)


BATCHES = "repro_batch_size_total"
RUNS = "repro_service_runs_by_tier_total"
SUBMITS = "repro_service_submits_total"


def _pending(config, at=0.0):
    from concurrent.futures import Future

    solver = config.solver
    return PendingRequest(
        key=result_key(config, solver) if solver == "traditional" else f"dl-{id(config)}",
        config=config,
        solver=solver,
        future=Future(),
        submitted_at=at,
    )


class TestGroupKey:
    def test_structural_fields_separate_groups(self, config):
        base = engine_group_key(config)
        assert engine_group_key(config.with_updates(n_cells=32)) != base
        assert engine_group_key(config.with_updates(n_steps=7)) != base
        assert engine_group_key(config.with_updates(poisson_solver="fd")) != base
        assert engine_group_key(config.with_updates(interpolation="ngp")) != base
        assert engine_group_key(config.with_updates(solver="dl")) != base

    def test_physics_fields_share_a_group(self, config):
        base = engine_group_key(config)
        assert engine_group_key(config.with_updates(scenario="cold_beam", v0=0.4)) == base
        assert engine_group_key(config.with_updates(seed=99)) == base
        assert engine_group_key(config.with_updates(extra={"bump_fraction": 0.2})) == base


class TestMicroBatcher:
    def test_incompatible_configs_never_cobatched(self, config):
        batcher = MicroBatcher(max_batch_size=4, max_wait=10.0)
        batcher.add(_pending(config))
        batcher.add(_pending(config.with_updates(n_cells=32)))
        batcher.add(_pending(config.with_updates(n_steps=9)))
        batcher.add(_pending(config.with_updates(solver="dl")))
        assert batcher.n_groups == 4
        # none full, none past deadline: nothing flushes
        assert batcher.take_ready(now=1.0) == []
        groups = batcher.drain()
        assert sorted(len(g) for g in groups) == [1, 1, 1, 1]

    def test_size_flush(self, config):
        batcher = MicroBatcher(max_batch_size=2, max_wait=10.0)
        batcher.add(_pending(config.with_updates(seed=0)))
        batcher.add(_pending(config.with_updates(seed=1)))
        batcher.add(_pending(config.with_updates(seed=2)))
        groups = batcher.take_ready(now=0.0)
        assert [len(g) for g in groups] == [2]
        assert len(batcher) == 1  # the third request stays pending

    def test_deadline_flush_fires_with_partial_batch(self, config):
        batcher = MicroBatcher(max_batch_size=8, max_wait=0.5)
        batcher.add(_pending(config, at=100.0))
        assert batcher.take_ready(now=100.4) == []
        groups = batcher.take_ready(now=100.5)
        assert [len(g) for g in groups] == [1]
        assert len(batcher) == 0

    def test_overfull_bucket_is_chunked(self, config):
        batcher = MicroBatcher(max_batch_size=2, max_wait=0.0)
        for s in range(5):
            batcher.add(_pending(config.with_updates(seed=s), at=0.0))
        groups = batcher.take_ready(now=1.0)
        assert sorted(len(g) for g in groups) == [1, 2, 2]

    def test_next_deadline_tracks_oldest(self, config):
        batcher = MicroBatcher(max_batch_size=8, max_wait=1.0)
        assert batcher.next_deadline() is None
        batcher.add(_pending(config, at=5.0))
        batcher.add(_pending(config.with_updates(n_cells=32), at=3.0))
        assert batcher.next_deadline() == 4.0


def _make_result(config, key="traditional-x", n=4):
    rng = np.random.default_rng(0)
    series = {
        name: rng.normal(size=n)
        for name in ("time", "kinetic", "potential", "total", "momentum", "mode1")
    }
    return SimulationResult(
        key=key, config=config, solver="traditional",
        series=series, efield=rng.normal(size=config.n_cells),
    )


class TestResultStore:
    def test_memory_round_trip(self, config):
        store = ResultStore(capacity=4)
        result = _make_result(config)
        store.put(result)
        assert store.get(result.key) is result

    def test_lru_eviction(self, config):
        store = ResultStore(capacity=2)
        a, b, c = (_make_result(config, key=f"traditional-{i}") for i in "abc")
        store.put(a)
        store.put(b)
        store.get(a.key)  # refresh a; b is now least recent
        store.put(c)
        assert store.get(b.key) is None
        assert store.get(a.key) is a

    def test_disk_round_trip_bitwise(self, config, tmp_path):
        store = ResultStore(capacity=2, directory=tmp_path)
        result = _make_result(config)
        store.put(result)
        rehydrated = ResultStore(capacity=2, directory=tmp_path).get(result.key)
        assert rehydrated is not None
        assert rehydrated.config == config
        assert rehydrated.solver == result.solver
        for name, values in result.series.items():
            np.testing.assert_array_equal(rehydrated.series[name], values)
        np.testing.assert_array_equal(rehydrated.efield, result.efield)

    def test_served_arrays_are_frozen(self, config):
        # shared between all requesters of a key: in-place edits must fail
        result = _make_result(config)
        with pytest.raises(ValueError, match="read-only"):
            result.efield[0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            result.series["total"][0] = 99.0

    def test_no_temp_files_left_behind(self, config, tmp_path):
        store = ResultStore(capacity=2, directory=tmp_path)
        store.put(_make_result(config))
        names = [p.name for p in tmp_path.iterdir()]
        assert all(not n.startswith(".tmp-") for n in names)
        assert any(n.endswith(".npz") for n in names)

    def test_eviction_falls_back_to_disk(self, config, tmp_path):
        store = ResultStore(capacity=1, directory=tmp_path)
        a = _make_result(config, key="traditional-a")
        b = _make_result(config, key="traditional-b")
        store.put(a)
        store.put(b)  # evicts a from memory; disk copy remains
        again = store.get("traditional-a")
        assert again is not None and again.from_cache
        np.testing.assert_array_equal(again.efield, a.efield)
        assert store.get("traditional-a") is again  # promoted to memory

    def test_result_key_separates_families(self, config):
        assert result_key(config, "traditional") != result_key(
            config, "dl", solver_fingerprint="f" * 64
        )
        with pytest.raises(ValueError, match="fingerprint"):
            result_key(config, "dl")
        with pytest.raises(ValueError, match="solver family"):
            result_key(config, "magic")


class TestSimulationService:
    """Synchronous-mode (start=False) service: deterministic, thread-free."""

    def test_served_result_matches_solo_run_bitwise(self, config):
        with SimulationService(start=False) as service:
            future = service.submit(config)
            service.flush()
            result = future.result(timeout=0)
        solo = TraditionalPIC(config)
        series = solo.run(config.n_steps).as_arrays()
        for name in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
            np.testing.assert_array_equal(result.series[name], series[name])
        np.testing.assert_array_equal(result.efield, solo.efield[0])

    def test_cache_hit_skips_engine_execution(self, config):
        with SimulationService(start=False) as service:
            first = service.submit(config)
            service.flush()
            executed = count(service, RUNS)
            again, status = service.submit_with_status(config)
            assert status == STATUS_CACHED
            # A cached delivery is a lightweight copy with its own
            # per-delivery timings; the result arrays are shared.
            served, original = again.result(timeout=0), first.result(timeout=0)
            assert served == original
            assert served.series["total"] is original.series["total"]
            assert set(served.timings) == {"store_s"}
            assert count(service, RUNS) == executed
            assert count(service, SUBMITS, outcome="cached") == 1

    def test_inflight_dedup_shares_one_future(self, config):
        with SimulationService(start=False) as service:
            fut_a, status_a = service.submit_with_status(config)
            fut_b, status_b = service.submit_with_status(config)
            assert (status_a, status_b) == (STATUS_QUEUED, STATUS_INFLIGHT)
            assert fut_a is fut_b
            assert count(service, "repro_service_pending") == 1  # one engine row for both
            service.flush()
            assert fut_a.result(timeout=0) is fut_b.result(timeout=0)

    def test_incompatible_requests_execute_in_separate_batches(self, config):
        with SimulationService(max_batch_size=8, start=False) as service:
            futures = [
                service.submit(config),
                service.submit(config.with_updates(seed=1)),
                service.submit(config.with_updates(n_steps=5)),
                service.submit(config.with_updates(n_cells=32)),
            ]
            service.flush()
            results = [f.result(timeout=0) for f in futures]
        assert count(service, BATCHES) == 3
        assert len(results[0].series["time"]) == config.n_steps + 1
        assert len(results[2].series["time"]) == 6

    def test_mixed_scenarios_cobatch(self, config):
        scenarios = ["two_stream", "cold_beam", "landau_damping", "bump_on_tail"]
        with SimulationService(max_batch_size=8, start=False) as service:
            futures = [
                service.submit(config.with_updates(scenario=s, seed=i))
                for i, s in enumerate(scenarios)
            ]
            service.flush()
            for future in futures:
                future.result(timeout=0)
        assert count(service, BATCHES) == 1
        assert count(service, RUNS) == 4

    def test_engine_failure_propagates_to_every_requester(self, config):
        bad = config.with_updates(scenario="bump_on_tail", extra={"bump_fraction": 5.0})
        with SimulationService(start=False) as service:
            future = service.submit(bad)
            service.flush()
            with pytest.raises(ValueError, match="bump_fraction"):
                future.result(timeout=0)
            errors = "repro_service_group_errors_total"
            assert count(service, errors) == count(service, errors, kind="ValueError") == 1
            assert count(service, "repro_service_pending") == 0
        # the key is free again: a corrected submit is not poisoned
        with SimulationService(start=False) as service:
            future = service.submit(bad)
            service.flush()
            with pytest.raises(ValueError):
                future.result(timeout=0)

    def test_unknown_scenario_rejected_at_submit(self, config):
        with SimulationService(start=False) as service:
            with pytest.raises(ValueError, match="unknown scenario"):
                service.submit(config.with_updates(scenario="nope"))

    def test_dl_requests_need_a_solver(self, config):
        with SimulationService(start=False) as service:
            with pytest.raises(ValueError, match="no DL solver"):
                service.submit(config.with_updates(solver="dl"))

    def test_submit_after_close_rejected(self, config):
        service = SimulationService(start=False)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(config)

    def test_close_executes_pending_requests(self, config):
        service = SimulationService(start=False)
        future = service.submit(config)
        service.close()
        assert future.result(timeout=0).config == config


class TestTornStoreArchive:
    """An unreadable archive is a counted cache miss, not a failed submit."""

    def _torn_store(self, config, tmp_path):
        from repro.api import Client

        with Client(background=False, store=ResultStore(directory=tmp_path)) as client:
            key = client.run(config).key
        path = tmp_path / f"{key}.npz"
        with open(path, "r+b") as fh:
            fh.truncate(100)
        return path

    def test_unreadable_archive_is_a_miss_and_is_rewritten(self, config, tmp_path):
        from repro.api import Client

        self._torn_store(config, tmp_path)
        store = ResultStore(directory=tmp_path)
        with Client(background=False, store=store) as client:
            first = client.run(config)
            assert first.status == "ok" and not first.cache_hit
            assert total(client.stats, "repro_service_store_errors_total") == 1
            second = client.run(config)
            assert second.cache_hit
        # Delivery's write-through replaced the torn archive.
        assert ResultStore(directory=tmp_path).get(first.key) is not None


class TestDLService:
    @pytest.fixture
    def dl_solver(self, config):
        from repro.dlpic import DLFieldSolver
        from repro.models.architectures import build_mlp
        from repro.phasespace.binning import PhaseSpaceGrid
        from repro.phasespace.normalization import MinMaxNormalizer

        grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
        model = build_mlp(input_size=grid.size, output_size=config.n_cells,
                          hidden_size=8, rng=0)
        return DLFieldSolver(
            model, grid, MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 50.0})
        )

    def test_dl_result_matches_solo_dlpic_bitwise(self, config, dl_solver):
        from repro.dlpic import DLPIC

        with SimulationService(dl_solver=dl_solver, start=False) as service:
            future = service.submit(config.with_updates(solver="dl"))
            service.flush()
            result = future.result(timeout=0)
        solo = DLPIC(config, dl_solver)
        series = solo.run(config.n_steps).as_arrays()
        for name in ("kinetic", "potential", "total", "momentum", "mode1"):
            np.testing.assert_array_equal(result.series[name], series[name])
        np.testing.assert_array_equal(result.efield, solo.efield[0])

    def test_dl_and_traditional_results_have_distinct_slots(self, config, dl_solver):
        with SimulationService(dl_solver=dl_solver, start=False) as service:
            fut_trad = service.submit(config)
            fut_dl, status = service.submit_with_status(config.with_updates(solver="dl"))
            assert status == STATUS_QUEUED  # not deduped against the traditional run
            service.flush()
            assert fut_trad.result(timeout=0).key != fut_dl.result(timeout=0).key
        assert count(service, BATCHES) == 2


class TestThreadedService:
    """The background worker: deadline flushes and concurrent submits."""

    def test_deadline_flush_completes_partial_batch(self, config):
        with SimulationService(max_batch_size=64, max_wait=0.02) as service:
            futures = [service.submit(config.with_updates(seed=s)) for s in range(3)]
            results = [f.result(timeout=30) for f in futures]
        assert count(service, BATCHES) == 1  # one partial flush, not 3
        assert [r.config.seed for r in results] == [0, 1, 2]

    def test_concurrent_submitters_are_coalesced(self, config):
        futures = [None] * 8
        with SimulationService(max_batch_size=8, max_wait=0.05) as service:
            def submit(i):
                futures[i] = service.submit(config.with_updates(seed=i % 4))

            threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            results = [f.result(timeout=30) for f in futures]
        # 8 requests over 4 distinct configs: at most 4 engine rows ran
        executed = count(service, RUNS)
        assert executed + count(service, SUBMITS, outcome="cached") <= 8
        assert executed <= 4
        for i, result in enumerate(results):
            assert result.config.seed == i % 4


class TestVlasovService:
    """solver=vlasov requests batch, dedup and store like PIC requests."""

    @pytest.fixture
    def vconfig(self):
        return SimulationConfig(
            n_cells=16, n_steps=3, vth=0.03, v0=0.2, solver="vlasov",
            extra={"n_v": 24},
        )

    def test_vlasov_results_match_solo_runs_bitwise(self, vconfig):
        from repro.engines import make_engine

        configs = [
            vconfig,
            vconfig.with_updates(scenario="landau_damping", vth=0.05),
            vconfig.with_updates(scenario="bump_on_tail", v0=0.3),
        ]
        with SimulationService(start=False) as service:
            futures = [service.submit(cfg) for cfg in configs]
            service.flush()
            results = [f.result(timeout=0) for f in futures]
        assert count(service, BATCHES) == 1  # one engine for all three
        for cfg, result in zip(configs, results):
            solo = make_engine([cfg])
            series = solo.run(cfg.n_steps).member(0)
            for name in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
                np.testing.assert_array_equal(result.series[name], series[name])
            np.testing.assert_array_equal(result.efield, solo.efield[0])

    def test_vlasov_and_traditional_never_cobatch(self, vconfig):
        with SimulationService(start=False) as service:
            fut_v = service.submit(vconfig)
            fut_t = service.submit(vconfig.with_updates(solver="traditional"))
            service.flush()
            assert fut_v.result(timeout=0).key != fut_t.result(timeout=0).key
        assert count(service, BATCHES) == 2

    def test_vlasov_store_and_dedup_behave_like_pic(self, vconfig, tmp_path):
        store = ResultStore(capacity=4, directory=tmp_path)
        with SimulationService(store=store, start=False) as service:
            first, status_first = service.submit_with_status(vconfig)
            dup, status_dup = service.submit_with_status(vconfig)
            assert (status_first, status_dup) == (STATUS_QUEUED, STATUS_INFLIGHT)
            assert dup is first
            service.flush()
            again, status_again = service.submit_with_status(vconfig)
            assert status_again == STATUS_CACHED
            # Per-delivery copy with fresh timings; arrays are shared.
            assert again.result(timeout=0) == first.result(timeout=0)
        # disk round trip rehydrates the vlasov result bitwise
        rehydrated = ResultStore(capacity=4, directory=tmp_path).get(
            first.result(timeout=0).key
        )
        assert rehydrated is not None
        assert rehydrated.config == vconfig
        assert rehydrated.solver == "vlasov"
        np.testing.assert_array_equal(
            rehydrated.efield, first.result(timeout=0).efield
        )

    def test_vlasov_velocity_grids_bucket_separately(self, vconfig):
        batcher = MicroBatcher(max_batch_size=8, max_wait=10.0)
        other = vconfig.with_updates(extra={"n_v": 32})
        batcher.add(_pending(vconfig))
        batcher.add(_pending(other))
        assert batcher.n_groups == 2

    def test_cold_vlasov_rejected_at_submit(self, vconfig):
        with SimulationService(start=False) as service:
            with pytest.raises(ValueError, match="vth > 0"):
                service.submit(vconfig.with_updates(vth=0.0))

    @pytest.mark.parametrize(
        "extra, match",
        [
            ({"n_v": [64]}, "numeric"),
            ({"n_v": 1}, "too small"),
            ({"v_min": 0.5, "v_max": -0.5}, "empty velocity window"),
            ({"n_v": 64.7}, "must be an integer"),
            ({"n_v": "64"}, "numeric"),
            ({"n_v": True}, "numeric"),
            ({"n_v": float("inf")}, "must be an integer"),
            ({"v_max": float("nan")}, "non-finite"),
            ({"v_min": float("-inf")}, "non-finite"),
            ({"v_min": "-0.5"}, "numeric"),
        ],
    )
    def test_malformed_velocity_grid_rejected_at_submit(self, vconfig, extra, match):
        """Bad grid knobs fail fast and never leak an in-flight future."""
        bad = vconfig.with_updates(extra=extra)
        with SimulationService(start=False) as service:
            with pytest.raises(ValueError, match=match):
                service.submit(bad)
            assert count(service, "repro_service_pending") == 0

    def test_result_key_knows_vlasov_family(self, vconfig):
        assert result_key(vconfig, "vlasov") != result_key(vconfig, "traditional")


class TestRequestParsing:
    def test_parse_request_defaults(self):
        req = parse_request({"api_version": "v1", "config": {"v0": 0.3}}, index=2)
        assert req.config.v0 == 0.3
        assert req.solver == "traditional"
        assert req.id == "request-2"

    def test_envelope_fields_extracted(self):
        req = parse_request({
            "api_version": "v1", "id": "x",
            "config": {"solver": "dl", "seed": 7},
        })
        assert (req.id, req.solver, req.config.seed) == ("x", "dl", 7)

    def test_legacy_bare_config_lines_hard_error(self):
        with pytest.raises(ValueError, match="legacy bare-config"):
            parse_request({"v0": 0.3})
        with pytest.raises(ValueError, match="v1 envelope"):
            parse_request({"id": "x", "solver": "dl", "seed": 7})

    def test_config_without_version_rejected(self):
        with pytest.raises(ValueError, match="api_version"):
            parse_request({"config": {"v0": 0.3}})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="nsteps"):
            parse_request({"api_version": "v1", "config": {"nsteps": 3}})

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="solver"):
            parse_request({"api_version": "v1", "config": {"solver": "quantum"}})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="expected 'numpy' or 'threaded'"):
            parse_request({"api_version": "v1", "config": {"backend": "numba"}})

    def test_solver_is_a_config_field(self):
        req = parse_request({
            "api_version": "v1",
            "config": {"solver": "vlasov", "vth": 0.03, "extra": {"n_v": 32}},
        })
        assert req.solver == "vlasov"
        assert req.config.solver == "vlasov"
        assert req.config.extra == {"n_v": 32}

    def test_cold_vlasov_request_fails_the_parse(self):
        with pytest.raises(ValueError, match="vth > 0"):
            parse_request({
                "api_version": "v1",
                "config": {"solver": "vlasov", "vth": 0.0},
            })

    def test_read_requests_skips_blanks_and_comments(self):
        lines = [
            "", "# header",
            '{"api_version": "v1", "config": {"seed": 1}}',
            "   ",
            '{"api_version": "v1", "config": {"seed": 2}}',
        ]
        requests = read_requests(lines)
        assert [r.config.seed for r in requests] == [1, 2]
        # default ids name the input line, not the running request count
        assert [r.id for r in requests] == ["request-3", "request-5"]

    def test_unknown_scenario_fails_the_parse(self):
        with pytest.raises(ValueError, match="line 1.*unknown scenario"):
            read_requests(
                ['{"api_version": "v1", "config": {"scenario": "typo_scenario"}}']
            )

    def test_read_requests_reports_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            read_requests(
                ['{"api_version": "v1", "config": {"seed": 1}}', "{not json"]
            )

    def test_read_requests_reports_legacy_lines_with_line_numbers(self):
        with pytest.raises(ValueError, match="line 1.*legacy bare-config"):
            read_requests(['{"seed": 1}'])
