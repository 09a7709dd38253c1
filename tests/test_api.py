"""Public API v1: envelope schema, Client façade, dtype tier."""

import numpy as np
import pytest

from repro.api import (
    API_VERSION,
    FAILURE_STATUSES,
    RESULT_STATUSES,
    ApiError,
    Client,
    RunRequest,
    RunResult,
)
from repro.config import SimulationConfig
from repro.engines.observables import canonical_observables
from repro.service import read_requests
from repro.service.store import ResultStore, result_key


@pytest.fixture
def config():
    return SimulationConfig(n_cells=16, particles_per_cell=20, n_steps=4, vth=0.02)


def small_client(**kwargs):
    return Client(background=False, **kwargs)


class TestRunRequestSchema:
    def test_exact_round_trip(self, config):
        req = RunRequest(
            config=config, id="r-1", observables=["mode3", "energies"],
            phase_space=True, metadata={"origin": "test", "n": 2},
            tags=("nightly", "smoke"),
        )
        assert RunRequest.from_dict(req.to_dict()) == req

    def test_minimal_round_trip(self, config):
        req = RunRequest(config=config, id="x")
        out = req.to_dict()
        assert out["api_version"] == API_VERSION
        assert "observables" not in out  # default selection stays implicit
        assert RunRequest.from_dict(out) == req

    def test_unknown_version_rejected(self, config):
        with pytest.raises(ValueError, match="api_version"):
            RunRequest.from_dict({"api_version": "v2", "config": {}})
        with pytest.raises(ValueError, match="api_version"):
            RunRequest(config=config, api_version="v0")

    def test_missing_version_rejected(self):
        with pytest.raises(ValueError, match="api_version"):
            RunRequest.from_dict({"config": {"v0": 0.2}})

    def test_unknown_envelope_key_rejected(self):
        with pytest.raises(ValueError, match="unknown envelope key"):
            RunRequest.from_dict(
                {"api_version": "v1", "config": {}, "observable": ["energies"]}
            )

    def test_reserved_keys_rejected_inside_config(self):
        for key in ("id", "api_version", "observables", "metadata", "tags"):
            with pytest.raises(ValueError, match="reserved envelope key"):
                RunRequest.from_dict(
                    {"api_version": "v1", "config": {key: "x"}}
                )

    def test_unknown_observable_rejected(self, config):
        with pytest.raises(ValueError, match="unknown observable"):
            RunRequest(config=config, observables=["wavelets"])

    @pytest.mark.parametrize("observables", [8, True, 2.5, "energies", {"name": "mode"}])
    def test_observables_that_are_not_a_list_rejected(self, config, observables):
        with pytest.raises(ValueError, match="observables must be a list"):
            RunRequest.from_dict(
                {"api_version": "v1", "config": {}, "observables": observables}
            )
        with pytest.raises(ValueError, match="observables must be a list"):
            RunRequest(config=config, observables=observables)

    def test_family_incompatible_observable_rejected(self, config):
        with pytest.raises(ValueError, match="vlasov"):
            RunRequest(config=config, observables=["phase_space"])

    @pytest.mark.parametrize("param, value", [
        ("order", "tsc"),
        ("v_min", float("nan")),
        ("v_max", float("inf")),
        ("box_length", float("inf")),
        ("n_x", 2.5),
        ("n_x", True),
        ("n_v", "8"),
    ])
    def test_malformed_training_pairs_rejected_naming_the_parameter(
        self, config, param, value
    ):
        with pytest.raises(ValueError, match=param):
            RunRequest(config=config, observables=[{"name": "training_pairs", param: value}])

    def test_observables_canonicalized(self, config):
        a = RunRequest(config=config, id="a", observables=["mode1", "energies"])
        b = RunRequest(config=config, id="a",
                       observables=["energies", {"name": "mode", "mode": 1}])
        assert a.observables == b.observables
        assert a == b

    def test_dtype_shorthand_folds_into_config(self):
        req = RunRequest.from_dict(
            {"api_version": "v1", "config": {"v0": 0.25}, "dtype": "float32"}
        )
        assert req.config.dtype == "float32"

    def test_contradicting_dtype_rejected(self):
        with pytest.raises(ValueError, match="contradicts"):
            RunRequest.from_dict({
                "api_version": "v1",
                "config": {"dtype": "float64"}, "dtype": "float32",
            })

    def test_float32_unsupported_families_fail_at_construction(self, config):
        # The registry-derived error names the family's supported tiers
        # and which families do offer the requested one.
        with pytest.raises(ValueError, match="float64"):
            RunRequest(config=config.with_updates(solver="energy", dtype="float32"))
        with pytest.raises(ValueError, match="is available for"):
            RunRequest(config=config.with_updates(solver="mpi", dtype="float32"))

    def test_unsupported_backend_fails_at_construction(self, config):
        with pytest.raises(ValueError, match="unknown backend 'threaded'"):
            RunRequest(config=config.with_updates(solver="energy", backend="threaded"))

    def test_metadata_and_tags_validated(self, config):
        with pytest.raises(ValueError, match="metadata"):
            RunRequest(config=config, metadata=[1, 2])
        with pytest.raises(ValueError, match="tags"):
            RunRequest(config=config, tags="not-a-list")

    def test_wire_path_validates_like_construction(self, config):
        base = {"api_version": "v1", "config": {"v0": 0.2}}
        with pytest.raises(ValueError, match="tags"):
            RunRequest.from_dict({**base, "tags": "nightly"})
        with pytest.raises(ValueError, match="phase_space"):
            RunRequest.from_dict({**base, "phase_space": "false"})

    def test_unhashable_observable_params_rejected(self, config):
        with pytest.raises(ValueError, match="JSON scalar"):
            RunRequest(config=config,
                       observables=[{"name": "mode", "mode": [1, 2]}])

    # Each used to parse: the first two then failed inside the engine,
    # 1.5 and true ran as mode1 but wrote an envelope that does not
    # parse, and "3" ran as mode3 under another canonical selection.
    BAD_MODES = [
        ("mode40", "'mode40'"),
        ({"name": "mode", "mode": -1}, "'mode'"),
        ({"name": "mode", "mode": 1.5}, "'mode'"),
        ({"name": "mode", "mode": True}, "'mode'"),
        ({"name": "mode", "mode": "3"}, "'mode'"),
    ]

    @pytest.mark.parametrize("entry, named", BAD_MODES)
    def test_bad_mode_rejected_at_parse_time_naming_the_observable(self, config, entry, named):
        with pytest.raises(ValueError, match=named):
            RunRequest(config=config, observables=[entry, "energies"])
        envelope = {"api_version": "v1", "config": config.to_dict(),
                    "observables": [entry]}
        with pytest.raises(ValueError, match=named):
            RunRequest.from_dict(envelope)

    @pytest.mark.parametrize("mode", range(9))  # 0 to 16 // 2 on the fixture's 16 cells
    def test_every_mode_in_range_round_trips_and_is_served(self, config, mode):
        for entry in (f"mode{mode}", {"name": "mode", "mode": mode}):
            req = RunRequest(config=config, id="m", observables=[entry])
            assert RunRequest.from_dict(req.to_dict()) == req
            assert req.observables == canonical_observables([f"mode{mode}"])
        with small_client(raise_on_error=False) as client:
            result = client.run(req)
        assert result.ok, result.error
        assert set(result.series) == {"time", f"mode{mode}"}


class TestLegacyLines:
    def test_legacy_line_hard_errors_naming_the_envelope(self):
        with pytest.raises(ValueError, match="legacy bare-config") as excinfo:
            read_requests(['{"v0": 0.3, "id": "legacy"}'])
        assert "v1 envelope" in str(excinfo.value)
        assert "line 1" in str(excinfo.value)

    def test_v1_line_round_trips_through_jsonl(self, config):
        import json

        req = RunRequest(config=config, id="j", observables=["energies", "mode2"])
        parsed = read_requests([json.dumps(req.to_dict())])
        assert parsed[0] == req


class TestResultKeys:
    def test_float32_separates_from_float64(self, config):
        k64 = result_key(config, "traditional")
        k32 = result_key(config.with_updates(dtype="float32"), "traditional")
        assert k64 != k32

    def test_default_observables_keep_legacy_key(self, config):
        bare = result_key(config, "traditional")
        explicit = result_key(config, "traditional",
                              observables=["energies", "mode1"])
        assert bare == explicit

    def test_non_default_observables_change_key(self, config):
        bare = result_key(config, "traditional")
        custom = result_key(config, "traditional", observables=["energies"])
        assert bare != custom

    def test_phase_space_changes_key(self, config):
        assert result_key(config, "traditional") != result_key(
            config, "traditional", phase_space=True
        )

    def test_an_explicit_numpy_backend_keeps_the_key(self, config):
        """``backend`` stays a v1 config key whose one value is the default,
        so spelling it out addresses the same stored result."""
        bare = {"api_version": "v1", "config": config.to_dict()}
        del bare["config"]["backend"]
        explicit = {"api_version": "v1", "config": {**bare["config"], "backend": "numpy"}}
        requests = [RunRequest.from_dict(doc) for doc in (bare, explicit)]
        assert requests[0] == requests[1]
        assert result_key(requests[0].config) == result_key(requests[1].config)
        with small_client() as client:
            first, second = (client.run(request) for request in requests)
        assert second.key == first.key and second.cache_hit

    def test_store_separates_dtypes(self, config, tmp_path):
        store = ResultStore(directory=tmp_path)
        with small_client(store=store) as client:
            r64 = client.run(RunRequest(config=config, id="a"))
            r32 = client.run(RunRequest(
                config=config.with_updates(dtype="float32"), id="b"))
            assert r64.key != r32.key
            assert (tmp_path / f"{r64.key}.npz").exists()
            assert (tmp_path / f"{r32.key}.npz").exists()
            # repeating either request hits its own slot
            again64 = client.run(RunRequest(config=config, id="c"))
            assert again64.cache_hit and again64.key == r64.key
            np.testing.assert_array_equal(
                np.asarray(again64.series["kinetic"]),
                np.asarray(r64.series["kinetic"]),
            )


class TestClient:
    def test_run_default_selection_matches_direct_engine(self, config):
        from repro.engines import make_engine

        with small_client() as client:
            result = client.run(RunRequest(config=config, id="r"))
        series = make_engine(config).run(config.n_steps).as_arrays()
        assert result.status == "ok"
        for name in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
            want = series[name] if name == "time" else series[name][:, 0]
            np.testing.assert_array_equal(np.asarray(result.series[name]), want)

    def test_map_preserves_order_and_dedups(self, config):
        cfgs = [config.with_updates(seed=s) for s in (0, 1, 0)]
        with small_client() as client:
            results = client.map([RunRequest(config=c, id=f"r{i}")
                                  for i, c in enumerate(cfgs)])
        assert [r.id for r in results] == ["r0", "r1", "r2"]
        assert results[2].key == results[0].key
        assert results[2].submit_status in ("inflight", "cached")
        np.testing.assert_array_equal(
            np.asarray(results[2].series["mode1"]),
            np.asarray(results[0].series["mode1"]),
        )

    def test_custom_observables_selection(self, config):
        req = RunRequest(config=config, id="m",
                         observables=["mode2", "fields", "energies"])
        with small_client() as client:
            result = client.run(req)
        assert sorted(result.series) == [
            "fields", "kinetic", "mode2", "momentum", "potential", "time", "total",
        ]
        assert np.asarray(result.series["fields"]).shape == (
            config.n_steps + 1, config.n_cells
        )

    def test_phase_space_final_state(self, config):
        with small_client() as client:
            result = client.run(RunRequest(config=config, id="p", phase_space=True))
        assert result.final_x.shape == (config.n_particles,)
        assert result.final_v.shape == (config.n_particles,)

    def test_energy_family_served(self, config):
        req = RunRequest(config=config.with_updates(solver="energy"), id="e")
        with small_client() as client:
            result = client.run(req)
        assert result.solver == "energy"
        # The implicit midpoint scheme conserves energy tightly.
        assert result.energy_variation() < 5e-3

    def test_energy_family_row_matches_solo_run(self, config):
        from repro.engines import make_engine

        cfg = config.with_updates(solver="energy")
        with small_client() as client:
            result = client.run(RunRequest(config=cfg, id="e"))
        solo = make_engine([cfg]).run(config.n_steps).member(0)
        for name in ("kinetic", "total", "mode1"):
            np.testing.assert_array_equal(
                np.asarray(result.series[name]), np.asarray(solo[name])
            )

    def test_error_travels_as_error_result(self, config):
        bad = RunRequest(config=config.with_updates(solver="dl"), id="no-model")
        with small_client(raise_on_error=False) as client:
            result = client.run(bad)
        assert result.status == "error"
        assert "dl_solver" in result.error
        with small_client() as client:
            with pytest.raises(ApiError, match="no-model"):
                client.run(bad)

    def test_model_load_failure_travels_as_error_result(self, config, tmp_path):
        # A service given only model_dir= loads the network on the first
        # dl submit; a missing directory fails that load at submit time.
        lost = RunRequest(config=config.with_updates(solver="dl"), id="lost-model")
        with small_client(
            model_dir=str(tmp_path / "missing"), raise_on_error=False, tracing=True
        ) as client:
            result = client.submit(lost).result()
            assert result.status == "error"
            assert "FileNotFoundError" in result.error
            assert client.service.tracer.buffer.last().to_payload()["complete"] is True
            results = client.map([lost, RunRequest(config=config, id="plain")])
        assert [(r.id, r.status) for r in results] == [
            ("lost-model", "error"), ("plain", "ok"),
        ]
        assert "FileNotFoundError" in results[0].error

    @pytest.mark.parametrize("wait", ["result", "exception"])
    def test_waiting_on_a_synchronous_future_runs_it(self, config, wait):
        # A thread-free service executes only on flush; without one at
        # the wait, this raises TimeoutError.
        with small_client() as client:
            future = client.submit(RunRequest(config=config, id="w"))
            getattr(future, wait)(timeout=5)
            assert future.done() and future.result().status == "ok"

    def test_synchronous_futures_filed_together_run_as_one_group(self, config):
        with small_client() as client:
            first = client.submit(config.with_updates(seed=1))
            second = client.submit(config.with_updates(seed=2))
            assert second.result(timeout=5).status == "ok"
            assert first.done() and first.result().status == "ok"
            assert client.service.batch_size_histogram == {2: 1}

    def test_bare_config_accepted_and_auto_named(self, config):
        with small_client() as client:
            result = client.run(config)
        assert result.id.startswith("run-")

    def test_timings_reported(self, config):
        with small_client() as client:
            result = client.run(config)
        assert result.timings["wall_s"] >= 0.0


class TestRunResultSchema:
    def _result(self, config, **kwargs):
        with small_client() as client:
            return client.run(RunRequest(config=config, id="r", **kwargs))

    def test_to_dict_schema(self, config):
        out = self._result(config).to_dict()
        for key in ("api_version", "id", "status", "solver", "dtype", "key",
                    "cache_hit", "submit_status", "timings", "config", "series"):
            assert key in out
        assert out["status"] == "ok"
        assert sorted(out["series"]) == [
            "kinetic", "mode1", "momentum", "potential", "time", "total",
        ]
        import json

        json.dumps(out)  # the whole schema is JSON-safe

    def test_to_dict_without_arrays(self, config):
        out = self._result(config).to_dict(arrays=False)
        assert "series" not in out and "efield" not in out

    def test_npz_round_trip_exact(self, config, tmp_path):
        result = self._result(config, phase_space=True,
                              observables=["energies", "mode1"])
        path = tmp_path / "result.npz"
        result.save_npz(path)
        back = RunResult.load_npz(path)
        assert back.id == result.id
        assert back.key == result.key
        assert back.status == result.status
        assert back.cache_hit == result.cache_hit
        assert back.config == result.config
        assert back.observables == canonical_observables(["energies", "mode1"])
        assert sorted(back.series) == sorted(result.series)
        for name in result.series:
            np.testing.assert_array_equal(
                np.asarray(back.series[name]), np.asarray(result.series[name])
            )
        np.testing.assert_array_equal(back.efield, result.efield)
        np.testing.assert_array_equal(back.final_x, result.final_x)
        np.testing.assert_array_equal(back.final_v, result.final_v)


class TestTerminalStatuses:
    def test_status_vocabulary(self):
        assert RESULT_STATUSES == ("ok", "error", "shed", "timeout")
        assert FAILURE_STATUSES == ("error", "shed", "timeout")

    def test_unknown_status_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown result status"):
            RunResult(id="x", status="pending")

    def test_failure_statuses_require_a_message(self, config):
        req = RunRequest(config=config, id="x")
        for status in FAILURE_STATUSES:
            with pytest.raises(ValueError, match="error message"):
                RunResult(id="x", status=status)
            result = RunResult.from_failure(req, status, "why it died",
                                            wall_s=0.25)
            assert result.status == status
            assert result.error == "why it died"
            assert result.timings["wall_s"] == 0.25

    def test_raise_for_status_names_the_status(self, config):
        req = RunRequest(config=config, id="victim")
        for status in FAILURE_STATUSES:
            result = RunResult.from_failure(req, status, "overloaded")
            with pytest.raises(ApiError, match=f"status '{status}'") as excinfo:
                result.raise_for_status()
            assert excinfo.value.status == status
            assert excinfo.value.result is result
        ok = RunResult(id="fine", status="ok")
        assert ok.raise_for_status() is ok

    def test_failure_results_round_trip_the_wire(self, config):
        req = RunRequest(config=config, id="x", tags=("batch",))
        for status in FAILURE_STATUSES:
            back = RunResult.from_dict(
                RunResult.from_failure(req, status, "boom").to_dict())
            assert back.status == status
            assert back.error == "boom"
            assert back.config == config
            assert back.tags == ("batch",)


class TestRunResultWireRoundTrip:
    def _served(self, config, **kwargs):
        with small_client() as client:
            return client.run(RunRequest(config=config, id="w", **kwargs))

    def test_json_round_trip_bitwise_exact(self, config):
        import json

        result = self._served(config, phase_space=True)
        back = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.id == result.id
        assert back.key == result.key
        assert back.status == "ok"
        assert back.config == result.config
        for name in result.series:
            a, b = np.asarray(back.series[name]), np.asarray(result.series[name])
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.efield, result.efield)
        np.testing.assert_array_equal(back.final_x, result.final_x)
        np.testing.assert_array_equal(back.final_v, result.final_v)

    def test_float32_dtypes_restored(self, config):
        result = self._served(config.with_updates(dtype="float32"))
        back = RunResult.from_dict(result.to_dict())
        assert np.asarray(back.series["kinetic"]).dtype == np.float32
        np.testing.assert_array_equal(
            np.asarray(back.series["kinetic"]),
            np.asarray(result.series["kinetic"]),
        )

    def test_unknown_result_key_rejected(self):
        with pytest.raises(ValueError, match="unknown result key"):
            RunResult.from_dict(
                {"api_version": "v1", "id": "x", "status": "ok", "extra": 1})

    def test_unknown_status_rejected_at_parse(self):
        with pytest.raises(ValueError, match="unknown result status"):
            RunResult.from_dict(
                {"api_version": "v1", "id": "x", "status": "maybe"})

    def test_unknown_version_rejected_at_parse(self):
        with pytest.raises(ValueError, match="api_version"):
            RunResult.from_dict({"api_version": "v9", "id": "x", "status": "ok"})


class TestFloat32ParityBand:
    """The documented regression gate for the reduced-precision tier.

    Over a short two-stream run the float32 tier must track float64
    inside the parity band (energies to ~1e-5 relative, the growing
    ``mode1`` amplitude to 1e-2 relative) and keep the scheme's
    conservation properties.  Long unstable runs diverge trajectory-wise
    (the instability amplifies round-off exponentially), which is the
    documented trade-off of the tier — not covered by the band.
    """

    STEPS = 40

    @pytest.fixture(scope="class")
    def pair(self):
        base = SimulationConfig(
            n_cells=64, particles_per_cell=100, n_steps=self.STEPS,
            scenario="two_stream", seed=7,
        )
        with Client(background=False) as client:
            r64 = client.run(RunRequest(config=base, id="f64"))
            r32 = client.run(RunRequest(
                config=base.with_updates(dtype="float32"), id="f32"))
        return r64, r32

    def test_energy_series_parity(self, pair):
        r64, r32 = pair
        for name in ("kinetic", "potential", "total"):
            a = np.asarray(r64.series[name], dtype=np.float64)
            b = np.asarray(r32.series[name], dtype=np.float64)
            np.testing.assert_allclose(b, a, rtol=1e-5, atol=1e-8)

    def test_mode1_parity(self, pair):
        r64, r32 = pair
        a = np.asarray(r64.series["mode1"], dtype=np.float64)
        b = np.asarray(r32.series["mode1"], dtype=np.float64)
        np.testing.assert_allclose(b, a, rtol=1e-2, atol=1e-7)

    def test_conservation_survives_the_tier(self, pair):
        _, r32 = pair
        assert r32.energy_variation() < 0.05
        assert abs(r32.momentum_drift()) < 1e-3

    def test_float32_state_is_actually_float32(self, pair):
        _, r32 = pair
        assert np.asarray(r32.efield).dtype == np.float32
