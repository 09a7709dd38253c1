"""The unified engine layer: registry, observables pipeline, Vlasov ensemble."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.engines import (
    Observables,
    available_engines,
    engine_group_key,
    get_engine_spec,
    make_engine,
    resolve_observables,
    validate_engine_config,
)
from repro.engines.observables import (
    FieldSnapshot,
    ModeAmplitude,
    ParticleEnergyMomentum,
    PhaseSpaceSnapshot,
    TrainingHistograms,
    VlasovEnergyMomentum,
    mode_amplitude,
    mode_amplitude_rows,
)
from repro.pic.scenarios import available_distributions, available_scenarios
from repro.pic.simulation import TraditionalPIC

VLASOV_EXTRA = {"n_v": 48, "v_min": -0.5, "v_max": 0.5}


@pytest.fixture
def config():
    return SimulationConfig(n_cells=16, particles_per_cell=10, n_steps=4, vth=0.02)


def _vlasov_config(**overrides) -> SimulationConfig:
    defaults = dict(n_cells=32, n_steps=6, vth=0.03, v0=0.2, solver="vlasov",
                    extra=dict(VLASOV_EXTRA))
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestRegistry:
    def test_builtin_families_registered(self):
        assert set(available_engines()) >= {"traditional", "dl", "vlasov"}

    def test_unknown_solver_rejected(self, config):
        with pytest.raises(ValueError, match="unknown solver"):
            make_engine(config.with_updates(solver="quantum"))

    def test_mixed_families_rejected(self, config):
        with pytest.raises(ValueError, match="one family"):
            make_engine([config, _vlasov_config()])

    def test_dl_family_needs_a_solver(self, config):
        with pytest.raises(ValueError, match="DLFieldSolver"):
            make_engine(config.with_updates(solver="dl"))

    def test_group_keys_separate_families(self, config):
        trad = engine_group_key(config)
        assert engine_group_key(config.with_updates(solver="dl")) != trad
        assert engine_group_key(_vlasov_config()) != trad

    def test_vlasov_group_key_includes_velocity_grid(self):
        base = engine_group_key(_vlasov_config())
        assert engine_group_key(_vlasov_config(extra={"n_v": 64})) != base
        assert engine_group_key(
            _vlasov_config(extra={**VLASOV_EXTRA, "v_max": 0.6})
        ) != base
        # particle-only knobs are structurally irrelevant to Vlasov
        assert engine_group_key(_vlasov_config(particles_per_cell=77)) == base
        assert engine_group_key(_vlasov_config(interpolation="ngp")) == base

    def test_validate_rejects_cold_vlasov(self):
        with pytest.raises(ValueError, match="vth > 0"):
            validate_engine_config(_vlasov_config(vth=0.0))

    def test_validate_rejects_unknown_scenario(self, config):
        with pytest.raises(ValueError, match="unknown scenario"):
            validate_engine_config(config.with_updates(scenario="nope"))


def _contract_config(family: str) -> SimulationConfig:
    """A small float64 numpy run of ``family`` (n_cells fits the tiny DL solver)."""
    if family == "vlasov":
        return _vlasov_config(n_steps=3)
    return SimulationConfig(
        n_cells=32, particles_per_cell=20, n_steps=3, vth=0.01, solver=family
    )


@pytest.fixture(params=available_engines())
def family(request) -> str:
    return request.param


@pytest.fixture
def dl_solver(family, request):
    return request.getfixturevalue("tiny_trained_solver") if family == "dl" else None


class TestEngineContract:
    """What every registered family inherits from ``Engine``."""

    def test_run_records_the_initial_state_and_every_step(self, family, dl_solver):
        engine = make_engine([_contract_config(family)], dl_solver=dl_solver)
        assert len(engine.run(3)) == 4
        with pytest.raises(ValueError, match="non-negative"):
            engine.run(-1)

    def test_default_n_steps_needs_members_to_agree(self, family, dl_solver):
        cfg = _contract_config(family)
        other = cfg.with_updates(n_steps=cfg.n_steps + 1, seed=1)
        engine = make_engine([cfg, other], dl_solver=dl_solver)
        with pytest.raises(ValueError, match="disagree on config.n_steps"):
            engine.run()
        assert len(engine.run(2)) == 3  # explicit n_steps is always fine

    def test_callback_fires_each_step_with_the_engine(self, family, dl_solver):
        engine = make_engine([_contract_config(family)], dl_solver=dl_solver)
        seen = []
        engine.run(3, callback=seen.append)
        assert len(seen) == 3
        assert all(arg is engine for arg in seen)

    def test_run_appends_to_a_given_history(self, family, dl_solver):
        engine = make_engine([_contract_config(family)], dl_solver=dl_solver)
        hist = engine.run(2)
        assert engine.run(3, history=hist) is hist
        assert len(hist) == 3 + 4

    def test_empty_batch_rejected(self, family, dl_solver):
        with pytest.raises(ValueError, match="needs at least one configuration"):
            get_engine_spec(family).build((), dl_solver=dl_solver, rngs=None)

    def test_structural_mismatch_names_the_field(self, family, dl_solver):
        cfg = _contract_config(family)
        with pytest.raises(ValueError, match="member 1 .* structural field 'dt'"):
            make_engine([cfg, cfg.with_updates(dt=cfg.dt / 2)], dl_solver=dl_solver)
        if family == "vlasov":  # grid knobs from extra are named too
            wider = cfg.with_updates(extra={**cfg.extra, "n_v": 64})
            with pytest.raises(ValueError, match="structural field 'n_v'"):
                make_engine([cfg, wider])


class TestRegistryExtensibility:
    """A user-registered family is addressable everywhere at once."""

    @pytest.fixture
    def custom_family(self, monkeypatch, config):
        import repro.engines.base as base

        def build(configs, dl_solver=None, rngs=None):
            from repro.pic.simulation import EnsembleSimulation

            return EnsembleSimulation(configs, rngs=rngs)

        spec = base.EngineSpec(
            name="custom-test-family",
            build=build,
            structural_key=base._pic_structural_key,
            validate=base._pic_validate,
        )
        monkeypatch.setitem(base._ENGINES, spec.name, spec)
        return config.with_updates(solver=spec.name)

    def test_custom_family_gets_store_keys(self, custom_family):
        from repro.service.store import result_key

        key = result_key(custom_family, custom_family.solver)
        assert key.startswith("custom-test-family-")

    def test_custom_family_parses_from_jsonl(self, custom_family):
        from repro.service import parse_request

        req = parse_request(
            {"api_version": "v1", "config": custom_family.to_dict()}
        )
        assert req.solver == "custom-test-family"

    def test_custom_family_served(self, custom_family):
        from repro.service import SimulationService

        with SimulationService(start=False) as service:
            future = service.submit(custom_family)
            service.flush()
            assert future.result(timeout=0).solver == "custom-test-family"


class TestCrossEngineParity:
    """make_engine(traditional) at batch 1 is bitwise the legacy run."""

    @pytest.mark.parametrize("scenario", sorted(available_scenarios()))
    def test_traditional_engine_matches_legacy_pic(self, scenario):
        cfg = SimulationConfig(
            n_cells=16, particles_per_cell=12, n_steps=5, vth=0.02, v0=0.25,
            scenario=scenario, seed=3,
        )
        engine = make_engine(cfg)
        series = engine.run(5).as_arrays()
        legacy = TraditionalPIC(cfg).run(5).as_arrays()
        for name in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
            want = legacy[name] if name == "time" else legacy[name]
            got = series[name] if name == "time" else series[name][:, 0]
            np.testing.assert_array_equal(got, want, err_msg=f"{scenario}:{name}")

    @pytest.mark.parametrize("scenario", sorted(available_distributions()))
    def test_vlasov_rows_match_solo_runs(self, scenario):
        cfgs = [
            _vlasov_config(scenario=scenario, seed=s, vth=0.03 + 0.01 * s, n_steps=6)
            for s in range(3)
        ]
        engine = make_engine(cfgs)
        series = engine.run(6).as_arrays()
        for b, cfg in enumerate(cfgs):
            solo = make_engine([cfg])
            solo_series = solo.run(6).as_arrays()
            np.testing.assert_array_equal(engine.f[b], solo.f[0])
            np.testing.assert_array_equal(engine.efield[b], solo.efield[0])
            np.testing.assert_array_equal(series["time"], solo_series["time"])
            for name in ("kinetic", "potential", "total", "momentum", "mode1"):
                np.testing.assert_array_equal(
                    series[name][:, b], solo_series[name][:, 0],
                    err_msg=f"{scenario}:{name} row {b}",
                )

    def test_mixed_scenario_vlasov_batch(self):
        cfgs = [
            _vlasov_config(scenario=name, n_steps=4)
            for name in sorted(available_distributions())
        ]
        engine = make_engine(cfgs)
        series = engine.run(4).as_arrays()
        assert series["mode1"].shape == (5, len(cfgs))
        assert np.all(np.isfinite(series["total"]))


class TestSharedSchema:
    """All three engine families emit the same as_arrays() contract."""

    def _schema(self, obs):
        series = obs.as_arrays()
        return {name: values.shape for name, values in series.items()}

    def test_schema_locked_across_families(self, config, tmp_path):
        from repro.dlpic import DLFieldSolver
        from repro.models.architectures import build_mlp
        from repro.phasespace.binning import PhaseSpaceGrid
        from repro.phasespace.normalization import MinMaxNormalizer

        grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
        model = build_mlp(input_size=grid.size, output_size=config.n_cells,
                          hidden_size=8, rng=0)
        dl = DLFieldSolver(
            model, grid, MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 50.0})
        )
        engines = [
            make_engine([config, config.with_updates(seed=1)]),
            make_engine(
                [config.with_updates(solver="dl"),
                 config.with_updates(solver="dl", seed=1)],
                dl_solver=dl,
            ),
            make_engine(
                [_vlasov_config(n_cells=config.n_cells, n_steps=config.n_steps),
                 _vlasov_config(n_cells=config.n_cells, n_steps=config.n_steps, vth=0.05)]
            ),
        ]
        schemas = [self._schema(engine.run(config.n_steps)) for engine in engines]
        expected = {
            "time": (config.n_steps + 1,),
            **{name: (config.n_steps + 1, 2)
               for name in ("kinetic", "potential", "total", "momentum", "mode1")},
        }
        for schema in schemas:
            assert schema == expected

    def test_vlasov_solo_run_uses_shared_contract(self):
        """A batch-1 Vlasov run records into a squeezed single-run recorder."""
        solo = make_engine(_vlasov_config())
        result = solo.run(
            3, history=Observables(resolve_observables(None, "vlasov"), squeeze=True)
        )
        assert isinstance(result, Observables)
        series = result.as_arrays()
        assert sorted(series) == sorted(
            ("time", "kinetic", "potential", "total", "momentum", "mode1")
        )
        for values in series.values():
            assert isinstance(values, np.ndarray)
            assert values.shape == (4,)
        # dict-style indexing still works for existing callers
        np.testing.assert_array_equal(result["mode1"], series["mode1"])


class TestModeAmplitudeRows:
    """The vectorized rows keep the documented scalar-abs bitwise guarantee."""

    @staticmethod
    def _legacy_loop(e, mode=1):
        """The historical per-row Python list comprehension."""
        e = np.atleast_2d(np.asarray(e, dtype=np.float64))
        n = e.shape[-1]
        coeff = np.fft.rfft(e, axis=-1)[..., mode]
        if mode == 0 or (n % 2 == 0 and mode == n // 2):
            return np.array([float(abs(c)) / n for c in coeff])
        return np.array([float(2.0 * abs(c) / n) for c in coeff])

    @pytest.mark.parametrize("mode", [0, 1, 3, 8])
    def test_matches_legacy_loop_bitwise(self, mode):
        rng = np.random.default_rng(42)
        e = rng.normal(size=(32, 16))
        np.testing.assert_array_equal(
            mode_amplitude_rows(e, mode=mode), self._legacy_loop(e, mode=mode)
        )

    def test_matches_scalar_per_row(self):
        rng = np.random.default_rng(7)
        e = rng.normal(size=(8, 24))
        rows = mode_amplitude_rows(e, mode=2)
        for b in range(8):
            assert rows[b] == mode_amplitude(e[b], mode=2)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            mode_amplitude_rows(np.zeros((2, 8)), mode=5)


class TestObservablesPipeline:
    def test_reserve_prevents_growth(self, config):
        engine = make_engine(config)
        obs = engine.observables()
        obs.reserve(config.n_steps + 1)
        capacity = obs._capacity if obs.batch is not None else None
        engine.run(config.n_steps, history=obs)
        assert len(obs) == config.n_steps + 1
        assert capacity is None  # allocated lazily at first record

    def test_incremental_recording_grows(self):
        from repro.pic.grid import Grid1D
        from repro.pic.particles import ParticleSet

        grid = Grid1D(8, 2 * np.pi)
        ps = ParticleSet(np.zeros(4), np.full(4, 0.1), charge=-1.0, mass=1.0)
        obs = Observables(resolve_observables(None), squeeze=True)
        for i in range(200):  # overflow the default capacity
            obs.record_frame(SimpleNamespace(
                step_index=i, time=0.1 * i, grid=grid, efield=np.zeros(8),
                particles=ps, v_at_integer_time=ps.v,
            ))
        assert len(obs) == 200
        assert obs["kinetic"].shape == (200,)

    def test_duplicate_series_rejected(self):
        from repro.engines.observables import ModeAmplitude

        with pytest.raises(ValueError, match="duplicate"):
            Observables([ModeAmplitude(mode=1), ModeAmplitude(mode=1)])

    def test_single_series_observable_may_return_one_tuple(self):
        class OneTuple:
            names = ("one",)

            def measure(self, engine):
                return (np.asarray([engine.time]),)

        obs = Observables([OneTuple()], squeeze=True)
        for i in range(3):  # first record allocates, later ones hit the fast path
            obs.record_frame(SimpleNamespace(step_index=i, time=0.5 * i))
        np.testing.assert_array_equal(obs["one"], [0.0, 0.5, 1.0])

    def test_unknown_series_keyerror(self, config):
        hist = make_engine(config).run(2)
        with pytest.raises(KeyError, match="unknown series"):
            hist["does_not_exist"]

    def test_squeezed_recorder_rejects_batches(self, config):
        engine = make_engine([config, config.with_updates(seed=1)])
        with pytest.raises(ValueError, match="batch"):
            engine.run(1, history=Observables(resolve_observables(None), squeeze=True))


# The class each selectable observable builds for each engine-state
# kind; None marks a kind the observable cannot measure.
OBSERVABLE_KINDS = {
    "energies": {"pic": ParticleEnergyMomentum, "vlasov": VlasovEnergyMomentum},
    "mode3": {"pic": ModeAmplitude, "vlasov": ModeAmplitude},
    "fields": {"pic": FieldSnapshot, "vlasov": FieldSnapshot},
    "phase_space": {"pic": None, "vlasov": PhaseSpaceSnapshot},
    "training_pairs": {"pic": TrainingHistograms, "vlasov": None},
}


class TestObservableSelection:
    """One name x kind matrix over ``resolve_observables``."""

    @pytest.mark.parametrize("kind", ["pic", "vlasov"])
    @pytest.mark.parametrize("name", sorted(OBSERVABLE_KINDS))
    def test_name_by_kind(self, name, kind):
        want = OBSERVABLE_KINDS[name][kind]
        if want is None:
            with pytest.raises(ValueError) as exc:
                resolve_observables([name], kind)
            assert repr(name) in str(exc.value) and repr(kind) in str(exc.value)
            return
        (built,) = resolve_observables([name], kind)
        assert type(built) is want
        if name == "mode3":
            assert built.names == ("mode3",)

    def test_unknown_name_lists_all_five(self):
        with pytest.raises(ValueError, match="unknown observable 'wavelets'") as exc:
            resolve_observables(["wavelets"])
        assert "available: energies, fields, mode, phase_space, training_pairs" in str(
            exc.value
        )


class TestRetiredShims:
    """History/EnsembleHistory are gone; Observables replaces both."""

    def test_history_import_raises_helpfully(self):
        with pytest.raises(ImportError, match="History"):
            from repro.pic.diagnostics import History  # noqa: F401

    def test_ensemble_history_import_raises_helpfully(self):
        with pytest.raises(ImportError, match="EnsembleHistory"):
            from repro.pic.diagnostics import EnsembleHistory  # noqa: F401

    def test_single_run_recorder_replacement(self, config):
        sim = TraditionalPIC(config)
        hist = Observables(resolve_observables(["energies", "mode1", "fields"]), squeeze=True)
        sim.run(4, history=hist)
        assert len(hist) == 5
        assert hist["kinetic"].shape == (5,)
        assert hist.as_arrays()["fields"].shape == (5, config.n_cells)
        assert isinstance(hist.energy_variation(), float)
        assert isinstance(hist.momentum_drift(), float)

    def test_batched_recorder_replacement(self, config):
        engine = make_engine([config, config.with_updates(seed=1)])
        hist = Observables(resolve_observables(["energies", "mode1", "fields"]))
        engine.run(3, history=hist)
        arrays = hist.as_arrays()
        assert arrays["kinetic"].shape == (4, 2)
        assert arrays["fields"].shape == (4, 2, config.n_cells)
        member = hist.member(1)
        np.testing.assert_array_equal(member["total"], arrays["total"][:, 1])
        assert hist.energy_variation().shape == (2,)

    def test_history_series_match_legacy_layout(self, config):
        """A squeezed single-run record equals the engine's batched record."""
        hist = Observables(resolve_observables(None), squeeze=True)
        TraditionalPIC(config).run(4, history=hist)
        series = make_engine(config).run(4).as_arrays()
        for name in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
            got = hist.as_arrays()[name]
            want = series[name] if name == "time" else series[name][:, 0]
            np.testing.assert_array_equal(got, want)
