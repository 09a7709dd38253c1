"""Scenario registry: coverage, neutrality, config round-trips, bitwise parity."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.pic.grid import Grid1D
from repro.pic.interpolation import charge_density
from repro.pic.particles import load_two_stream
from repro.pic.scenarios import (
    available_scenarios,
    get_scenario,
    load_ensemble,
    load_scenario,
    register_scenario,
)
from repro.pic.simulation import EnsembleSimulation, TraditionalPIC

BUILTIN = ("bump_on_tail", "cold_beam", "landau_damping", "random_perturbation", "two_stream")


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_cells=32, particles_per_cell=40, n_steps=10, vth=0.02, seed=5)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN) <= set(available_scenarios())

    def test_available_is_sorted(self):
        assert list(available_scenarios()) == sorted(available_scenarios())

    def test_unknown_scenario_rejected_with_listing(self):
        with pytest.raises(ValueError, match="unknown scenario.*available"):
            get_scenario("does_not_exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("two_stream")(lambda config, rng: None)

    def test_custom_scenario_roundtrip(self, config):
        name = "test_only_scenario"
        if name not in available_scenarios():

            @register_scenario(name)
            def _factory(cfg, rng):
                return load_two_stream(cfg, rng)

        cfg = config.with_updates(scenario=name)
        particles = load_scenario(cfg)
        assert len(particles) == cfg.n_particles


class TestEveryScenario:
    @pytest.mark.parametrize("name", BUILTIN)
    def test_charge_neutral_initial_conditions(self, config, name):
        cfg = config.with_updates(scenario=name)
        particles = load_scenario(cfg)
        grid = Grid1D(cfg.n_cells, cfg.box_length)
        rho = charge_density(grid, particles.x, cfg.particle_charge, order="cic")
        assert abs(rho.mean()) < 1e-12

    @pytest.mark.parametrize("name", BUILTIN)
    def test_shapes_and_domain(self, config, name):
        cfg = config.with_updates(scenario=name)
        particles = load_scenario(cfg)
        assert particles.x.shape == particles.v.shape == (cfg.n_particles,)
        assert np.all(particles.x >= 0) and np.all(particles.x < cfg.box_length)
        assert np.all(np.isfinite(particles.v))

    @pytest.mark.parametrize("name", BUILTIN)
    def test_roundtrips_through_config(self, config, name):
        cfg = config.with_updates(scenario=name)
        assert cfg.scenario == name
        assert cfg.with_updates(v0=0.3).scenario == name  # survives replace
        a = load_scenario(cfg)
        b = load_scenario(cfg)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.v, b.v)

    @pytest.mark.parametrize("name", BUILTIN)
    def test_simulation_runs_stably(self, config, name):
        cfg = config.with_updates(scenario=name)
        hist = TraditionalPIC(cfg).run(5)
        assert np.all(np.isfinite(hist.as_arrays()["total"]))

    @pytest.mark.parametrize("name", BUILTIN)
    def test_seed_changes_the_load(self, config, name):
        cfg = config.with_updates(scenario=name, loading="random")
        a = load_scenario(cfg)
        b = load_scenario(cfg.with_updates(seed=cfg.seed + 1))
        assert not np.array_equal(a.x, b.x)


class TestScenarioPhysics:
    def test_two_stream_matches_legacy_loader_bitwise(self, config):
        a = load_scenario(config)
        b = load_two_stream(config)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.v, b.v)

    def test_cold_beam_single_drift(self, config):
        cfg = config.with_updates(scenario="cold_beam", vth=0.0)
        particles = load_scenario(cfg)
        np.testing.assert_allclose(particles.v, cfg.v0)

    def test_landau_damping_rest_frame(self, config):
        cfg = config.with_updates(scenario="landau_damping")
        particles = load_scenario(cfg)
        assert abs(particles.v.mean()) < 5 * cfg.vth / np.sqrt(cfg.n_particles) + 1e-3

    def test_bump_on_tail_has_fast_minority(self, config):
        cfg = config.with_updates(scenario="bump_on_tail", v0=0.4, vth=0.02)
        particles = load_scenario(cfg)
        fast = np.sum(particles.v > 0.5 * cfg.v0)
        assert 0 < fast < 0.2 * cfg.n_particles

    def test_bump_fraction_from_extra(self, config):
        cfg = config.with_updates(
            scenario="bump_on_tail", v0=0.4, vth=0.0, extra={"bump_fraction": 0.25}
        )
        particles = load_scenario(cfg)
        assert np.sum(particles.v == cfg.v0) == round(0.25 * cfg.n_particles)

    def test_invalid_bump_fraction_rejected(self, config):
        cfg = config.with_updates(scenario="bump_on_tail", extra={"bump_fraction": 1.5})
        with pytest.raises(ValueError, match="bump_fraction"):
            load_scenario(cfg)


class TestLoadEnsemble:
    def test_stacks_rows_bitwise(self, config):
        configs = [config.with_updates(seed=s) for s in (1, 2, 3)]
        stacked = load_ensemble(configs)
        assert stacked.batch == 3
        for b, cfg in enumerate(configs):
            single = load_scenario(cfg)
            np.testing.assert_array_equal(stacked.x[b], single.x)
            np.testing.assert_array_equal(stacked.v[b], single.v)

    def test_mixed_scenarios_allowed(self, config):
        configs = [config.with_updates(scenario=name) for name in ("two_stream", "cold_beam")]
        stacked = load_ensemble(configs)
        assert stacked.batch == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            load_ensemble([])

    def test_rng_count_mismatch_rejected(self, config):
        with pytest.raises(ValueError, match="rngs"):
            load_ensemble([config], rngs=[0, 1])


class TestConfigValidation:
    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            SimulationConfig(scenario="")

    def test_unknown_scenario_fails_at_load_not_construction(self):
        cfg = SimulationConfig(scenario="not_registered_yet")
        with pytest.raises(ValueError, match="unknown scenario"):
            load_scenario(cfg)


class TestBatchOneBitwise:
    def test_ensemble_batch1_matches_traditional_bitwise(self, config):
        """The acceptance bar: batch=1 reproduces TraditionalPIC exactly."""
        single = TraditionalPIC(config)
        hist_single = single.run(10)
        ens = EnsembleSimulation.from_config(config, batch=1)
        hist_ens = ens.run(10)
        a, b = hist_single.as_arrays(), hist_ens.as_arrays()
        for key in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
            col = b[key][:, 0] if b[key].ndim == 2 else b[key]
            np.testing.assert_array_equal(a[key], col)
        np.testing.assert_array_equal(single.particles.x, ens.particles.x)
        np.testing.assert_array_equal(single.particles.v, ens.particles.v)
        np.testing.assert_array_equal(single.efield, ens.efield)
