"""Traditional PIC orchestrator behavior."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.engines.observables import Observables, resolve_observables
from repro.pic.simulation import (
    ChargeDepositionFieldSolver,
    EnsembleSimulation,
    TraditionalPIC,
)


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_cells=32, particles_per_cell=50, n_steps=10, vth=0.01, seed=0)


class TestInitialization:
    def test_initial_field_consistent_with_particles(self, config):
        sim = TraditionalPIC(config)
        assert sim.efield.shape == (1, config.n_cells)
        assert sim.time == 0.0
        assert sim.step_index == 0

    def test_initial_field_zero_mean(self, config):
        sim = TraditionalPIC(config)
        assert abs(sim.efield.mean()) < 1e-12

    def test_velocities_rewound_half_step(self, config):
        """After init, stored v differs from loaded v by qm*E*dt/2."""
        from repro.pic.interpolation import gather
        from repro.pic.particles import load_two_stream

        sim = TraditionalPIC(config)
        loaded = load_two_stream(config)
        e_at_p = gather(sim.grid, sim.efield[0], loaded.x, order=config.interpolation)
        expected = loaded.v - 0.5 * config.qm * e_at_p * config.dt
        np.testing.assert_allclose(sim.particles.v[0], expected, atol=1e-14)

    def test_v_at_integer_time_equals_loaded_velocities(self, config):
        from repro.pic.particles import load_two_stream

        sim = TraditionalPIC(config)
        loaded = load_two_stream(config)
        np.testing.assert_allclose(sim.v_at_integer_time[0], loaded.v, atol=1e-14)


class TestStepping:
    def test_step_advances_time(self, config):
        sim = TraditionalPIC(config)
        sim.step()
        assert sim.step_index == 1
        assert sim.time == pytest.approx(config.dt)

    def test_run_records_initial_state_plus_steps(self, config):
        sim = TraditionalPIC(config)
        hist = sim.run(5)
        assert len(hist) == 6
        assert hist["time"][0] == 0.0
        assert hist["time"][-1] == pytest.approx(5 * config.dt)

    def test_run_zero_steps(self, config):
        hist = TraditionalPIC(config).run(0)
        assert len(hist) == 1

    def test_run_negative_steps_rejected(self, config):
        with pytest.raises(ValueError):
            TraditionalPIC(config).run(-1)

    def test_run_uses_config_n_steps_by_default(self, config):
        hist = TraditionalPIC(config).run()
        assert len(hist) == config.n_steps + 1

    def test_callback_fires_each_step(self, config):
        sim = TraditionalPIC(config)
        calls = []
        sim.run(4, callback=lambda s: calls.append(s.step_index))
        assert calls == [1, 2, 3, 4]

    def test_positions_stay_in_box(self, config):
        sim = TraditionalPIC(config)
        sim.run(10)
        assert np.all(sim.particles.x >= 0)
        assert np.all(sim.particles.x < config.box_length)

    def test_custom_history_object_used(self, config):
        sim = TraditionalPIC(config)
        hist = Observables(resolve_observables(["energies", "mode1", "fields"]), squeeze=True)
        out = sim.run(3, history=hist)
        assert out is hist
        assert hist.as_arrays()["fields"].shape == (4, config.n_cells)


class TestConservation:
    def test_momentum_conserved_to_roundoff_with_cic(self):
        cfg = SimulationConfig(
            n_cells=32, particles_per_cell=100, n_steps=20, vth=0.01,
            interpolation="cic", seed=1,
        )
        hist = TraditionalPIC(cfg).run(20)
        mom = np.asarray(hist["momentum"])
        assert np.max(np.abs(mom - mom[0])) < 1e-12

    def test_energy_bounded_during_instability(self):
        cfg = SimulationConfig(n_cells=32, particles_per_cell=100, vth=0.01, seed=2)
        hist = TraditionalPIC(cfg).run(60)
        assert hist.energy_variation() < 0.05

    def test_charge_density_zero_mean_every_step(self, config):
        sim = TraditionalPIC(config)
        for _ in range(5):
            sim.step()
            assert abs(sim.field_solver.last_rho.mean()) < 1e-12

    def test_initial_kinetic_energy_matches_theory(self):
        cfg = SimulationConfig(n_cells=64, particles_per_cell=300, v0=0.2, vth=0.025, seed=3)
        hist = TraditionalPIC(cfg).run(0)
        expected = 0.5 * cfg.box_length * (cfg.v0**2 + cfg.vth**2)
        assert hist["kinetic"][0] == pytest.approx(expected, rel=0.02)


class TestAccessors:
    def test_charge_density_and_potential_exposed(self, config):
        solver = TraditionalPIC(config).field_solver
        assert solver.last_rho.shape == (1, config.n_cells)
        assert solver.last_phi.shape == (1, config.n_cells)
        assert abs(solver.last_phi.mean()) < 1e-10


class TestPluggableFieldSolver:
    def test_custom_solver_drives_cycle(self, config):
        class ZeroField:
            def field(self, x, v):
                return np.zeros((x.shape[0], config.n_cells))

        sim = EnsembleSimulation(config, field_solver=ZeroField())
        v_before = sim.particles.v.copy()
        sim.step()
        # With E = 0 velocities never change; positions free-stream.
        np.testing.assert_array_equal(sim.particles.v, v_before)

    def test_charge_deposition_solver_matches_manual_pipeline(self, config):
        from repro.pic.grid import Grid1D
        from repro.pic.interpolation import charge_density
        from repro.pic.poisson import PoissonSolver

        grid = Grid1D(config.n_cells, config.box_length)
        solver = ChargeDepositionFieldSolver(
            grid, particle_charge=config.particle_charge, interpolation="cic",
            poisson_method="spectral", gradient="central",
        )
        rng = np.random.default_rng(0)
        x = rng.uniform(0, config.box_length, 500)
        e = solver.field(x, np.zeros_like(x))
        rho = charge_density(grid, x, config.particle_charge, order="cic")
        _, e_manual = PoissonSolver(grid).solve(rho)
        np.testing.assert_allclose(e, e_manual, atol=1e-14)
        np.testing.assert_allclose(solver.last_rho, rho, atol=1e-14)


class TestSolverVariants:
    @pytest.mark.parametrize("poisson", ["spectral", "fd", "direct"])
    def test_all_poisson_solvers_run_stably(self, poisson):
        cfg = SimulationConfig(
            n_cells=32, particles_per_cell=60, n_steps=10, vth=0.01,
            poisson_solver=poisson, seed=4,
        )
        hist = TraditionalPIC(cfg).run(10)
        assert np.all(np.isfinite(hist.as_arrays()["total"]))

    @pytest.mark.parametrize("interp", ["ngp", "cic", "tsc"])
    def test_all_interpolations_run_stably(self, interp):
        cfg = SimulationConfig(
            n_cells=32, particles_per_cell=60, n_steps=10, vth=0.01,
            interpolation=interp, seed=5,
        )
        hist = TraditionalPIC(cfg).run(10)
        assert np.all(np.isfinite(hist.as_arrays()["total"]))

    def test_spectral_gradient_variant(self):
        cfg = SimulationConfig(
            n_cells=32, particles_per_cell=60, n_steps=5, vth=0.01,
            gradient="spectral", seed=6,
        )
        hist = TraditionalPIC(cfg).run(5)
        assert np.all(np.isfinite(hist.as_arrays()["total"]))
