"""Energy-conserving semi-implicit PIC (the paper's reference [4] scheme)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.pic.energy_conserving import EnergyConservingPIC
from repro.pic.simulation import TraditionalPIC


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_cells=32, particles_per_cell=60, n_steps=20, vth=0.01, seed=0)


class TestConstruction:
    def test_initial_field_from_gauss_law(self, config):
        sim = EnergyConservingPIC(config)
        trad = TraditionalPIC(config)
        np.testing.assert_allclose(sim.efield, trad.efield, atol=1e-12)

    def test_invalid_iteration_controls(self, config):
        with pytest.raises(ValueError):
            EnergyConservingPIC(config, max_iterations=0)
        with pytest.raises(ValueError):
            EnergyConservingPIC(config, tolerance=0.0)

    def test_velocities_not_staggered(self, config):
        sim = EnergyConservingPIC(config)
        np.testing.assert_array_equal(sim.v_at_integer_time, sim.particles.v)


class TestConservation:
    def test_total_energy_conserved_to_picard_tolerance(self):
        """The scheme's defining property: exact energy conservation,
        even through the nonlinear phase of the instability."""
        cfg = SimulationConfig(n_cells=32, particles_per_cell=100, vth=0.01, seed=1)
        sim = EnergyConservingPIC(cfg, tolerance=1e-13)
        hist = sim.run(60)
        assert hist.energy_variation() < 1e-10

    def test_energy_conserved_at_larger_time_step(self):
        """dt 2.5x the explicit default still conserves exactly, as long
        as the Picard fixed point converges (it stops contracting once
        particles cross several cells per step — real implicit codes
        switch to Newton-Krylov there)."""
        cfg = SimulationConfig(
            n_cells=32, particles_per_cell=60, dt=0.5, vth=0.01, seed=2
        )
        sim = EnergyConservingPIC(cfg, max_iterations=60, tolerance=1e-13)
        hist = sim.run(30)
        assert hist.energy_variation() < 1e-8
        assert np.all(np.isfinite(hist.as_arrays()["total"]))

    def test_momentum_not_exactly_conserved(self):
        """The mirror image of the explicit scheme's trade-off."""
        cfg = SimulationConfig(n_cells=32, particles_per_cell=100, vth=0.01, seed=3)
        ec = EnergyConservingPIC(cfg).run(60)
        explicit = TraditionalPIC(cfg).run(60)
        assert abs(ec.momentum_drift()) > 10 * abs(explicit.momentum_drift())

    def test_explicit_scheme_is_the_energy_mirror(self):
        """Cross-check: explicit conserves momentum better, EC energy."""
        cfg = SimulationConfig(n_cells=32, particles_per_cell=100, vth=0.01, seed=4)
        ec = EnergyConservingPIC(cfg, tolerance=1e-13).run(60)
        explicit = TraditionalPIC(cfg).run(60)
        assert ec.energy_variation() < 1e-9 < explicit.energy_variation()


class TestPhysics:
    def test_two_stream_growth_rate(self):
        from repro.theory.dispersion import growth_rate_cold
        from repro.theory.growth import fit_growth_rate

        cfg = SimulationConfig(particles_per_cell=150, v0=0.2, vth=0.025, seed=5)
        hist = EnergyConservingPIC(cfg).run(120)
        a = hist.as_arrays()
        fit = fit_growth_rate(a["time"], a["mode1"])
        gamma = growth_rate_cold(2 * np.pi / cfg.box_length, cfg.v0)
        assert fit.relative_error(gamma) < 0.25
        assert fit.r_squared > 0.9

    def test_matches_explicit_in_linear_phase(self):
        """Before nonlinearity both schemes track the same E1 growth."""
        cfg = SimulationConfig(n_cells=64, particles_per_cell=100, vth=0.01, seed=6)
        ec = EnergyConservingPIC(cfg).run(40).as_arrays()
        ex = TraditionalPIC(cfg).run(40).as_arrays()
        # Same order of magnitude throughout the linear phase.
        ratio = ec["mode1"][1:] / ex["mode1"][1:]
        assert np.all(ratio > 0.2)
        assert np.all(ratio < 5.0)


class TestIteration:
    def test_picard_converges_quickly(self, config):
        sim = EnergyConservingPIC(config, tolerance=1e-12)
        sim.step()
        assert 1 <= sim.last_iterations <= 12

    def test_tighter_tolerance_costs_iterations(self, config):
        loose = EnergyConservingPIC(config, tolerance=1e-4)
        tight = EnergyConservingPIC(config, tolerance=1e-14, max_iterations=50)
        loose.step()
        tight.step()
        assert tight.last_iterations >= loose.last_iterations

    def test_run_interface(self, config):
        hist = EnergyConservingPIC(config).run(5)
        assert len(hist) == 6
        with pytest.raises(ValueError):
            EnergyConservingPIC(config).run(-1)

    def test_run_callback_fires_each_step(self, config):
        sim = EnergyConservingPIC(config)
        steps = []
        sim.run(3, callback=lambda s: steps.append((s, s.step_index)))
        assert steps == [(sim, 1), (sim, 2), (sim, 3)]
