"""Energy-conserving semi-implicit PIC (the paper's reference [4] scheme)."""

import numpy as np
import pytest

from repro.api import Client
from repro.config import SimulationConfig
from repro.engines import make_engine, validate_engine_config
from repro.engines.base import energy_picard_params
from repro.pic.energy_conserving import EnergyConservingEnsemble
from repro.pic.simulation import TraditionalPIC


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_cells=32, particles_per_cell=60, n_steps=20, vth=0.01, seed=0)


def _picard(config: SimulationConfig, **knobs) -> SimulationConfig:
    """An ``energy`` config with Picard knobs (``max_iterations``, ``tolerance``)."""
    return config.with_updates(
        solver="energy", extra={f"picard_{name}": value for name, value in knobs.items()}
    )


def _solo(config: SimulationConfig, **knobs) -> EnergyConservingEnsemble:
    """A batch-of-one energy-conserving engine."""
    return EnergyConservingEnsemble(_picard(config, **knobs))


class TestConstruction:
    def test_initial_field_from_gauss_law(self, config):
        sim = _solo(config)
        trad = TraditionalPIC(config)
        np.testing.assert_allclose(sim.efield, trad.efield, atol=1e-12)

    def test_invalid_iteration_controls(self, config):
        with pytest.raises(ValueError, match="picard_max_iterations"):
            _solo(config, max_iterations=0)
        with pytest.raises(ValueError, match="picard_tolerance"):
            _solo(config, tolerance=0.0)

    def test_velocities_not_staggered(self, config):
        sim = _solo(config)
        np.testing.assert_array_equal(sim.v_at_integer_time, sim.particles.v)


class TestPicardKnobs:
    def test_defaults(self, config):
        assert energy_picard_params(config) == (12, 1e-12)
        assert energy_picard_params(_picard(config, max_iterations=3, tolerance=1e-6)) == (
            3, 1e-6
        )

    @pytest.mark.parametrize("knob, bad", [
        ("max_iterations", "abc"),
        ("max_iterations", 2.5),
        ("max_iterations", True),
        ("max_iterations", 0),
        ("max_iterations", None),
        ("tolerance", "1e-4"),
        ("tolerance", float("nan")),
        ("tolerance", float("inf")),
        ("tolerance", 0.0),
        ("tolerance", -1e-6),
        ("tolerance", False),
    ])
    def test_malformed_knob_rejected_at_validation(self, config, knob, bad):
        with pytest.raises(ValueError, match=f"picard_{knob}"):
            validate_engine_config(_picard(config, **{knob: bad}))

    def test_valid_request_beside_a_rejected_one_completes(self, config):
        with Client(background=False) as client:
            valid = client.submit(_picard(config, max_iterations=4))
            with pytest.raises(ValueError, match="picard_max_iterations"):
                client.submit(_picard(config.with_updates(seed=1), max_iterations="abc"))
            client.flush()
            assert valid.result().ok


class TestConservation:
    def test_total_energy_conserved_to_picard_tolerance(self):
        """The scheme's defining property: exact energy conservation,
        even through the nonlinear phase of the instability."""
        cfg = SimulationConfig(n_cells=32, particles_per_cell=100, vth=0.01, seed=1)
        hist = _solo(cfg, tolerance=1e-13).run(60)
        assert hist.energy_variation()[0] < 1e-10

    def test_energy_conserved_at_larger_time_step(self):
        """dt 2.5x the explicit default still conserves exactly, as long
        as the Picard fixed point converges (it stops contracting once
        particles cross several cells per step — real implicit codes
        switch to Newton-Krylov there)."""
        cfg = SimulationConfig(
            n_cells=32, particles_per_cell=60, dt=0.5, vth=0.01, seed=2
        )
        hist = _solo(cfg, max_iterations=60, tolerance=1e-13).run(30)
        assert hist.energy_variation()[0] < 1e-8
        assert np.all(np.isfinite(hist.as_arrays()["total"]))

    def test_momentum_not_exactly_conserved(self):
        """The mirror image of the explicit scheme's trade-off."""
        cfg = SimulationConfig(n_cells=32, particles_per_cell=100, vth=0.01, seed=3)
        ec = _solo(cfg).run(60)
        explicit = TraditionalPIC(cfg).run(60)
        assert abs(ec.momentum_drift()[0]) > 10 * abs(explicit.momentum_drift())

    def test_explicit_scheme_is_the_energy_mirror(self):
        """Cross-check: explicit conserves momentum better, EC energy."""
        cfg = SimulationConfig(n_cells=32, particles_per_cell=100, vth=0.01, seed=4)
        ec = _solo(cfg, tolerance=1e-13).run(60)
        explicit = TraditionalPIC(cfg).run(60)
        assert ec.energy_variation()[0] < 1e-9 < explicit.energy_variation()


class TestPhysics:
    def test_two_stream_growth_rate(self):
        from repro.theory.dispersion import growth_rate_cold
        from repro.theory.growth import fit_growth_rate

        cfg = SimulationConfig(particles_per_cell=150, v0=0.2, vth=0.025, seed=5)
        a = _solo(cfg).run(120).member(0)
        fit = fit_growth_rate(a["time"], a["mode1"])
        gamma = growth_rate_cold(2 * np.pi / cfg.box_length, cfg.v0)
        assert fit.relative_error(gamma) < 0.25
        assert fit.r_squared > 0.9

    def test_matches_explicit_in_linear_phase(self):
        """Before nonlinearity both schemes track the same E1 growth."""
        cfg = SimulationConfig(n_cells=64, particles_per_cell=100, vth=0.01, seed=6)
        ec = _solo(cfg).run(40).member(0)
        ex = TraditionalPIC(cfg).run(40).as_arrays()
        # Same order of magnitude throughout the linear phase.
        ratio = ec["mode1"][1:] / ex["mode1"][1:]
        assert np.all(ratio > 0.2)
        assert np.all(ratio < 5.0)


class TestIteration:
    def test_picard_converges_quickly(self, config):
        sim = _solo(config, tolerance=1e-12)
        sim.step()
        assert 1 <= sim.last_iterations[0] <= 12

    def test_tighter_tolerance_costs_iterations(self, config):
        loose = _solo(config, tolerance=1e-4)
        tight = _solo(config, tolerance=1e-14, max_iterations=50)
        loose.step()
        tight.step()
        assert tight.last_iterations[0] >= loose.last_iterations[0]

    def test_run_interface(self, config):
        hist = _solo(config).run(5)
        assert len(hist) == 6
        with pytest.raises(ValueError):
            _solo(config).run(-1)

    def test_run_callback_fires_each_step(self, config):
        sim = _solo(config)
        steps = []
        sim.run(3, callback=lambda s: steps.append((s, s.step_index)))
        assert steps == [(sim, 1), (sim, 2), (sim, 3)]


class TestBatchParity:
    """Rows stop iterating on their own convergence: each row of a batch
    equals its batch of one bitwise, step by step."""

    KNOBS = (
        {"tolerance": 1e-4},
        {"max_iterations": 2},
        {"tolerance": 1e-14, "max_iterations": 50},
    )

    def test_rows_bitwise_match_batch1_engines(self, config):
        members = [
            _picard(config.with_updates(seed=seed, scenario=scenario), **knobs)
            for seed, scenario, knobs in zip(
                (1, 2, 3), ("two_stream", "landau_damping", "cold_beam"), self.KNOBS
            )
        ]
        ensemble = make_engine(members)
        assert isinstance(ensemble, EnergyConservingEnsemble)
        solos = [make_engine([cfg]) for cfg in members]
        counts = set()
        for _ in range(config.n_steps):
            ensemble.step()
            for row, solo in enumerate(solos):
                solo.step()
                assert ensemble.last_iterations[row] == solo.last_iterations[0], row
                assert np.array_equal(ensemble.particles.x[row], solo.particles.x[0])
                assert np.array_equal(ensemble.particles.v[row], solo.particles.v[0])
                assert np.array_equal(ensemble.efield[row], solo.efield[0])
            counts.add(tuple(ensemble.last_iterations))
        # The rows really did stop after different iteration counts.
        assert all(len(set(step)) > 1 for step in counts)

    def test_run_series_match_batch1_runs(self, config):
        members = [_picard(config.with_updates(seed=s), **k) for s, k in zip((4, 5), self.KNOBS)]
        history = make_engine(members).run(config.n_steps)
        for row, cfg in enumerate(members):
            solo = make_engine([cfg]).run(config.n_steps).member(0)
            got = history.member(row)
            for name, values in solo.items():
                assert np.array_equal(got[name], values), (name, row)
