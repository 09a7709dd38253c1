"""Energy-conserving semi-implicit PIC (the paper's reference [4] scheme)."""

import numpy as np
import pytest

from repro import constants
from repro.api import Client
from repro.config import SimulationConfig
from repro.engines import make_engine, validate_engine_config
from repro.engines.base import energy_picard_params
from repro.pic.energy_conserving import EnergyConservingEnsemble
from repro.pic.interpolation import deposit, gather
from repro.pic.simulation import TraditionalPIC
from test_batch_parity import ENERGY_BASE, ENERGY_ROWS


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


class _ReferenceExpressions(EnergyConservingEnsemble):
    """The engine written with ``np.mod`` for both wraps, ``ndarray.mean``
    for the zero-mean current and ``np.max`` for the Picard delta."""

    def _midpoint_fields(self, x_n, v_half, e_n):
        cfg = self.config
        dt = cfg.dt
        x_half = np.mod(x_n + 0.5 * dt * v_half, cfg.box_length)
        j_half = deposit(
            self.grid, x_half, cfg.particle_charge * v_half,
            order=cfg.interpolation, work=self._work,
        )
        j_half = j_half - j_half.mean(axis=-1, keepdims=True)
        e_half = e_n - 0.5 * dt * j_half / constants.EPSILON_0
        e_at_p = gather(self.grid, e_half, x_half, order=cfg.interpolation, work=self._work)
        return e_half, e_at_p

    def step(self):
        cfg = self.config
        dt = cfg.dt
        x_n, v_n, e_n = self.particles.x, self.particles.v, self.efield
        v_half = v_n.copy()
        active = np.ones(self.batch, dtype=bool)
        iterations = np.zeros(self.batch, dtype=np.int64)
        while active.any():
            _, e_at_p = self._midpoint_fields(x_n, v_half, e_n)
            v_half_new = v_n + 0.5 * dt * cfg.qm * e_at_p
            delta = np.max(np.abs(v_half_new - v_half), axis=-1)
            np.copyto(v_half, v_half_new, where=active[:, None])
            iterations += active
            active &= ~(delta < self._tolerance) & (iterations < self._max_iterations)
        self.last_iterations = iterations
        e_half, e_at_p = self._midpoint_fields(x_n, v_half, e_n)
        self.particles.v = v_n + dt * cfg.qm * e_at_p
        self.particles.x = np.mod(x_n + dt * 0.5 * (v_n + self.particles.v), cfg.box_length)
        self.efield = 2.0 * e_half - e_n
        self.step_index += 1
        self.time += dt


# Beams at +-10 with dt = 0.5: half a step moves every particle by
# ~2.5 > L ~ 2.05, so midpoints leave [-L, 2L) and the in-box wrap hands
# those arrays to ``np.mod``.
WIDE_HALF_STEP = ENERGY_BASE.with_updates(v0=10.0, dt=0.5, n_steps=6, seed=6)


class TestReferenceExpressions:
    """The in-box wrap and the bare reductions move no bit of a run."""

    @staticmethod
    def _assert_same_run(configs):
        engine, reference = EnergyConservingEnsemble(configs), _ReferenceExpressions(configs)
        n_steps = engine.config.n_steps
        got, want = engine.run(n_steps).as_arrays(), reference.run(n_steps).as_arrays()
        assert got.keys() == want.keys()
        for name, values in want.items():
            assert got[name].tobytes() == values.tobytes(), name
        assert engine.particles.x.tobytes() == reference.particles.x.tobytes()
        assert engine.particles.v.tobytes() == reference.particles.v.tobytes()
        assert engine.efield.tobytes() == reference.efield.tobytes()

    @pytest.mark.parametrize("row", range(len(ENERGY_ROWS)))
    def test_each_pinned_row_matches(self, row):
        self._assert_same_run([ENERGY_BASE.with_updates(**ENERGY_ROWS[row])])

    def test_pinned_rows_as_one_batch_match(self):
        self._assert_same_run([ENERGY_BASE.with_updates(**row) for row in ENERGY_ROWS])

    def test_half_step_wider_than_the_box_matches(self):
        engine = EnergyConservingEnsemble(WIDE_HALF_STEP)
        length = WIDE_HALF_STEP.box_length
        midpoints = engine.particles.x + 0.5 * WIDE_HALF_STEP.dt * engine.particles.v
        assert ((midpoints < -length) | (midpoints >= 2.0 * length)).any()
        self._assert_same_run([WIDE_HALF_STEP, WIDE_HALF_STEP.with_updates(seed=7)])
