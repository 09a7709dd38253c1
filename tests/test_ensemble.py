"""Batched ensemble engine: parity, seeding, validation, batched kernels."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.engines.observables import Observables, resolve_observables
from repro.pic import simulation
from repro.pic.grid import Grid1D
from repro.pic.interpolation import deposit, gather
from repro.pic.mover import push_velocities
from repro.pic.poisson import PoissonSolver
from repro.pic.simulation import EnsembleSimulation, TraditionalPIC


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_cells=32, particles_per_cell=40, n_steps=8, vth=0.01, seed=2)


class TestBatchedKernels:
    @pytest.mark.parametrize("order", ["ngp", "cic", "tsc"])
    def test_batched_deposit_matches_rows(self, order):
        grid = Grid1D(16, 4.0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, grid.length, size=(5, 200))
        w = rng.normal(size=(5, 200))
        batched = deposit(grid, x, w, order=order)
        assert batched.shape == (5, grid.n_cells)
        for b in range(5):
            np.testing.assert_array_equal(batched[b], deposit(grid, x[b], w[b], order=order))

    @pytest.mark.parametrize("order", ["ngp", "cic", "tsc"])
    def test_batched_gather_matches_rows(self, order):
        grid = Grid1D(16, 4.0)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, grid.length, size=(4, 150))
        field = rng.normal(size=(4, grid.n_cells))
        batched = gather(grid, field, x, order=order)
        for b in range(4):
            np.testing.assert_array_equal(batched[b], gather(grid, field[b], x[b], order=order))

    def test_gather_broadcasts_shared_field(self):
        grid = Grid1D(16, 4.0)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, grid.length, size=(3, 50))
        field = rng.normal(size=grid.n_cells)
        batched = gather(grid, field, x)
        for b in range(3):
            np.testing.assert_array_equal(batched[b], gather(grid, field, x[b]))

    def test_deposit_rejects_3d_positions(self):
        grid = Grid1D(16, 4.0)
        with pytest.raises(ValueError, match="positions must be"):
            deposit(grid, np.zeros((2, 3, 4)), 1.0)

    def test_deposit_rejects_non_broadcastable_weights(self):
        grid = Grid1D(16, 4.0)
        with pytest.raises(ValueError, match="do not broadcast"):
            deposit(grid, np.zeros(10), np.ones(7))

    def test_gather_rejects_wrong_batched_field(self):
        grid = Grid1D(16, 4.0)
        with pytest.raises(ValueError, match="field has shape"):
            gather(grid, np.zeros((3, grid.n_cells)), np.zeros((2, 10)))

    @pytest.mark.parametrize("method", ["spectral", "fd", "direct"])
    def test_batched_poisson_matches_rows(self, method):
        grid = Grid1D(32, 2.0 * np.pi)
        rng = np.random.default_rng(3)
        rho = rng.normal(size=(4, grid.n_cells))
        rho -= rho.mean(axis=-1, keepdims=True)
        solver = PoissonSolver(grid, method=method)
        phi, e = solver.solve(rho)
        assert phi.shape == e.shape == (4, grid.n_cells)
        for b in range(4):
            phi_b, e_b = solver.solve(rho[b])
            np.testing.assert_array_equal(phi[b], phi_b)
            np.testing.assert_array_equal(e[b], e_b)


class TestEnsembleConstruction:
    def test_batch_members_match_sequential_bitwise(self, config):
        ens = EnsembleSimulation.from_config(config, batch=3)
        hist = ens.run(8).as_arrays()
        for b in range(3):
            single = TraditionalPIC(config.with_updates(seed=config.seed + b)).run(8).as_arrays()
            for key in ("kinetic", "potential", "total", "momentum", "mode1"):
                np.testing.assert_array_equal(hist[key][:, b], single[key])

    def test_explicit_seeds(self, config):
        ens = EnsembleSimulation.from_config(config, batch=2, seeds=[11, 17])
        assert [cfg.seed for cfg in ens.configs] == [11, 17]

    def test_invalid_batch_rejected(self, config):
        with pytest.raises(ValueError, match="batch"):
            EnsembleSimulation.from_config(config, batch=0)

    def test_seed_count_mismatch_rejected(self, config):
        with pytest.raises(ValueError, match="seeds"):
            EnsembleSimulation.from_config(config, batch=2, seeds=[1])

    def test_empty_config_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsembleSimulation(())

    def test_structural_mismatch_rejected(self, config):
        other = config.with_updates(n_cells=64)
        with pytest.raises(ValueError, match="structural"):
            EnsembleSimulation([config, other])

    def test_varying_physics_parameters_allowed(self, config):
        members = [config.with_updates(v0=v0) for v0 in (0.1, 0.2, 0.3)]
        ens = EnsembleSimulation(members)
        assert ens.batch == 3
        ens.run(2)


class TestSeedReproducibility:
    """Satellite regression: same seed => identical, different => distinct."""

    def test_same_seed_identical_histories(self, config):
        a = EnsembleSimulation.from_config(config, batch=4).run(8).as_arrays()
        b = EnsembleSimulation.from_config(config, batch=4).run(8).as_arrays()
        for key in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
            np.testing.assert_array_equal(a[key], b[key])

    def test_different_seeds_differ(self, config):
        a = EnsembleSimulation.from_config(config, batch=2).run(8).as_arrays()
        b = EnsembleSimulation.from_config(
            config.with_updates(seed=config.seed + 100), batch=2
        ).run(8).as_arrays()
        assert not np.array_equal(a["mode1"], b["mode1"])

    def test_rows_with_distinct_seeds_differ(self, config):
        hist = EnsembleSimulation.from_config(config, batch=2).run(8).as_arrays()
        assert not np.array_equal(hist["mode1"][:, 0], hist["mode1"][:, 1])


class TestEnsembleRun:
    def test_history_shapes(self, config):
        hist = EnsembleSimulation.from_config(config, batch=3).run(8)
        series = hist.as_arrays()
        assert series["time"].shape == (9,)
        for key in ("kinetic", "potential", "total", "momentum", "mode1"):
            assert series[key].shape == (9, 3)
        assert len(hist) == 9

    def test_member_extraction(self, config):
        hist = EnsembleSimulation.from_config(config, batch=2).run(4)
        member = hist.member(1)
        assert member["kinetic"].shape == (5,)
        np.testing.assert_array_equal(member["kinetic"], hist.as_arrays()["kinetic"][:, 1])

    def test_energy_variation_and_momentum_drift_per_run(self, config):
        hist = EnsembleSimulation.from_config(config, batch=3).run(8)
        assert hist.energy_variation().shape == (3,)
        assert np.all(hist.energy_variation() < 0.05)
        assert np.max(np.abs(hist.momentum_drift())) < 1e-12

    def test_record_fields(self, config):
        hist = EnsembleSimulation.from_config(config, batch=2).run(
            3, history=Observables(resolve_observables(["energies", "mode1", "fields"]))
        )
        assert hist.as_arrays()["fields"].shape == (4, 2, config.n_cells)

    def test_negative_steps_rejected(self, config):
        with pytest.raises(ValueError):
            EnsembleSimulation.from_config(config, batch=1).run(-1)

    def test_default_n_steps_requires_uniform_members(self, config):
        members = [config, config.with_updates(n_steps=config.n_steps + 5)]
        sim = EnsembleSimulation(members)
        with pytest.raises(ValueError, match="disagree on config.n_steps"):
            sim.run()
        sim.run(2)  # explicit n_steps is always fine

    def test_callback_fires_each_step(self, config):
        sim = EnsembleSimulation.from_config(config, batch=2)
        steps = []
        sim.run(3, callback=lambda s: steps.append(s.step_index))
        assert steps == [1, 2, 3]


class TestFieldSolverContract:
    """Field solvers are batch-native and used as given, never lifted."""

    def test_single_run_solver_rejected(self, config):
        class SingleRunZeroField:
            def field(self, x, v):
                return np.zeros(config.n_cells)

        with pytest.raises(ValueError, match="field solver returned shape"):
            EnsembleSimulation.from_config(
                config, batch=2, field_solver=SingleRunZeroField()
            )

    def test_engine_keeps_original_solver_reference(self, config):
        class ZeroField:
            def field(self, x, v):
                return np.zeros((x.shape[0], config.n_cells))

        solver = ZeroField()
        sim = EnsembleSimulation(config, field_solver=solver)
        assert sim.field_solver is solver
        v0 = sim.particles.v.copy()
        sim.step()
        assert sim.step_index == 1
        np.testing.assert_array_equal(sim.particles.v, v0)


class TestPICViewStateSync:
    def test_external_position_edit_respected(self, config):
        """A reassigned position array must feed back into the next step."""
        sim_a = TraditionalPIC(config)
        sim_b = TraditionalPIC(config)
        shift = np.full(config.n_particles, 0.01)
        sim_a.particles.x = np.mod(sim_a.particles.x + shift, config.box_length)
        sim_b.particles.x = np.mod(sim_b.particles.x + shift, config.box_length)
        sim_a.step()
        sim_b.step()
        np.testing.assert_array_equal(sim_a.particles.x, sim_b.particles.x)
        untouched = TraditionalPIC(config)
        untouched.step()
        assert not np.array_equal(sim_a.particles.x, untouched.particles.x)

    def test_external_efield_reassignment_respected(self, config):
        """A reassigned field is the force of the next step (no stale gather)."""
        sim = TraditionalPIC(config)
        x0, v0 = sim.particles.x.copy(), sim.particles.v.copy()
        sim.efield = 2.0 * sim.efield
        e_at_p = gather(sim.grid, sim.efield, x0, order=config.interpolation)
        sim.step()
        np.testing.assert_array_equal(
            sim.particles.v, push_velocities(v0, e_at_p, config.qm, config.dt)
        )

    def test_ensemble_efield_reassignment_respected(self, config):
        ens = EnsembleSimulation.from_config(config, batch=2)
        ens.step()
        x0, v0 = ens.particles.x.copy(), ens.particles.v.copy()
        ens.efield = ens.efield[::-1].copy()
        e_at_p = gather(ens.grid, ens.efield, x0, order=config.interpolation)
        ens.step()
        np.testing.assert_array_equal(
            ens.particles.v, push_velocities(v0, e_at_p, config.qm, config.dt)
        )

    def test_solo_run_does_one_gather_per_step(self, config, monkeypatch):
        calls = []
        original = simulation.gather

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulation, "gather", counted)
        sim = TraditionalPIC(config)
        assert len(calls) == 1  # the rewind gather, reused by step 0
        sim.run(5)
        assert len(calls) == 1 + 5
