"""Distributed PIC: serial equivalence and communication accounting."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.engines import make_engine
from repro.parallel.picparallel import communication_model, run_distributed_dl
from repro.phasespace.binning import PhaseSpaceGrid
from repro.pic.simulation import TraditionalPIC


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_cells=32, particles_per_cell=50, n_steps=10, vth=0.01, seed=0)


def _run_mpi(config: SimulationConfig, n_ranks: int, n_steps: int):
    """A solo distributed traditional run: a batch-1 ``mpi`` engine."""
    engine = make_engine([config.with_updates(solver="mpi", extra={"n_ranks": n_ranks})])
    history = engine.run(n_steps)
    return history.member(0), engine.comm_stats[0]


class TestSerialEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_traditional_matches_serial_physics(self, config, n_ranks):
        """Decomposition only reorders float sums: same trajectories."""
        serial = TraditionalPIC(config).run(10).as_arrays()
        da, _ = _run_mpi(config, n_ranks=n_ranks, n_steps=10)
        np.testing.assert_allclose(da["total"], serial["total"], rtol=1e-10)
        np.testing.assert_allclose(da["mode1"], serial["mode1"], rtol=1e-8, atol=1e-14)
        np.testing.assert_allclose(da["momentum"], serial["momentum"], atol=1e-12)

    def test_dl_matches_serial_dl(self, config, tiny_trained_solver, tiny_solver_config):
        """NGP histogram counts are integers: partial sums are exact."""
        from repro.dlpic.simulation import DLPIC

        cfg = tiny_solver_config.with_updates(n_steps=8)
        serial = DLPIC(cfg, tiny_trained_solver).run(8).as_arrays()
        dist = run_distributed_dl(cfg, tiny_trained_solver, n_ranks=4, n_steps=8)
        da = dist.history.as_arrays()
        np.testing.assert_allclose(da["total"], serial["total"], rtol=1e-12)
        np.testing.assert_allclose(da["mode1"], serial["mode1"], rtol=1e-10, atol=1e-15)


class TestCommunicationAccounting:
    def test_traditional_comm_ops(self, config):
        _, comm = _run_mpi(config, n_ranks=4, n_steps=5)
        assert "reduce" in comm.bytes_by_op
        assert "bcast" in comm.bytes_by_op
        # reduce(rho) + bcast(E) per step, nothing else except migration.
        assert comm.calls_by_op["reduce"] == 5
        assert comm.calls_by_op["bcast"] == 5

    def test_dl_single_sync_point(self, tiny_solver_config, tiny_trained_solver):
        dist = run_distributed_dl(
            tiny_solver_config, tiny_trained_solver, n_ranks=4, n_steps=5
        )
        assert dist.comm.calls_by_op["allreduce"] == 5
        assert "reduce" not in dist.comm.bytes_by_op
        assert "bcast" not in dist.comm.bytes_by_op

    def test_single_rank_runs_communication_free(self, config):
        _, comm = _run_mpi(config, n_ranks=1, n_steps=5)
        assert comm.total_bytes == 0

    def test_migration_traffic_counted(self, config):
        _, comm = _run_mpi(config, n_ranks=4, n_steps=10)
        # Streaming beams cross slab boundaries constantly.
        assert comm.bytes_by_op.get("sendrecv", 0) > 0

    def test_bytes_per_step_property(self, config, tiny_solver_config, tiny_trained_solver):
        _, comm = _run_mpi(config, n_ranks=2, n_steps=4)
        assert comm.total_calls / 4 >= 2.0  # reduce + bcast, plus migration
        dist = run_distributed_dl(
            tiny_solver_config, tiny_trained_solver, n_ranks=2, n_steps=4
        )
        assert dist.bytes_per_step == pytest.approx(dist.comm.total_bytes / 4)
        assert dist.sync_points_per_step == pytest.approx(dist.comm.total_calls / 4)


class TestCommunicationModel:
    def test_traditional_volume_formula(self):
        grid = PhaseSpaceGrid(n_x=64, n_v=64)
        model = communication_model(n_ranks=8, n_cells=64, ps_grid=grid)
        # reduce: 64*8 bytes * 7 ranks; bcast the same.
        assert model["traditional"]["bytes_per_step"] == 2 * 64 * 8 * 7
        assert model["traditional"]["sync_points_per_step"] == 2.0

    def test_dl_volume_formula(self):
        grid = PhaseSpaceGrid(n_x=64, n_v=64)
        model = communication_model(n_ranks=8, n_cells=64, ps_grid=grid)
        assert model["dl"]["bytes_per_step"] == 64 * 64 * 8 * 8
        assert model["dl"]["sync_points_per_step"] == 1.0

    def test_dl_has_fewer_sync_points_always(self):
        grid = PhaseSpaceGrid(n_x=64, n_v=64)
        for ranks in (2, 4, 16, 128):
            model = communication_model(ranks, 64, grid)
            assert (
                model["dl"]["sync_points_per_step"]
                < model["traditional"]["sync_points_per_step"]
            )

    def test_single_rank_free(self):
        model = communication_model(1, 64, PhaseSpaceGrid())
        assert model["traditional"]["bytes_per_step"] == 0
        assert model["dl"]["bytes_per_step"] == 0

    def test_migration_added_to_both(self):
        grid = PhaseSpaceGrid(n_x=16, n_v=16)
        with_mig = communication_model(
            4, 64, grid, migrating_fraction=0.1, n_particles=1000
        )
        without = communication_model(4, 64, grid)
        extra = 0.1 * 1000 * 16
        assert with_mig["traditional"]["bytes_per_step"] == pytest.approx(
            without["traditional"]["bytes_per_step"] + extra
        )
        assert with_mig["dl"]["bytes_per_step"] == pytest.approx(
            without["dl"]["bytes_per_step"] + extra
        )

    def test_model_matches_simulated_traditional_run(self, config):
        """Closed-form collective volume equals the simulated run's
        (excluding migration, which depends on the trajectories)."""
        _, comm = _run_mpi(config, n_ranks=4, n_steps=10)
        grid = PhaseSpaceGrid(n_x=config.n_cells, n_v=8)
        model = communication_model(4, config.n_cells, grid)
        collective = (comm.bytes_by_op["reduce"] + comm.bytes_by_op["bcast"]) / 10
        assert collective == pytest.approx(model["traditional"]["bytes_per_step"])

    def test_validation(self):
        with pytest.raises(ValueError):
            communication_model(0, 64, PhaseSpaceGrid())
        with pytest.raises(ValueError):
            communication_model(2, 64, PhaseSpaceGrid(), migrating_fraction=1.5)
