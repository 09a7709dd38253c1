"""The served ``mpi`` engine family: simulated-MPI solvers as engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.engines.base import (
    MPI_DEFAULT_N_RANKS,
    available_engines,
    make_engine,
    mpi_rank_params,
    validate_engine_config,
)
from repro.parallel.picparallel import MPIEnsemble, communication_model
from repro.phasespace.binning import PhaseSpaceGrid
from repro.pic.simulation import TraditionalPIC
from repro.service import SimulationService, result_key


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        n_cells=32, particles_per_cell=50, n_steps=10, vth=0.01, seed=0,
        solver="mpi",
    )


def _solo(config: SimulationConfig) -> "dict[str, np.ndarray]":
    """One member's series from its own batch-1 ``mpi`` engine."""
    return make_engine([config]).run(config.n_steps).member(0)


class TestRegistration:
    def test_mpi_is_a_registered_family(self):
        assert "mpi" in available_engines()

    def test_rank_count_comes_from_config_extra(self, config):
        assert mpi_rank_params(config) == MPI_DEFAULT_N_RANKS
        assert mpi_rank_params(config.with_updates(extra={"n_ranks": 2})) == 2

    @pytest.mark.parametrize("bad", [0, -1, "three", 2.5])
    def test_malformed_rank_counts_rejected(self, config, bad):
        with pytest.raises(ValueError, match="n_ranks"):
            validate_engine_config(config.with_updates(extra={"n_ranks": bad}))

    def test_float32_rejected(self, config):
        with pytest.raises(ValueError, match="float64"):
            validate_engine_config(config.with_updates(dtype="float32"))


class TestLockstepParity:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_rows_bitwise_match_batch1_mpi_engines(self, config, n_ranks):
        cfg = config.with_updates(extra={"n_ranks": n_ranks})
        ensemble = make_engine([cfg, cfg.with_updates(seed=5)])
        assert isinstance(ensemble, MPIEnsemble)
        history = ensemble.run(cfg.n_steps)
        for row, member_cfg in enumerate([cfg, cfg.with_updates(seed=5)]):
            solo = _solo(member_cfg)
            got = history.member(row)
            assert got.keys() == solo.keys()
            for name, values in solo.items():
                assert np.array_equal(got[name], values), (name, row)

    def test_physics_matches_traditional_engine(self, config):
        """Decomposition only reorders float sums: same physics."""
        serial = TraditionalPIC(config.with_updates(solver="traditional")).run(
            config.n_steps
        ).as_arrays()
        dist = make_engine([config]).run(config.n_steps).as_arrays()
        np.testing.assert_allclose(dist["total"][:, 0], serial["total"], rtol=1e-10)
        np.testing.assert_allclose(
            dist["mode1"][:, 0], serial["mode1"], rtol=1e-8, atol=1e-14
        )
        np.testing.assert_allclose(
            dist["momentum"][:, 0], serial["momentum"], atol=1e-12
        )

    def test_comm_stats_exposed_per_member(self, config):
        ensemble = make_engine([config, config.with_updates(seed=5)])
        ensemble.run(3)
        stats = ensemble.comm_stats
        assert len(stats) == 2
        assert all(s.total_bytes > 0 for s in stats)

    def test_counters_cover_only_the_time_loop(self, config):
        """The t=0 field solve is set-up, not traffic of the run."""
        n_steps = 5
        ensemble = make_engine([config, config.with_updates(seed=5)])
        assert all(s.total_calls == 0 for s in ensemble.comm_stats)
        ensemble.run(n_steps)
        model = communication_model(
            mpi_rank_params(config), config.n_cells, PhaseSpaceGrid(n_x=config.n_cells)
        )
        for stats in ensemble.comm_stats:
            assert stats.calls_by_op["reduce"] == n_steps
            assert stats.calls_by_op["bcast"] == n_steps
            collective = stats.bytes_by_op["reduce"] + stats.bytes_by_op["bcast"]
            assert collective / n_steps == model["traditional"]["bytes_per_step"]


class TestServedMPI:
    def test_service_runs_mpi_requests(self, config):
        with SimulationService(start=False) as service:
            future = service.submit(config, phase_space=True)
            service.flush()
            result = future.result()
        solo = make_engine([config])
        arrays = solo.run(config.n_steps).as_arrays()
        for name in result.series:
            want = arrays[name] if name == "time" else arrays[name][:, 0]
            assert np.array_equal(result.series[name], want), name
        assert np.array_equal(result.efield, solo.efield[0])
        assert np.array_equal(result.final_x, solo.particles.x[0])
        assert np.array_equal(result.final_v, solo.v_at_integer_time[0])

    def test_different_rank_counts_address_different_results(self, config):
        two = config.with_updates(extra={"n_ranks": 2})
        four = config.with_updates(extra={"n_ranks": 4})
        assert result_key(two, solver="mpi") != result_key(four, solver="mpi")

    def test_mixed_rank_counts_share_a_batch(self, config):
        """Each member carries its own decomposition, so rank counts mix."""
        two = config.with_updates(extra={"n_ranks": 2})
        four = config.with_updates(extra={"n_ranks": 4}, seed=5)
        with SimulationService(start=False) as service:
            futures = [service.submit(two), service.submit(four)]
            service.flush()
            results = [f.result() for f in futures]
            assert service.stats["batches"] == 1
        for result, cfg in zip(results, (two, four)):
            solo = _solo(cfg)
            for name in result.series:
                assert np.array_equal(result.series[name], solo[name]), name
