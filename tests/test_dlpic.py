"""The DL-based PIC cycle (Fig. 2)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.dlpic.simulation import DLPIC
from repro.dlpic.solver import DLFieldSolver
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer


def _untrained_solver(config: SimulationConfig, n_v: int = 8, n_x: int = 16) -> DLFieldSolver:
    grid = PhaseSpaceGrid(n_x=n_x, n_v=n_v, box_length=config.box_length)
    model = build_mlp(input_size=grid.size, output_size=config.n_cells, hidden_size=16, rng=0)
    norm = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 50.0})
    return DLFieldSolver(model, grid, norm)


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_cells=32, particles_per_cell=30, n_steps=5, vth=0.01, seed=0)


class TestCycle:
    def test_runs_and_records(self, config):
        sim = DLPIC(config, _untrained_solver(config))
        hist = sim.run(5)
        assert len(hist) == 6
        assert np.all(np.isfinite(hist.as_arrays()["total"]))

    def test_field_comes_from_network(self, config):
        solver = _untrained_solver(config)
        sim = DLPIC(config, solver)
        expected = solver.predict_from_histograms(sim.last_histograms)
        np.testing.assert_allclose(sim.efield, expected)

    def test_histogram_mass_tracks_particle_count(self, config):
        sim = DLPIC(config, _untrained_solver(config))
        sim.run(3)
        assert sim.last_histograms[0].sum() == pytest.approx(config.n_particles)

    def test_no_charge_deposition_solver_involved(self, config):
        sim = DLPIC(config, _untrained_solver(config))
        assert isinstance(sim.field_solver, DLFieldSolver)
        assert sim.dl_solver is sim.field_solver

    def test_box_length_mismatch_rejected(self, config):
        grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=999.0)
        model = build_mlp(input_size=grid.size, output_size=config.n_cells, hidden_size=8, rng=0)
        solver = DLFieldSolver(
            model, grid, MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 1.0})
        )
        with pytest.raises(ValueError, match="box length"):
            DLPIC(config, solver)


class TestAgainstTraditional:
    def test_trained_solver_tracks_traditional_field(
        self, tiny_trained_solver, tiny_solver_config
    ):
        """A real trained solver predicts the initial field with error
        well below the field's own scale."""
        from repro.pic.simulation import TraditionalPIC

        trad = TraditionalPIC(tiny_solver_config)
        dl = DLPIC(tiny_solver_config, tiny_trained_solver)
        scale = np.abs(trad.efield).max()
        error = np.abs(dl.efield - trad.efield).max()
        # The t=0 field of a noisy tiny run is mostly shot noise, so the
        # weak test-scale network only gets the order of magnitude right.
        assert error < 5.0 * scale

    def test_trained_dlpic_develops_instability(
        self, tiny_trained_solver, tiny_solver_config
    ):
        """The DL-based PIC produces a growing two-stream mode."""
        sim = DLPIC(tiny_solver_config, tiny_trained_solver)
        hist = sim.run(40)
        a = hist.as_arrays()
        assert a["mode1"][-5:].mean() > a["mode1"][:5].mean()

    def test_mover_identical_to_traditional(self, config):
        """With the same field values, DL-PIC and traditional PIC move
        particles identically (the cycle only swaps the field solve)."""
        from repro.pic.simulation import EnsembleSimulation

        class FixedField:
            def field(self, x, v):
                row = np.sin(2 * np.pi * np.arange(config.n_cells) / config.n_cells)
                return np.broadcast_to(row, (x.shape[0], config.n_cells))

        a = EnsembleSimulation(config, field_solver=FixedField())
        b = EnsembleSimulation(config, field_solver=FixedField())
        a.step()
        b.step()
        np.testing.assert_array_equal(a.particles.x, b.particles.x)
        np.testing.assert_array_equal(a.particles.v, b.particles.v)
