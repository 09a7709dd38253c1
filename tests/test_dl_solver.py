"""DLFieldSolver: preprocessing, prediction, persistence."""

import numpy as np
import pytest

from repro.dlpic.solver import DLFieldSolver
from repro.kernels.workspace import Workspace
from repro.models.architectures import build_cnn, build_mlp
from repro.phasespace.binning import PhaseSpaceGrid, bin_phase_space
from repro.phasespace.normalization import MinMaxNormalizer


@pytest.fixture
def ps_grid() -> PhaseSpaceGrid:
    return PhaseSpaceGrid(n_x=8, n_v=4, box_length=2.0, v_min=-0.5, v_max=0.5)


@pytest.fixture
def normalizer() -> MinMaxNormalizer:
    return MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 10.0})


@pytest.fixture
def mlp_solver(ps_grid, normalizer) -> DLFieldSolver:
    model = build_mlp(input_size=ps_grid.size, output_size=6, hidden_size=8, rng=0)
    return DLFieldSolver(model, ps_grid, normalizer, input_kind="flat")


class TestPrepareInput:
    """A single histogram is a batch of one."""

    def test_flat_shape(self, mlp_solver, ps_grid):
        out = mlp_solver.prepare_inputs(np.ones((1, *ps_grid.shape)))
        assert out.shape == (1, ps_grid.size)

    def test_image_shape(self, ps_grid, normalizer):
        model = build_cnn(
            input_shape=(1, ps_grid.n_v, ps_grid.n_x), output_size=6,
            channels=(2, 2), hidden_size=8, rng=0,
        )
        solver = DLFieldSolver(model, ps_grid, normalizer, input_kind="image")
        out = solver.prepare_inputs(np.ones((1, *ps_grid.shape)))
        assert out.shape == (1, 1, ps_grid.n_v, ps_grid.n_x)

    def test_normalization_applied(self, mlp_solver, ps_grid):
        hist = np.full((1, *ps_grid.shape), 5.0)
        out = mlp_solver.prepare_inputs(hist)
        np.testing.assert_allclose(out, 0.5)

    def test_wrong_histogram_shape_rejected(self, mlp_solver):
        with pytest.raises(ValueError, match="do not match"):
            mlp_solver.prepare_inputs(np.ones((1, 3, 3)))


class TestFieldProtocol:
    """Phase spaces are ``(batch, n)`` stacks; a single run is a batch of one."""

    def test_field_returns_grid_sized_array(self, mlp_solver):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 2.0, (1, 100))
        v = rng.normal(0, 0.1, (1, 100))
        e = mlp_solver.field(x, v)
        assert e.shape == (1, 6)
        assert np.all(np.isfinite(e))

    def test_single_run_phase_space_rejected(self, mlp_solver):
        with pytest.raises(ValueError, match=r"\(batch, n\)"):
            mlp_solver.field(np.ones(10), np.zeros(10))

    def test_field_caches_last_histogram(self, mlp_solver, ps_grid):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 2.0, (1, 50))
        v = rng.normal(0, 0.1, (1, 50))
        work = Workspace()
        mlp_solver.fields(x, v, work=work)
        assert work.histograms.sum() == pytest.approx(50)
        np.testing.assert_array_equal(
            work.histograms[0], bin_phase_space(x[0], v[0], ps_grid, order="ngp")
        )

    def test_field_deterministic(self, mlp_solver):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 2.0, (1, 50))
        v = rng.normal(size=(1, 50)) * 0.1
        np.testing.assert_array_equal(mlp_solver.field(x, v), mlp_solver.field(x, v))

    def test_cic_binning_option(self, ps_grid, normalizer):
        model = build_mlp(input_size=ps_grid.size, output_size=6, hidden_size=8, rng=0)
        solver = DLFieldSolver(model, ps_grid, normalizer, binning="cic")
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 2.0, (1, 50))
        v = rng.normal(size=(1, 50)) * 0.1
        work = Workspace()
        solver.fields(x, v, work=work)
        np.testing.assert_allclose(
            work.histograms[0], bin_phase_space(x[0], v[0], ps_grid, order="cic")
        )


class TestValidation:
    def test_unfitted_normalizer_rejected(self, ps_grid):
        model = build_mlp(input_size=ps_grid.size, output_size=6, hidden_size=8, rng=0)
        with pytest.raises(ValueError, match="fitted"):
            DLFieldSolver(model, ps_grid, MinMaxNormalizer())

    def test_unknown_input_kind_rejected(self, ps_grid, normalizer):
        model = build_mlp(input_size=ps_grid.size, output_size=6, hidden_size=8, rng=0)
        with pytest.raises(ValueError, match="input_kind"):
            DLFieldSolver(model, ps_grid, normalizer, input_kind="graph")


class TestPersistence:
    def test_save_load_roundtrip(self, mlp_solver, ps_grid, tmp_path):
        mlp_solver.save(tmp_path / "solver")
        fresh_model = build_mlp(input_size=ps_grid.size, output_size=6, hidden_size=8, rng=99)
        loaded = DLFieldSolver.load(tmp_path / "solver", fresh_model)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 2.0, (1, 80))
        v = rng.normal(size=(1, 80)) * 0.2
        np.testing.assert_allclose(loaded.field(x, v), mlp_solver.field(x, v), atol=1e-12)

    def test_loaded_metadata(self, mlp_solver, ps_grid, tmp_path):
        mlp_solver.save(tmp_path / "solver")
        fresh = build_mlp(input_size=ps_grid.size, output_size=6, hidden_size=8, rng=0)
        loaded = DLFieldSolver.load(tmp_path / "solver", fresh)
        assert loaded.ps_grid == ps_grid
        assert loaded.input_kind == "flat"
        assert loaded.binning == "ngp"
        assert loaded.normalizer.maximum == mlp_solver.normalizer.maximum

    def test_load_auto_rebuilds_architecture(self, mlp_solver, ps_grid, tmp_path):
        """No pre-built model needed: the checkpoint fingerprint is enough."""
        mlp_solver.save(tmp_path / "solver")
        loaded = DLFieldSolver.load_auto(tmp_path / "solver")
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2.0, (1, 60))
        v = rng.normal(size=(1, 60)) * 0.2
        np.testing.assert_array_equal(loaded.field(x, v), mlp_solver.field(x, v))

    def test_load_auto_rebuilds_cnn(self, ps_grid, normalizer, tmp_path):
        model = build_cnn(
            input_shape=(1, ps_grid.n_v, ps_grid.n_x), output_size=6,
            channels=(2, 2), hidden_size=8, rng=0,
        )
        solver = DLFieldSolver(model, ps_grid, normalizer, input_kind="image")
        solver.save(tmp_path / "cnn")
        loaded = DLFieldSolver.load_auto(tmp_path / "cnn")
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 2.0, (1, 60))
        v = rng.normal(size=(1, 60)) * 0.2
        np.testing.assert_array_equal(loaded.field(x, v), solver.field(x, v))
