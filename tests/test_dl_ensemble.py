"""Batched DL-PIC: one network forward per ensemble step (ISSUE 2)."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver, DLPIC
from repro.dlpic import solver as dl_solver_module
from repro.kernels import KernelBackend, ThreadedBackend
from repro.kernels.blas import blas_threads_settable
from repro.models.architectures import build_cnn, build_mlp
from repro.phasespace.binning import PhaseSpaceGrid, bin_phase_space_batch
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import EnsembleSimulation


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_cells=32, particles_per_cell=30, n_steps=6, vth=0.01, seed=0)


def _solver(config: SimulationConfig, input_kind: str = "flat") -> DLFieldSolver:
    grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
    if input_kind == "flat":
        model = build_mlp(input_size=grid.size, output_size=config.n_cells,
                          hidden_size=24, rng=0)
    else:
        model = build_cnn(input_shape=(1, grid.n_v, grid.n_x), output_size=config.n_cells,
                          channels=(2, 2), hidden_size=16, rng=0)
    norm = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
    return DLFieldSolver(model, grid, norm, input_kind=input_kind)


class TestConstruction:
    def test_batch_native_solver_not_lifted(self, config):
        ens = DLEnsemble.from_config(config, 2, _solver(config))
        assert isinstance(ens.field_solver, DLFieldSolver)

    def test_plain_ensemble_accepts_dl_solver_natively(self, config):
        """EnsembleSimulation itself drives the solver without lifting."""
        ens = EnsembleSimulation.from_config(config, 2, field_solver=_solver(config))
        assert isinstance(ens.field_solver, DLFieldSolver)
        ens.step()
        assert ens.efield.shape == (2, config.n_cells)

    def test_non_dl_solver_rejected(self, config):
        class NotDL:
            def field(self, x, v):
                return np.zeros(config.n_cells)

        with pytest.raises(TypeError, match="DLFieldSolver"):
            DLEnsemble.from_config(config, 2, NotDL())

    def test_box_length_mismatch_rejected(self, config):
        grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=999.0)
        model = build_mlp(input_size=grid.size, output_size=config.n_cells,
                          hidden_size=8, rng=0)
        solver = DLFieldSolver(
            model, grid, MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 1.0})
        )
        with pytest.raises(ValueError, match="box length"):
            DLEnsemble.from_config(config, 2, solver)

    def test_dl_solver_property(self, config):
        solver = _solver(config)
        ens = DLEnsemble.from_config(config, 2, solver)
        assert ens.dl_solver is solver


class TestParity:
    def test_batch_of_one_bitwise_identical_to_dlpic(self, config):
        """The satellite regression: batch=1 through the ensemble path
        reproduces a plain DLPIC run bit for bit."""
        ens = DLEnsemble.from_config(config, 1, _solver(config))
        ens.run(6)
        single = DLPIC(config, _solver(config))
        single.run(6)
        np.testing.assert_array_equal(ens.particles.x, single.particles.x)
        np.testing.assert_array_equal(ens.particles.v, single.particles.v)
        np.testing.assert_array_equal(ens.efield, single.efield)
        np.testing.assert_array_equal(ens.last_histograms, single.last_histograms)

    @pytest.mark.parametrize("input_kind", ["flat", "image"])
    def test_rows_bitwise_identical_to_sequential_runs(self, config, input_kind):
        batch = 3
        ens = DLEnsemble.from_config(config, batch, _solver(config, input_kind))
        ens.run(6)
        hists = ens.last_histograms.copy()
        for b in range(batch):
            single = DLPIC(config.with_updates(seed=config.seed + b),
                           _solver(config, input_kind))
            single.run(6)
            np.testing.assert_array_equal(ens.particles.x[b], single.particles.x[0])
            np.testing.assert_array_equal(ens.particles.v[b], single.particles.v[0])
            np.testing.assert_array_equal(ens.efield[b], single.efield[0])
            np.testing.assert_array_equal(hists[b], single.last_histograms[0])

    def test_histories_match_sequential(self, config):
        ens = DLEnsemble.from_config(config, 2, _solver(config))
        series = ens.run(6).as_arrays()
        for b in range(2):
            single = DLPIC(config.with_updates(seed=config.seed + b), _solver(config))
            single_series = single.run(6).as_arrays()
            for key in ("kinetic", "potential", "total", "momentum", "mode1"):
                np.testing.assert_array_equal(series[key][:, b], single_series[key])


class TestBatchedSolverStage:
    def test_one_histogram_per_member(self, config):
        ens = DLEnsemble.from_config(config, 4, _solver(config))
        ens.step()
        assert ens.last_histograms.shape == (4, 8, 16)
        np.testing.assert_allclose(
            ens.last_histograms.sum(axis=(1, 2)), config.n_particles, rtol=1e-12
        )

    def test_engines_sharing_a_solver_report_their_own_histograms(self, config):
        """A service runs every DL group through one solver: each engine
        reports the histograms of its own latest solve, not the solver's."""
        solver = _solver(config)
        a = DLEnsemble.from_config(config, 2, solver)
        b = DLEnsemble.from_config(config.with_updates(seed=10), 3, solver)
        a.step()
        b.step()
        assert a.last_histograms.shape == (2, 8, 16)
        assert b.last_histograms.shape == (3, 8, 16)
        assert a.last_histograms is not b.last_histograms
        for ens in (a, b):
            np.testing.assert_array_equal(
                ens.last_histograms,
                bin_phase_space_batch(ens.particles.x, ens.particles.v, solver.ps_grid),
            )

    def test_engines_sharing_a_solver_keep_their_own_backend(self, config, monkeypatch):
        """An engine given its own backend does not choose the backend of
        another engine on the same solver: the other's step runs no
        chunk of it."""
        solver = _solver(config)
        one_slab = DLEnsemble.from_config(config, 2, solver)
        chunked = DLEnsemble.from_config(config, 2, solver)
        chunked._backend = ThreadedBackend(max_workers=3)
        chunked.step()
        calls = []
        original = ThreadedBackend.run_rows

        def counted(self, n_rows, *args, **kwargs):
            calls.append(n_rows)
            return original(self, n_rows, *args, **kwargs)

        monkeypatch.setattr(ThreadedBackend, "run_rows", counted)
        one_slab.step()
        assert calls == []
        chunked.step()
        assert calls

    def test_dl_solve_builds_its_stencil_through_the_engines_backend(
        self, config, monkeypatch, chunked_kernels
    ):
        """On a field-aligned grid the solve's stencil build runs on the
        engine's backend: the injected one under chunked kernels, and by
        default the class's ``KernelBackend`` (one slab, ``None``, where
        numpy's BLAS has no thread setter)."""
        grid = PhaseSpaceGrid(n_x=config.n_cells, n_v=8, box_length=config.box_length)
        model = build_mlp(input_size=grid.size, output_size=config.n_cells,
                          hidden_size=24, rng=0)
        norm = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
        solver = DLFieldSolver(model, grid, norm)
        backends = []
        original = dl_solver_module.build_stencil

        def recorded(grid, x, work, order, backend=None):
            backends.append(backend)
            return original(grid, x, work, order, backend)

        monkeypatch.setattr(dl_solver_module, "build_stencil", recorded)
        with chunked_kernels() as chunked:
            DLEnsemble.from_config(config, 2, solver).step()
        DLEnsemble.from_config(config, 2, solver).step()
        own = DLEnsemble._backend if blas_threads_settable() else None
        assert own is None or type(own) is KernelBackend
        # Each engine's t=0 solve and its step.
        assert backends == [chunked, chunked, own, own]

    def test_fields_shape(self, config):
        solver = _solver(config)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, config.box_length, size=(5, 70))
        v = rng.normal(0, 0.1, size=(5, 70))
        out = solver.fields(x, v)
        assert out.shape == (5, config.n_cells)
        assert np.all(np.isfinite(out))

    def test_field_dispatches_on_ndim(self, config):
        """A batch of one predicts its row exactly as the full batch does."""
        solver = _solver(config)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, config.box_length, size=(2, 50))
        v = rng.normal(0, 0.1, size=(2, 50))
        batched = solver.field(x, v)
        assert batched.shape == (2, config.n_cells)
        np.testing.assert_array_equal(solver.field(x[:1], v[:1]), batched[:1])

    def test_prepare_inputs_shapes(self, config):
        solver = _solver(config)
        hists = np.zeros((4, 8, 16))
        assert solver.prepare_inputs(hists).shape == (4, 8 * 16)
        image_solver = _solver(config, "image")
        assert image_solver.prepare_inputs(hists).shape == (4, 1, 8, 16)

    def test_prepare_inputs_wrong_shape_rejected(self, config):
        with pytest.raises(ValueError, match="do not match"):
            _solver(config).prepare_inputs(np.zeros((4, 3, 3)))


class TestBinningScratch:
    """The DL step bins into its solver's per-thread workspace."""

    def test_engines_sharing_one_solver_across_threads_race_free(self):
        """Three engines stepping on three threads through one solver, with
        a tiny switch interval, end bitwise equal to stepping them in turn."""
        config = SimulationConfig(n_cells=32, particles_per_cell=300, vth=0.01, seed=3)
        configs = (
            config,
            config.with_updates(scenario="landau_damping", seed=4),
            config.with_updates(scenario="cold_beam", seed=5),
        )

        def engines(solver):
            return [DLEnsemble.from_config(c, 4, solver) for c in configs]

        steps = 30
        reference = engines(_solver(config))
        for engine in reference:
            engine.run(steps)

        concurrent = engines(_solver(config))
        barrier = threading.Barrier(len(concurrent))

        def drive(engine):
            barrier.wait()
            engine.run(steps)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(concurrent)) as pool:
                for future in [pool.submit(drive, e) for e in concurrent]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(concurrent, reference):
            np.testing.assert_array_equal(got.particles.x, want.particles.x)
            np.testing.assert_array_equal(got.particles.v, want.particles.v)
            np.testing.assert_array_equal(got.efield, want.efield)

    @pytest.mark.skipif(sys.platform != "linux", reason="minor-fault accounting is Linux-specific")
    def test_steady_state_step_page_faults(self):
        """Minor page faults per steady-state DL step, 8 x 64,000 particles.

        The DL counterpart of the traditional step's bound in
        ``tests/test_step_parity.py``: each fresh particle-sized
        temporary is a 4 MB array served with newly mapped pages.
        Measured on Linux/glibc (2 cores, numpy 2.4) on a 64 x 64
        phase-space grid: about 2,580 faults per step when the binning
        allocated its indices afresh, 0 with the solver's workspace.
        The bound sits halfway between.
        """
        import resource  # Unix-only

        config = SimulationConfig(n_cells=64, particles_per_cell=1000, seed=0)
        grid = PhaseSpaceGrid(n_x=64, n_v=64, box_length=config.box_length)
        model = build_mlp(input_size=grid.size, output_size=config.n_cells,
                          hidden_size=32, rng=0)
        solver = DLFieldSolver(
            model, grid, MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 100.0})
        )
        engine = DLEnsemble.from_config(config, 8, solver)
        for _ in range(3):
            engine.step()
        steps = 5
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(steps):
            engine.step()
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps
        assert faults < 1_290, f"{faults:.0f} minor page faults per step"
