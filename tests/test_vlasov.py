"""Semi-Lagrangian Vlasov-Poisson solver (the ``solver="vlasov"`` engine)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.engines import make_engine, validate_engine_config, vlasov_grid_params
from repro.phasespace.binning import PhaseSpaceGrid
from repro.pic.scenarios import load_distribution
from repro.vlasov import VlasovEnsemble
from repro.vlasov.harvest import expected_counts, harvest_vlasov_ensemble


def _small_config(n_v: int = 64, **overrides) -> SimulationConfig:
    extra = {"n_v": n_v, **overrides.pop("extra", {})}
    defaults = dict(solver="vlasov", n_cells=32, dt=0.1, n_steps=20, v0=0.2, vth=0.03,
                    perturbation=1e-3, extra=extra)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _v_centers(cfg: SimulationConfig) -> np.ndarray:
    n_v, v_min, v_max = vlasov_grid_params(cfg)
    return v_min + (np.arange(n_v) + 0.5) * ((v_max - v_min) / n_v)


def _ps_grid(cfg: SimulationConfig, n_x: int, n_v: int, **window) -> PhaseSpaceGrid:
    _, v_min, v_max = vlasov_grid_params(cfg)
    bounds = {"v_min": v_min, "v_max": v_max, **window}
    return PhaseSpaceGrid(n_x=n_x, n_v=n_v, box_length=cfg.box_length, **bounds)


class TestConfig:
    def test_cold_beams_rejected(self):
        cold = _small_config(vth=0.0)
        with pytest.raises(ValueError, match="vth > 0"):
            validate_engine_config(cold)
        with pytest.raises(ValueError, match="vth > 0"):
            make_engine(cold)

    def test_grid_spacings(self):
        cfg = _small_config()
        engine = make_engine(cfg)
        assert (engine.n_v, engine.n_x) == (64, 32)
        assert engine.dx == pytest.approx(cfg.box_length / 32)
        assert engine.dv == pytest.approx(1.0 / 64)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_cells": 1}, {"extra": {"v_min": 1.0, "v_max": 0.0}}, {"dt": 0.0}],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            make_engine(_small_config(**kwargs))


class TestInitialCondition:
    def test_mean_density_is_one(self):
        cfg = _small_config()
        f = load_distribution(cfg)
        density = f.sum(axis=0) * (1.0 / 64)
        assert density.mean() == pytest.approx(1.0, rel=1e-12)

    def test_two_beams_centered_at_plus_minus_v0(self):
        cfg = _small_config()
        fv = load_distribution(cfg).sum(axis=1)
        peaks = _v_centers(cfg)[np.argsort(fv)[-2:]]
        assert sorted(np.round(np.abs(peaks), 2)) == [0.2, 0.2]

    def test_perturbation_modulates_density(self):
        cfg = _small_config(perturbation=0.05)
        density = load_distribution(cfg).sum(axis=0) * (1.0 / 64)
        assert density.max() - density.min() == pytest.approx(0.1, rel=0.01)

    def test_distribution_nonnegative(self):
        assert np.all(load_distribution(_small_config()) >= 0)


def _shift_engine(f: np.ndarray, box_length: float, dt: float, v_min: float, v_max: float):
    """A batch-1 engine over ``f`` (``(n_v, n_x)``) on a chosen grid."""
    n_v, n_x = f.shape
    cfg = SimulationConfig(
        solver="vlasov", n_cells=n_x, box_length=box_length, dt=dt, vth=0.03,
        extra={"n_v": n_v, "v_min": v_min, "v_max": v_max},
    )
    return VlasovEnsemble(cfg, f0s=f)


class TestShifts:
    """The advection kernels of :class:`VlasovEnsemble` in isolation."""

    def test_integer_row_shift_is_exact_roll(self):
        # dx = 1, dt = 2, v-centres (-2, -1, 0, 1): row j shifts by v_j cells.
        rng = np.random.default_rng(0)
        f = rng.random((4, 8))
        engine = _shift_engine(f, box_length=8.0, dt=2.0, v_min=-2.5, v_max=1.5)
        shifted = engine._advect_x(engine.f)[0]
        for row, cells in enumerate((-2, -1, 0, 1)):
            np.testing.assert_allclose(shifted[row], np.roll(f[row], cells), atol=1e-14)

    def test_fractional_row_shift_interpolates(self):
        # dx = 1, dt = 0.5, v-centres (0, 2): row 1 shifts by half a cell.
        f = np.zeros((2, 4))
        f[1, 1] = 1.0
        engine = _shift_engine(f, box_length=4.0, dt=0.5, v_min=-1.0, v_max=3.0)
        shifted = engine._advect_x(engine.f)[0]
        np.testing.assert_allclose(shifted[1], [0.0, 0.5, 0.5, 0.0])
        np.testing.assert_allclose(shifted[0], f[0])

    def test_row_shift_conserves_mass(self):
        rng = np.random.default_rng(1)
        f = rng.random((6, 12))
        engine = _shift_engine(f, box_length=12.0, dt=0.37, v_min=-9.0, v_max=7.0)
        shifted = engine._advect_x(engine.f)
        assert shifted.sum() == pytest.approx(f.sum(), rel=1e-12)

    def test_column_shift_zero_inflow(self):
        engine = _shift_engine(np.ones((4, 2)), box_length=2.0, dt=0.1, v_min=-0.5, v_max=0.5)
        shifted = engine._advect_v(engine.f, np.array([[1.0, -1.0]]))[0]
        # Shift down by one: the top row receives zero inflow.
        np.testing.assert_allclose(shifted[:, 0], [0.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(shifted[:, 1], [1.0, 1.0, 1.0, 0.0])

    def test_column_shift_integer_exact(self):
        rng = np.random.default_rng(2)
        f = rng.random((6, 3))
        engine = _shift_engine(f, box_length=3.0, dt=0.1, v_min=-0.5, v_max=0.5)
        shifted = engine._advect_v(engine.f, np.array([[2.0, 0.0, -1.0]]))[0]
        np.testing.assert_allclose(shifted[2:, 0], f[:-2, 0], atol=1e-14)
        np.testing.assert_allclose(shifted[:, 1], f[:, 1], atol=1e-14)
        np.testing.assert_allclose(shifted[:-1, 2], f[1:, 2], atol=1e-14)


class TestConservation:
    def test_mass_conserved(self):
        sim = make_engine(_small_config())
        m0 = sim.mass()[0]
        sim.run(20)
        assert sim.mass()[0] == pytest.approx(m0, rel=1e-10)

    def test_energy_approximately_conserved(self):
        sim = make_engine(_small_config(n_steps=50))
        total = sim.run(50).member(0)["total"]
        assert np.max(np.abs(total - total[0])) / total[0] < 0.05

    def test_momentum_near_zero(self):
        sim = make_engine(_small_config())
        h = sim.run(10).member(0)
        assert np.all(np.abs(h["momentum"]) < 1e-6)

    def test_distribution_stays_nonnegative_mostly(self):
        """Linear interpolation is positivity-preserving."""
        sim = make_engine(_small_config())
        sim.run(20)
        assert sim.f.min() >= -1e-12


class TestPhysics:
    def test_two_stream_growth_rate(self):
        """The Vlasov run reproduces the analytic growth rate too."""
        from repro.theory.dispersion import growth_rate_cold
        from repro.theory.growth import fit_growth_rate

        cfg = _small_config(n_v=128, n_cells=64, dt=0.1, v0=0.2, vth=0.025)
        h = make_engine(cfg).run(200).member(0)
        fit = fit_growth_rate(h["time"], h["mode1"])
        gamma = growth_rate_cold(2 * np.pi / cfg.box_length, cfg.v0)
        assert fit.relative_error(gamma) < 0.25
        assert fit.r_squared > 0.95

    def test_free_streaming_without_charge_coupling(self):
        """With the perturbation off, the state stays near equilibrium."""
        cfg = _small_config(n_steps=30)
        # The two-stream loader always seeds a density perturbation; its
        # x-average is the unperturbed, spatially uniform equilibrium.
        fv = load_distribution(cfg).mean(axis=1, keepdims=True)
        f0 = np.repeat(fv, cfg.n_cells, axis=1)
        h = VlasovEnsemble(cfg, f0s=f0).run(30).member(0)
        assert np.all(h["mode1"] < 1e-10)


class TestHarvest:
    def test_expected_counts_total(self):
        cfg = _small_config()
        counts = expected_counts(
            load_distribution(cfg), cfg, _ps_grid(cfg, 32, 64), n_particles=64000
        )
        assert counts.sum() == pytest.approx(64000, rel=1e-9)

    def test_coarsening_preserves_mass(self):
        cfg = _small_config()
        grid = _ps_grid(cfg, 16, 16)
        counts = expected_counts(load_distribution(cfg), cfg, grid, n_particles=1000)
        assert counts.shape == grid.shape
        assert counts.sum() == pytest.approx(1000, rel=1e-9)

    def test_incompatible_grids_rejected(self):
        cfg = _small_config()
        with pytest.raises(ValueError, match="tile"):
            expected_counts(load_distribution(cfg), cfg, _ps_grid(cfg, 24, 16), 100)

    def test_mismatched_window_rejected(self):
        cfg = _small_config()
        grid = _ps_grid(cfg, 32, 64, v_min=-1.0, v_max=1.0)
        with pytest.raises(ValueError, match="windows differ"):
            expected_counts(load_distribution(cfg), cfg, grid, 100)

    def test_harvest_dataset_shapes_and_stride(self):
        cfg = _small_config(n_steps=10)
        data = harvest_vlasov_ensemble(
            [cfg], _ps_grid(cfg, 32, 64), n_particles=5000, stride=2
        )
        # Initial state + steps 2, 4, 6, 8, 10.
        assert len(data) == 6
        assert data.inputs.shape == (6, 64, 32)
        assert data.params[0, 2] == -1.0  # Vlasov sentinel seed
        np.testing.assert_array_equal(data.params[:, 3], [0, 2, 4, 6, 8, 10])

    def test_harvested_pairs_train_the_same_pipeline(self):
        """Vlasov data slots into the standard training stack."""
        from repro.models.architectures import build_mlp
        from repro.nn.losses import MSELoss
        from repro.nn.optimizers import Adam
        from repro.nn.training import Trainer
        from repro.phasespace.normalization import MinMaxNormalizer

        cfg = _small_config(n_steps=30, perturbation=0.01)
        grid = _ps_grid(cfg, 32, 64)
        data = harvest_vlasov_ensemble([cfg], grid, n_particles=10000)
        norm = MinMaxNormalizer().fit(data.inputs)
        model = build_mlp(input_size=grid.size, output_size=32, hidden_size=16, rng=0)
        trainer = Trainer(model, MSELoss(), Adam(lr=1e-3))
        history = trainer.fit(norm.transform(data.flat_inputs()), data.targets,
                              epochs=5, batch_size=8, rng=0)
        assert history.loss[-1] < history.loss[0]


class TestEnsembleHarvest:
    def test_batched_harvest_matches_solo_harvests(self):
        """A batched harvest == per-config batch-1 harvests, run-major."""
        configs = [
            _small_config(n_steps=6),
            _small_config(n_steps=6, vth=0.05, scenario="landau_damping"),
        ]
        grid = _ps_grid(configs[0], 32, 64)
        batched = harvest_vlasov_ensemble(configs, grid, n_particles=5000, stride=2)
        assert len(batched) == 2 * 4  # init + steps 2, 4, 6 per run, run-major
        for b, cfg in enumerate(configs):
            solo = harvest_vlasov_ensemble([cfg], grid, n_particles=5000, stride=2)
            rows = slice(4 * b, 4 * (b + 1))
            np.testing.assert_array_equal(batched.inputs[rows], solo.inputs)
            np.testing.assert_array_equal(batched.targets[rows], solo.targets)
            np.testing.assert_array_equal(batched.params[rows], solo.params)
            assert batched.params[4 * b, 2] == -1.0  # deterministic-run sentinel


class TestLandauDamping:
    def test_langmuir_wave_landau_damping(self):
        """Beyond-paper validation: a Maxwellian plasma Landau-damps a
        seeded Langmuir wave at close to the kinetic-theory rate.

        For k*lambda_D = 0.5 linear theory gives omega ~ 1.4156 and
        gamma ~ -0.1533; the envelope fit includes the initial
        transient, so tolerances are generous."""
        from scipy.signal import argrelmax

        k = 0.5
        cfg = SimulationConfig(
            solver="vlasov", scenario="landau_damping", box_length=2 * np.pi / k,
            n_cells=64, dt=0.05, n_steps=400, vth=1.0, perturbation=0.01,
            extra={"n_v": 256, "v_min": -6.0, "v_max": 6.0},
        )
        h = make_engine(cfg).run(400).member(0)
        e1, t = h["mode1"], h["time"]
        peaks = argrelmax(e1, order=3)[0]
        peaks = peaks[t[peaks] < 15.0]
        assert peaks.size >= 4
        gamma = np.polyfit(t[peaks], np.log(e1[peaks]), 1)[0]
        assert gamma == pytest.approx(-0.1533, rel=0.35)
        # |E1| peaks twice per oscillation period.
        omega = 2 * np.pi / (2 * np.mean(np.diff(t[peaks])))
        assert omega == pytest.approx(1.4156, rel=0.05)
