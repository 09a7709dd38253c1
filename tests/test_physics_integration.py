"""Physics integration tests: the traditional PIC against linear theory.

These run real (small) simulations; they are the ground truth the DL
method is trained from, so their correctness underpins everything.
"""

import numpy as np
import pytest

from repro import constants
from repro.config import SimulationConfig
from repro.pic.simulation import TraditionalPIC
from repro.theory.coldbeam import beam_velocity_spread
from repro.theory.dispersion import growth_rate_cold
from repro.theory.growth import fit_growth_rate


@pytest.fixture(scope="module")
def two_stream_history():
    """One moderately resolved two-stream run shared by several tests."""
    cfg = SimulationConfig(particles_per_cell=200, v0=0.2, vth=0.025, seed=1)
    sim = TraditionalPIC(cfg)
    return cfg, sim.run(150), sim


class TestTwoStreamGrowth:
    def test_growth_rate_matches_linear_theory(self, two_stream_history):
        cfg, hist, _ = two_stream_history
        a = hist.as_arrays()
        fit = fit_growth_rate(a["time"], a["mode1"])
        gamma_theory = growth_rate_cold(2 * np.pi / cfg.box_length, cfg.v0)
        assert fit.relative_error(gamma_theory) < 0.25
        assert fit.r_squared > 0.9

    def test_instability_grows_orders_of_magnitude(self, two_stream_history):
        _, hist, _ = two_stream_history
        a = hist.as_arrays()
        assert a["mode1"].max() > 20 * a["mode1"][0]

    def test_saturation_amplitude_scale(self, two_stream_history):
        """Paper: 'the maximum electric field value ... approximately 0.1'."""
        _, hist, _ = two_stream_history
        a = hist.as_arrays()
        assert 0.03 < a["mode1"].max() < 0.3

    def test_energy_variation_within_paper_two_percent(self, two_stream_history):
        _, hist, _ = two_stream_history
        assert hist.energy_variation() < 0.02

    def test_momentum_conserved(self, two_stream_history):
        _, hist, _ = two_stream_history
        assert abs(hist.momentum_drift()) < 1e-12

    def test_phase_space_hole_forms(self, two_stream_history):
        """After saturation, particles mix: both beams blur together."""
        cfg, _, sim = two_stream_history
        spread_up, spread_down = beam_velocity_spread(sim.particles.v[0])
        assert spread_up > 2 * cfg.vth
        assert spread_down > 2 * cfg.vth


class TestColdBeamNumericalInstability:
    def test_stable_config_no_physical_growth_but_ripples(self):
        """v0=0.4 beams are linearly stable yet numerically heat up."""
        cfg = SimulationConfig(
            particles_per_cell=200, v0=0.4, vth=0.0, seed=2,
        )
        sim = TraditionalPIC(cfg)
        hist = sim.run(200)
        a = hist.as_arrays()
        # No exponential two-stream growth of E1...
        assert a["mode1"].max() < 0.02
        # ...but the beams acquire non-physical velocity spread (Fig. 6).
        spread_up, spread_down = beam_velocity_spread(sim.particles.v[0])
        assert max(spread_up, spread_down) > 1e-3

    def test_linear_theory_says_stable(self):
        k1 = 2 * np.pi / constants.TWO_STREAM_BOX_LENGTH
        assert growth_rate_cold(k1, 0.4) == 0.0


class TestPlasmaOscillation:
    def test_langmuir_oscillation_frequency(self):
        """A seeded density perturbation of a cold stationary plasma
        oscillates at the plasma frequency (omega_pe = 1)."""
        cfg = SimulationConfig(
            n_cells=64, particles_per_cell=200, v0=1e-9, vth=0.0,
            loading="quiet", perturbation=0.01, perturbation_mode=1,
            dt=0.05, seed=3,
        )
        sim = TraditionalPIC(cfg)
        hist = sim.run(500)  # 25 time units ~ 4 plasma periods
        a = hist.as_arrays()
        e1 = a["mode1"]
        # Count zero crossings of the oscillating mode-1 field energy proxy:
        # E1 amplitude touches ~0 twice per plasma period.
        signal = e1 - e1.mean()
        crossings = np.count_nonzero(np.diff(np.signbit(signal)))
        period_estimate = 2 * a["time"][-1] / crossings
        omega = 2 * np.pi / (2 * period_estimate)  # |E1| has half the period
        assert omega == pytest.approx(1.0, rel=0.15)


class TestInterpolationOrderAblation:
    def test_higher_order_suppresses_high_k_deposit_noise(self):
        """TSC deposits are smoother than NGP: the upper half of the
        charge-density spectrum carries much less shot noise."""
        from repro.pic.diagnostics import mode_spectrum

        high_k_noise = {}
        for order in ("ngp", "cic", "tsc"):
            cfg = SimulationConfig(
                n_cells=64, particles_per_cell=100, vth=0.0, v0=0.2,
                interpolation=order, seed=4,
            )
            sim = TraditionalPIC(cfg)
            spectrum = mode_spectrum(sim.field_solver.last_rho[0])
            high_k_noise[order] = float(spectrum[16:].sum())
        assert high_k_noise["cic"] < high_k_noise["ngp"]
        assert high_k_noise["tsc"] < 0.7 * high_k_noise["ngp"]
        assert high_k_noise["tsc"] < high_k_noise["cic"]
