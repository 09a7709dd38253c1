"""Spectral error analysis (the paper's proposed follow-up study)."""

import numpy as np
import pytest

from repro.theory.spectral import ErrorSpectrum, field_error_spectrum


def _x(n=64):
    return 2 * np.pi * np.arange(n) / n


class TestFieldErrorSpectrum:
    def test_perfect_prediction_zero_error(self):
        truth = np.sin(_x())[None, :]
        spec = field_error_spectrum(truth, truth)
        np.testing.assert_allclose(spec.error_amplitude, 0.0, atol=1e-14)
        assert spec.signal_amplitude[1] == pytest.approx(1.0, rel=1e-10)

    def test_error_isolated_in_injected_mode(self):
        x = _x()
        truth = np.sin(x)
        pred = truth + 0.05 * np.sin(3 * x)
        spec = field_error_spectrum(pred[None, :], truth[None, :])
        assert spec.dominant_error_mode == 3
        assert spec.error_amplitude[3] == pytest.approx(0.05, rel=1e-10)
        assert spec.error_amplitude[1] == pytest.approx(0.0, abs=1e-12)

    def test_rms_over_samples(self):
        x = _x()
        truth = np.stack([np.sin(x), np.sin(x)])
        pred = truth.copy()
        pred[0] += 0.1 * np.cos(2 * x)  # error only in sample 0
        spec = field_error_spectrum(pred, truth)
        assert spec.error_amplitude[2] == pytest.approx(0.1 / np.sqrt(2), rel=1e-10)

    def test_relative_spectrum(self):
        x = _x()
        truth = 0.2 * np.sin(x)
        pred = truth + 0.02 * np.sin(x)
        spec = field_error_spectrum(pred[None, :], truth[None, :])
        assert spec.relative[1] == pytest.approx(0.1, rel=1e-9)

    def test_low_k_fraction(self):
        x = _x()
        truth = np.zeros_like(x)
        pred = 0.1 * np.sin(2 * x) + 0.1 * np.sin(20 * x)
        spec = field_error_spectrum(pred[None, :], truth[None, :])
        assert spec.low_k_fraction(cutoff=4) == pytest.approx(0.5, rel=1e-9)

    def test_low_k_fraction_all_low(self):
        x = _x()
        pred = 0.1 * np.sin(x)
        spec = field_error_spectrum(pred[None, :], np.zeros((1, 64)))
        assert spec.low_k_fraction(cutoff=4) == pytest.approx(1.0)

    def test_low_k_fraction_zero_error(self):
        truth = np.sin(_x())[None, :]
        spec = field_error_spectrum(truth, truth)
        assert spec.low_k_fraction() == 0.0

    def test_cutoff_validation(self):
        truth = np.sin(_x())[None, :]
        spec = field_error_spectrum(truth, truth)
        with pytest.raises(ValueError):
            spec.low_k_fraction(cutoff=0)
        with pytest.raises(ValueError):
            spec.low_k_fraction(cutoff=33)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            field_error_spectrum(np.zeros((2, 8)), np.zeros((3, 8)))
        with pytest.raises(ValueError):
            field_error_spectrum(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_single_1d_pair_accepted(self):
        x = _x(16)
        spec = field_error_spectrum(np.sin(x), np.sin(x))
        assert spec.modes.shape == (9,)


class TestSolverErrorSpectrum:
    def test_on_trained_tiny_solver(self, tiny_trained_solver, tiny_solver_config):
        """The tiny solver's error spectrum is finite and its largest
        *relative* failure sits away from the physically dominant mode 1
        (which carries the training signal)."""
        from repro.datagen.campaign import harvest_via_client
        from repro.theory.spectral import solver_error_spectrum

        data = harvest_via_client(
            [tiny_solver_config], tiny_trained_solver.ps_grid, binning="ngp"
        )
        spec = solver_error_spectrum(tiny_trained_solver, data)
        assert np.all(np.isfinite(spec.error_amplitude))
        # Mode 1 carries most of the signal energy in a two-stream run.
        assert spec.signal_amplitude[1] == spec.signal_amplitude[1:].max()
