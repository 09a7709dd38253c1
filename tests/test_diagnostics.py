"""Energy, momentum and spectral diagnostics."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engines.observables import Observables, resolve_observables
from repro.pic.diagnostics import (
    field_energy,
    kinetic_energy,
    mode_amplitude,
    mode_spectrum,
    total_momentum,
)
from repro.pic.grid import Grid1D
from repro.pic.particles import ParticleSet


def squeezed_history() -> Observables:
    """The single-run recorder that replaced the retired ``History``."""
    return Observables(resolve_observables(None), squeeze=True)


def record(hist, step, time, grid, ps, e, v_center=None) -> None:
    """Record a hand-built single-run state holding the engine attributes."""
    hist.record_frame(SimpleNamespace(
        step_index=step, time=time, grid=grid, efield=e, particles=ps,
        v_at_integer_time=ps.v if v_center is None else v_center,
    ))


@pytest.fixture
def grid() -> Grid1D:
    return Grid1D(32, 2.0 * np.pi)


class TestEnergies:
    def test_kinetic_energy(self):
        ps = ParticleSet(np.zeros(3), np.array([1.0, 2.0, -2.0]), charge=-1.0, mass=0.5)
        assert kinetic_energy(ps) == pytest.approx(0.5 * 0.5 * 9.0)

    def test_kinetic_energy_with_override_velocities(self):
        ps = ParticleSet(np.zeros(2), np.zeros(2), charge=-1.0, mass=1.0)
        assert kinetic_energy(ps, v=np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_field_energy_of_sine(self, grid):
        e = np.sin(grid.nodes)
        # (1/2) integral sin^2 over [0, 2pi] = pi/2.
        assert field_energy(grid, e) == pytest.approx(np.pi / 2, rel=1e-12)

    def test_field_energy_scales_with_eps0(self, grid):
        e = np.sin(grid.nodes)
        assert field_energy(grid, e, eps0=2.0) == pytest.approx(2 * field_energy(grid, e))

    def test_field_energy_shape_check(self, grid):
        with pytest.raises(ValueError):
            field_energy(grid, np.zeros(5))

    def test_momentum(self):
        ps = ParticleSet(np.zeros(2), np.array([1.0, -3.0]), charge=-1.0, mass=2.0)
        assert total_momentum(ps) == pytest.approx(-4.0)


class TestModeAmplitude:
    def test_pure_sine_mode(self, grid):
        e = 0.3 * np.sin(2 * grid.nodes)
        assert mode_amplitude(e, mode=2) == pytest.approx(0.3, rel=1e-12)
        assert mode_amplitude(e, mode=1) == pytest.approx(0.0, abs=1e-12)

    def test_pure_cosine_mode(self, grid):
        e = 0.7 * np.cos(grid.nodes)
        assert mode_amplitude(e, mode=1) == pytest.approx(0.7, rel=1e-12)

    def test_dc_mode(self, grid):
        e = np.full(grid.n_cells, 1.5)
        assert mode_amplitude(e, mode=0) == pytest.approx(1.5, rel=1e-12)

    def test_mixed_phase_amplitude(self, grid):
        e = 0.3 * np.sin(grid.nodes) + 0.4 * np.cos(grid.nodes)
        assert mode_amplitude(e, mode=1) == pytest.approx(0.5, rel=1e-12)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            mode_amplitude(np.zeros(8), mode=5)

    def test_spectrum_matches_individual_modes(self, grid):
        e = 0.2 * np.sin(grid.nodes) + 0.5 * np.cos(3 * grid.nodes)
        spec = mode_spectrum(e)
        assert spec[1] == pytest.approx(0.2, rel=1e-12)
        assert spec[3] == pytest.approx(0.5, rel=1e-12)
        assert spec.shape == (grid.n_cells // 2 + 1,)

    def test_nyquist_mode_normalization(self):
        n = 8
        x = np.arange(n)
        e = 0.4 * np.cos(np.pi * x)  # Nyquist pattern (+,-,+,-)
        assert mode_amplitude(e, mode=n // 2) == pytest.approx(0.4, rel=1e-12)


class TestSqueezedObservables:
    def _record_n(self, hist: Observables, grid: Grid1D, n: int) -> None:
        ps = ParticleSet(np.zeros(4), np.full(4, 0.1), charge=-1.0, mass=1.0)
        for i in range(n):
            record(hist, i, 0.2 * i, grid, ps, np.sin(grid.nodes) * (1 + 0.1 * i))

    def test_lengths(self, grid):
        hist = squeezed_history()
        self._record_n(hist, grid, 5)
        assert len(hist) == 5
        arrays = hist.as_arrays()
        for key in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
            assert arrays[key].shape == (5,)

    def test_total_is_sum(self, grid):
        hist = squeezed_history()
        self._record_n(hist, grid, 3)
        a = hist.as_arrays()
        np.testing.assert_allclose(a["total"], a["kinetic"] + a["potential"])

    def test_energy_variation(self, grid):
        hist = squeezed_history()
        self._record_n(hist, grid, 4)
        a = hist.as_arrays()
        expected = np.max(np.abs(a["total"] - a["total"][0])) / a["total"][0]
        assert hist.energy_variation() == pytest.approx(expected)

    def test_momentum_drift(self, grid):
        hist = squeezed_history()
        ps = ParticleSet(np.zeros(2), np.array([0.1, 0.1]), charge=-1.0, mass=1.0)
        record(hist, 0, 0.0, grid, ps, np.zeros(grid.n_cells))
        ps.v = np.array([0.2, 0.2])
        record(hist, 1, 0.2, grid, ps, np.zeros(grid.n_cells))
        assert hist.momentum_drift() == pytest.approx(0.2)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            squeezed_history().energy_variation()
        with pytest.raises(ValueError):
            squeezed_history().momentum_drift()

    def test_record_fields_option(self, grid):
        hist = Observables(resolve_observables(["energies", "mode1", "fields"]), squeeze=True)
        self._record_n(hist, grid, 3)
        assert hist.as_arrays()["fields"].shape == (3, grid.n_cells)

    def test_v_center_override_used(self, grid):
        hist = squeezed_history()
        ps = ParticleSet(np.zeros(2), np.zeros(2), charge=-1.0, mass=1.0)
        record(hist, 0, 0.0, grid, ps, np.zeros(grid.n_cells),
               v_center=np.array([1.0, 1.0]))
        assert hist["kinetic"][0] == pytest.approx(1.0)
        assert hist["momentum"][0] == pytest.approx(2.0)


class TestRetiredShims:
    def test_measurement_functions_still_importable(self):
        from repro.pic.diagnostics import kinetic_energy_rows  # noqa: F401
