"""Leapfrog pushers."""

import numpy as np
import pytest

from repro.kernels import ThreadedBackend
from repro.pic.interpolation import Workspace
from repro.pic.mover import (
    push_positions,
    push_velocities,
    rewind_velocities,
)


class TestLeapfrog:
    def test_velocity_update_eq2(self):
        v = np.array([1.0, -2.0])
        e = np.array([0.5, 0.5])
        out = push_velocities(v, e, qm=-1.0, dt=0.2)
        np.testing.assert_allclose(out, v - 0.1)

    def test_position_update_eq1(self):
        x = np.array([0.1, 0.5])
        v = np.array([1.0, -1.0])
        out = push_positions(x, v, dt=0.2, length=2.0)
        np.testing.assert_allclose(out, [0.3, 0.3])

    def test_position_wraps_periodically(self):
        x = np.array([1.9, 0.05])
        v = np.array([1.0, -1.0])
        out = push_positions(x, v, dt=0.2, length=2.0)
        np.testing.assert_allclose(out, [0.1, 1.85])

    def test_free_streaming_many_steps(self):
        x = np.array([0.0])
        v = np.array([0.3])
        for _ in range(100):
            x = push_positions(x, v, dt=0.1, length=1.0)
        np.testing.assert_allclose(x, [3.0 % 1.0], atol=1e-12)

    def test_rewind_then_push_recovers_initial_velocity(self):
        v = np.array([0.7, -0.4])
        e = np.array([0.2, -0.1])
        half_back = rewind_velocities(v, e, qm=-1.0, dt=0.2)
        forward = push_velocities(half_back, e, qm=-1.0, dt=0.2)
        # rewind is half a step, push is a full step: net +half step.
        np.testing.assert_allclose(forward, v + 0.5 * (-1.0) * e * 0.2)

    def test_time_reversibility(self):
        """Leapfrog drift-kick with E=0 is exactly reversible."""
        rng = np.random.default_rng(0)
        x0 = rng.uniform(0, 1, 50)
        v0 = rng.normal(size=50)
        x = push_positions(x0, v0, dt=0.1, length=1.0)
        x_back = push_positions(x, -v0, dt=0.1, length=1.0)
        np.testing.assert_allclose(x_back, x0, atol=1e-12)

    def test_zero_field_keeps_velocity(self):
        v = np.array([0.5])
        assert push_velocities(v, np.zeros(1), qm=-1.0, dt=0.2)[0] == 0.5


L_PAPER = 2.0 * np.pi / 3.06


def _bits(a: np.ndarray) -> bytes:
    """Raw bytes: equality here also tells -0.0 from +0.0."""
    return np.ascontiguousarray(a).tobytes()


class TestPeriodicWrap:
    """float64 push_positions is bitwise ``np.mod(x + v * dt, L)``."""

    @pytest.mark.parametrize("length", [L_PAPER, 1.0, 2.0, 0.3])
    def test_random_data_matches_np_mod(self, length):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, length, size=(4, 5000))
        v = rng.normal(0.0, 2.0 * length, size=x.shape)  # some |v dt| > L
        ref = np.mod(x + v * 0.2, length)
        assert _bits(push_positions(x, v, 0.2, length)) == _bits(ref)
        assert _bits(push_positions(x[1], v[1], 0.2, length)) == _bits(ref[1])

    def test_threaded_rows_and_reused_workspace_match(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, L_PAPER, size=(6, 3000))
        v = rng.normal(0.0, 0.3, size=x.shape)
        ref = np.mod(x + v * 0.2, L_PAPER)
        work = Workspace()
        for _ in range(2):
            out = push_positions(
                x, v, 0.2, L_PAPER, backend=ThreadedBackend(max_workers=3), work=work
            )
            assert _bits(out) == _bits(ref)

    @pytest.mark.parametrize("length", [L_PAPER, 1.0])
    def test_edge_values(self, length):
        eps = np.spacing(2.0 * length)
        y = np.array([
            -0.0, 0.0, length, -1e-17, 2.0 * length - eps, -length,
            np.nextafter(length, 0.0), np.nextafter(0.0, -1.0), -length + eps,
        ])
        # v = -0.0 makes x + v * dt == x exactly, -0.0 included.
        out = push_positions(y, np.full_like(y, -0.0), 0.2, length)
        assert _bits(out) == _bits(np.mod(y, length))
        assert np.signbit(out[0]) == np.signbit(np.mod(-0.0, length))  # +0.0
        assert out[3] == length  # -1e-17 + L rounds to L, as np.mod does

    def test_displacement_of_a_box_or_more_takes_the_fallback(self):
        length = L_PAPER
        x = np.array([0.5, 0.1, 0.9, 0.3]) * length
        v = np.array([1.7, -1.3, 5.0, 1.0]) * length / 0.2  # >= one box per step
        out = push_positions(x, v, 0.2, length)
        ref = np.mod(x + v * 0.2, length)
        assert _bits(out) == _bits(ref)
        assert np.all((out >= 0.0) & (out < length))

    def test_float32_floor_wrap_unchanged(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, L_PAPER, size=(4, 4000)).astype(np.float32)
        v = rng.normal(0.0, 0.5, size=x.shape).astype(np.float32)
        ref = x + v * 0.2
        ref -= np.floor(ref / np.float32(L_PAPER)) * np.float32(L_PAPER)
        out = push_positions(x, v, 0.2, L_PAPER)
        assert out.dtype == np.float32
        assert _bits(out) == _bits(ref)
        threaded = push_positions(x, v, 0.2, L_PAPER, backend=ThreadedBackend(max_workers=3))
        assert _bits(threaded) == _bits(ref)


class TestHarmonicOscillator:
    def test_leapfrog_energy_bounded_on_sho(self):
        """Kick-drift on E = -x (unit frequency): energy oscillates but
        stays bounded over thousands of periods (symplecticity)."""
        dt = 0.1
        x, v = 1.0, 0.0
        v -= 0.5 * dt * (-x)  # rewind to t - dt/2 with acceleration a = -x
        energies = []
        for _ in range(5000):
            v += dt * (-x)
            x += v * dt
            v_sync = v + 0.5 * dt * (-x)
            energies.append(0.5 * v_sync**2 + 0.5 * x**2)
        energies = np.asarray(energies)
        assert np.max(np.abs(energies - 0.5)) < 0.02
