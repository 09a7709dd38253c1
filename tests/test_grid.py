"""Grid1D geometry and spectral bookkeeping."""

import numpy as np
import pytest

from repro.pic.grid import Grid1D, wrap_into_box


class TestGeometry:
    def test_dx(self):
        assert Grid1D(10, 2.0).dx == pytest.approx(0.2)

    def test_nodes_start_at_zero(self):
        grid = Grid1D(8, 4.0)
        assert grid.nodes[0] == 0.0
        assert np.allclose(np.diff(grid.nodes), grid.dx)

    def test_last_node_inside_domain(self):
        grid = Grid1D(8, 4.0)
        assert grid.nodes[-1] < grid.length

    def test_cell_centers_offset_half(self):
        grid = Grid1D(4, 2.0)
        assert np.allclose(grid.cell_centers - grid.nodes, 0.5 * grid.dx)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Grid1D(1, 1.0)
        with pytest.raises(ValueError):
            Grid1D(8, 0.0)


class TestWavenumbers:
    def test_fundamental(self):
        grid = Grid1D(16, 2.0 * np.pi)
        assert grid.fundamental_wavenumber == pytest.approx(1.0)

    def test_rfft_wavenumbers_multiples_of_fundamental(self):
        grid = Grid1D(16, 2.0 * np.pi / 3.06)
        k = grid.rfft_wavenumbers()
        assert k[0] == 0.0
        assert k[1] == pytest.approx(3.06)
        assert np.allclose(k, 3.06 * np.arange(9))

    def test_full_wavenumbers_match_fft_convention(self):
        grid = Grid1D(8, 1.0)
        assert np.allclose(grid.wavenumbers(), 2 * np.pi * np.fft.fftfreq(8, d=grid.dx))


class TestWrap:
    def test_wrap_into_domain(self):
        grid = Grid1D(8, 2.0)
        x = np.array([-0.5, 0.0, 1.9, 2.0, 2.5, -2.0])
        wrapped = grid.wrap(x)
        assert np.all(wrapped >= 0.0)
        assert np.all(wrapped < grid.length)

    def test_wrap_preserves_interior_points(self):
        grid = Grid1D(8, 2.0)
        x = np.array([0.1, 1.0, 1.99])
        assert np.allclose(grid.wrap(x), x)

    def test_wrap_is_periodic(self):
        grid = Grid1D(8, 2.0)
        x = np.linspace(0, 1.9, 7)
        assert np.allclose(grid.wrap(x + 3 * grid.length), x)


class TestWrapIntoBox:
    """The in-box wrap is ``np.mod`` bit for bit, whichever sides it skips."""

    LENGTH = 2.0 * np.pi / 3.06

    def _check(self, y):
        out = y.copy()
        with np.errstate(invalid="ignore"):
            ref = np.mod(y, self.LENGTH)
            wrap_into_box(out, self.LENGTH, np.empty(out.shape, dtype=bool))
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("low, high", [
        (-1.0, 2.0),  # both sides crossed
        (0.0, 2.0),  # only the upper edge
        (-1.0, 1.0),  # only the lower edge
        (0.0, 1.0),  # inside already
        (-5.0, 5.0),  # beyond [-L, 2L): np.mod itself
    ])
    def test_random_rows_match_np_mod(self, low, high):
        rng = np.random.default_rng(3)
        y = rng.uniform(low * self.LENGTH, high * self.LENGTH, size=(3, 400))
        self._check(y)
        self._check(y[0])

    def test_signed_zero_and_edges_match_np_mod(self):
        length = self.LENGTH
        self._check(np.array([-0.0, 0.0, 0.5]))
        self._check(np.array([-0.0, -1e-17, length, 2.0 * length - np.spacing(2.0 * length)]))

    def test_nan_and_infinities_take_np_mod(self):
        length = self.LENGTH
        self._check(np.array([np.nan, 3.0 * length, -1.5 * length, 0.5]))
        self._check(np.array([np.nan, np.inf, -np.inf, 1.5 * length]))

    def test_empty_is_a_no_op(self):
        self._check(np.empty((2, 0)))
