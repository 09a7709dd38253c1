"""Phase-space binning (the paper's Fig. 2 first grey box)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.workspace import Workspace
from repro.phasespace import binning
from repro.phasespace.binning import PhaseSpaceGrid, bin_phase_space, bin_phase_space_batch
from repro.pic.grid import Grid1D
from repro.pic.interpolation import build_stencil


@pytest.fixture
def grid() -> PhaseSpaceGrid:
    return PhaseSpaceGrid(n_x=8, n_v=4, box_length=2.0, v_min=-1.0, v_max=1.0)


class TestGridGeometry:
    def test_bin_widths(self, grid):
        assert grid.dx == pytest.approx(0.25)
        assert grid.dv == pytest.approx(0.5)

    def test_shape_and_size(self, grid):
        assert grid.shape == (4, 8)
        assert grid.size == 32

    def test_edges(self, grid):
        assert grid.x_edges()[0] == 0.0
        assert grid.x_edges()[-1] == pytest.approx(2.0)
        assert grid.v_edges()[0] == -1.0
        assert grid.v_edges()[-1] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_x": 0},
            {"n_v": 0},
            {"v_min": 1.0, "v_max": -1.0},
            {"box_length": 0.0},
        ],
    )
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(**{"n_x": 8, "n_v": 4, **kwargs})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_x", 2.5),
            ("n_x", True),
            ("n_v", 8.0),
            ("n_v", "8"),
            ("v_min", float("nan")),
            ("v_max", float("inf")),
            ("v_min", -float("inf")),
            ("box_length", float("inf")),
            ("box_length", float("nan")),
            ("v_max", True),
            ("v_min", "-1"),
        ],
    )
    def test_malformed_field_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            PhaseSpaceGrid(**{"n_x": 8, "n_v": 4, name: value})

    def test_numpy_scalars_stored_as_python_numbers(self):
        grid = PhaseSpaceGrid(n_x=np.int64(8), n_v=np.int32(4), v_min=np.float32(-1.0))
        assert type(grid.n_x) is int and type(grid.n_v) is int
        assert type(grid.v_min) is float
        assert grid == PhaseSpaceGrid(n_x=8, n_v=4, v_min=-1.0)


class TestNGPBinning:
    def test_total_mass_equals_particle_count(self, grid):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, grid.box_length, 300)
        v = rng.normal(0, 0.4, 300)
        hist = bin_phase_space(x, v, grid, order="ngp")
        assert hist.sum() == pytest.approx(300.0)

    def test_known_placement(self, grid):
        # x = 0.3 -> x-bin 1 (width 0.25); v = 0.25 -> v-bin 2 ([0, 0.5)).
        hist = bin_phase_space(np.array([0.3]), np.array([0.25]), grid, order="ngp")
        assert hist[2, 1] == 1.0
        assert hist.sum() == 1.0

    def test_out_of_window_velocity_clipped_to_edge(self, grid):
        hist = bin_phase_space(np.array([0.1, 0.1]), np.array([5.0, -5.0]), grid)
        assert hist[grid.n_v - 1, 0] == 1.0
        assert hist[0, 0] == 1.0

    def test_position_wraps_periodically(self, grid):
        a = bin_phase_space(np.array([0.3]), np.array([0.0]), grid)
        b = bin_phase_space(np.array([0.3 + grid.box_length]), np.array([0.0]), grid)
        np.testing.assert_array_equal(a, b)

    def test_counts_are_integers(self, grid):
        rng = np.random.default_rng(1)
        hist = bin_phase_space(rng.uniform(0, 2, 50), rng.normal(size=50), grid)
        np.testing.assert_array_equal(hist, np.round(hist))

    def test_two_beams_occupy_two_rows(self):
        grid = PhaseSpaceGrid(n_x=16, n_v=16, box_length=2.0, v_min=-0.5, v_max=0.5)
        n = 400
        x = np.linspace(0, 2, n, endpoint=False)
        v = np.where(np.arange(n) % 2 == 0, 0.2, -0.2)
        hist = bin_phase_space(x, v, grid)
        occupied_rows = np.nonzero(hist.sum(axis=1))[0]
        assert len(occupied_rows) == 2

    def test_dtype_argument(self, grid):
        hist = bin_phase_space(np.array([0.1]), np.array([0.0]), grid, dtype=np.float32)
        assert hist.dtype == np.float32


class TestCICBinning:
    def test_total_mass_conserved(self, grid):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, grid.box_length, 500)
        v = rng.uniform(-0.9, 0.9, 500)
        hist = bin_phase_space(x, v, grid, order="cic")
        assert hist.sum() == pytest.approx(500.0, rel=1e-12)

    def test_mass_conserved_even_when_clipped(self, grid):
        hist = bin_phase_space(np.array([0.5]), np.array([10.0]), grid, order="cic")
        assert hist.sum() == pytest.approx(1.0, rel=1e-12)

    def test_particle_at_bin_center_is_pointlike(self, grid):
        # Center of x-bin 2 and v-bin 1.
        x = np.array([(2 + 0.5) * grid.dx])
        v = np.array([grid.v_min + (1 + 0.5) * grid.dv])
        hist = bin_phase_space(x, v, grid, order="cic")
        assert hist[1, 2] == pytest.approx(1.0)

    def test_bilinear_split(self, grid):
        # Quarter-offset from the center of x-bin 2 / v-bin 1.
        x = np.array([(2 + 0.75) * grid.dx])
        v = np.array([grid.v_min + (1 + 0.75) * grid.dv])
        hist = bin_phase_space(x, v, grid, order="cic")
        assert hist[1, 2] == pytest.approx(0.75 * 0.75)
        assert hist[1, 3] == pytest.approx(0.75 * 0.25)
        assert hist[2, 2] == pytest.approx(0.25 * 0.75)
        assert hist[2, 3] == pytest.approx(0.25 * 0.25)

    def test_cic_smoother_than_ngp(self):
        """CIC spreads mass: fewer empty bins for the same particles."""
        grid = PhaseSpaceGrid(n_x=32, n_v=32, box_length=2.0, v_min=-0.5, v_max=0.5)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 2, 2000)
        v = rng.normal(0, 0.2, 2000)
        ngp = bin_phase_space(x, v, grid, order="ngp")
        cic = bin_phase_space(x, v, grid, order="cic")
        assert np.count_nonzero(cic) >= np.count_nonzero(ngp)


class TestNGPFastPathExactness:
    """The fused-bincount NGP path must equal the classic scatter."""

    @pytest.mark.parametrize("n", [0, 1, 17, 500])
    def test_bincount_equals_add_at_scatter(self, grid, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1.0, 2 * grid.box_length, n)
        v = rng.normal(0, 0.8, n)  # tails outside the window -> clipped
        reference = np.zeros(grid.shape, dtype=np.float64)
        iv = np.clip(np.floor((v - grid.v_min) / grid.dv).astype(np.int64), 0, grid.n_v - 1)
        ix = np.floor(np.mod(x, grid.box_length) / grid.dx).astype(np.int64) % grid.n_x
        np.add.at(reference, (iv, ix), 1.0)
        np.testing.assert_array_equal(bin_phase_space(x, v, grid, order="ngp"), reference)


class TestBatchedBinning:
    @pytest.fixture
    def phase_space(self, grid):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 2 * grid.box_length, size=(5, 200))
        v = rng.normal(0, 0.6, size=(5, 200))
        return x, v

    @pytest.mark.parametrize("order", ["ngp", "cic"])
    def test_rows_match_single_run_bitwise(self, grid, phase_space, order):
        x, v = phase_space
        batched = bin_phase_space_batch(x, v, grid, order=order)
        assert batched.shape == (5, grid.n_v, grid.n_x)
        for b in range(5):
            np.testing.assert_array_equal(batched[b], bin_phase_space(x[b], v[b], grid, order=order))

    @pytest.mark.parametrize("order", ["ngp", "cic"])
    def test_mass_invariant_per_row(self, grid, phase_space, order):
        x, v = phase_space
        batched = bin_phase_space_batch(x, v, grid, order=order)
        np.testing.assert_allclose(batched.sum(axis=(1, 2)), x.shape[1], rtol=1e-12)

    def test_batch_of_one(self, grid):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, grid.box_length, 40)
        v = rng.normal(0, 0.3, 40)
        np.testing.assert_array_equal(
            bin_phase_space_batch(x[None], v[None], grid)[0], bin_phase_space(x, v, grid)
        )

    def test_dtype_argument(self, grid):
        out = bin_phase_space_batch(np.zeros((2, 3)), np.zeros((2, 3)), grid, dtype=np.float32)
        assert out.dtype == np.float32

    def test_1d_input_rejected(self, grid):
        with pytest.raises(ValueError, match="batch"):
            bin_phase_space_batch(np.zeros(3), np.zeros(3), grid)

    def test_mismatched_shapes_rejected(self, grid):
        with pytest.raises(ValueError):
            bin_phase_space_batch(np.zeros((2, 3)), np.zeros((2, 4)), grid)

    def test_unknown_order_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown binning order"):
            bin_phase_space_batch(np.zeros((1, 2)), np.zeros((1, 2)), grid, order="tsc")

    @staticmethod
    def _special_positions(grid: PhaseSpaceGrid) -> np.ndarray:
        """Cell edges, their neighbours, signed zeros, ``L`` and outliers."""
        length = grid.box_length
        edges = np.arange(grid.n_x + 1) * grid.dx
        return np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [0.0, -0.0, np.nextafter(length, 0.0), length, -length, -1e-300, 2.5 * length],
        ])

    # On the 24-cell grid x / dx rounds up to n_x just below L = 3.3, so
    # the in-place path must wrap it; at L = 2.1 it does not round up.
    GRIDS = [(n_x, length) for n_x in (16, 24) for length in (2.1, 3.3)]

    @pytest.mark.parametrize("n_x, box_length", GRIDS)
    @pytest.mark.parametrize("positions", ["wrapped", "with_L", "all"])
    def test_special_positions_match_reference(self, n_x, box_length, positions):
        """Every special position in ``[0, L)`` (the in-place path), then
        with ``L`` or every outlier added (the fallback)."""
        grid = PhaseSpaceGrid(n_x=n_x, n_v=4, box_length=box_length, v_min=-1.0, v_max=1.0)
        x = self._special_positions(grid)
        if positions != "all":
            x = x[(x >= 0.0) & (x < box_length)]
        if positions == "with_L":
            x = np.append(x, box_length)
        x = np.stack([x, x[::-1]])
        v = np.linspace(-1.5, 1.5, x.shape[1])[None].repeat(2, axis=0)
        batched = bin_phase_space_batch(x, v, grid)
        for b in range(2):
            np.testing.assert_array_equal(batched[b], bin_phase_space(x[b], v[b], grid))

    @given(data=st.data(), grid_shape=st.sampled_from(GRIDS),
           outliers=st.sampled_from(["none", "below", "above", "both"]),
           order=st.sampled_from(["ngp", "cic"]))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_reference_on_edges_and_outliers(self, data, grid_shape, outliers, order):
        """Mixed special and random positions, out-of-window and non-finite
        velocities: each row equals the 1-D reference, whether the batch
        is wrapped into ``[0, L)`` (the in-place index path) or holds
        positions below 0 or at and above ``L`` (the fallback)."""
        n_x, length = grid_shape
        grid = PhaseSpaceGrid(n_x=n_x, n_v=8, box_length=length, v_min=-1.0, v_max=1.0)
        specials = self._special_positions(grid)
        x_values = (st.sampled_from([x for x in specials if 0.0 <= x < length])
                    | st.floats(0.0, length, exclude_max=True))
        if outliers in ("below", "both"):
            x_values = (x_values | st.sampled_from([x for x in specials if x < 0.0])
                        | st.floats(-3 * length, 0.0, exclude_max=True))
        if outliers in ("above", "both"):
            x_values = (x_values | st.sampled_from([x for x in specials if x >= length])
                        | st.floats(length, 3 * length))
        batch = data.draw(st.integers(1, 4), label="batch")
        n = data.draw(st.integers(1, 30), label="n")
        x = np.array(data.draw(st.lists(x_values, min_size=batch * n, max_size=batch * n)))
        v = np.array(data.draw(st.lists(
            st.floats(-3.0, 3.0)
            | st.sampled_from([-1.0, 1.0, np.nextafter(1.0, 0.0), 1e300, np.inf, np.nan]),
            min_size=batch * n, max_size=batch * n,
        )))
        x, v = x.reshape(batch, n), v.reshape(batch, n)
        batched = bin_phase_space_batch(x, v, grid, order=order)
        for b in range(batch):
            np.testing.assert_array_equal(
                batched[b], bin_phase_space(x[b], v[b], grid, order=order)
            )

    @pytest.mark.parametrize("n_x, box_length", GRIDS)
    @pytest.mark.parametrize("positions", ["wrapped", "all", "non_finite"])
    def test_cic_stencil_left_nodes_are_the_x_bins(self, n_x, box_length, positions):
        """Handed the left nodes of a CIC stencil of ``x`` on the field grid
        equal to the x axis, the binning gives its own index's histograms."""
        grid = PhaseSpaceGrid(n_x=n_x, n_v=4, box_length=box_length, v_min=-1.0, v_max=1.0)
        x = self._special_positions(grid)
        if positions == "wrapped":
            x = x[(x >= 0.0) & (x < box_length)]
        elif positions == "non_finite":
            x = np.append(x, [np.nan, np.inf, -np.inf])
        x = np.stack([x, x[::-1]])
        v = np.linspace(-1.5, 1.5, x.shape[1])[None].repeat(2, axis=0)
        with np.errstate(invalid="ignore"):
            idx = build_stencil(Grid1D(n_x, box_length), x, Workspace(), "cic")
            handed = bin_phase_space_batch(x, v, grid, x_index=idx[:, 0])
            np.testing.assert_array_equal(handed, bin_phase_space_batch(x, v, grid))

    def test_x_index_serves_ngp_only(self, grid):
        x = np.zeros((1, 2))
        with pytest.raises(ValueError, match="NGP"):
            bin_phase_space_batch(x, x, grid, order="cic", x_index=np.zeros((1, 2), np.int64))

    def test_mod_reference_only_for_unwrapped_positions(self, grid, monkeypatch):
        """Positions in ``[0, L)`` skip the ``np.mod`` reference index."""
        calls = []
        original = binning._x_bins

        def counted(x, g):
            calls.append(x.shape)
            return original(x, g)

        monkeypatch.setattr(binning, "_x_bins", counted)
        x = np.array([[0.0, -0.0, np.nextafter(grid.box_length, 0.0)]])
        v = np.zeros_like(x)
        bin_phase_space_batch(x, v, grid)
        assert calls == []
        bin_phase_space_batch(np.append(x, [[grid.box_length]], axis=1), np.zeros((1, 4)), grid)
        assert calls == [(1, 4)]


class TestExtremeVelocities:
    """A velocity the int cast cannot hold lands in its edge row with unit mass."""

    @pytest.mark.parametrize("order", ["ngp", "cic"])
    @pytest.mark.parametrize("value, row", [
        (np.inf, -1), (1e300, -1), (-np.inf, 0), (-1e300, 0), (np.nan, 0),
    ])
    def test_lands_in_edge_row_with_unit_mass(self, grid, order, value, row):
        x = np.array([0.3, 0.9, 1.7])
        v = np.array([0.25, value, -0.3])
        hist = bin_phase_space(x, v, grid, order=order)
        assert np.all(np.isfinite(hist))
        assert hist.sum() == pytest.approx(3.0, rel=1e-12)
        alone = bin_phase_space(x[1:2], v[1:2], grid, order=order)
        assert alone[row].sum() == pytest.approx(1.0, rel=1e-12)
        batched = bin_phase_space_batch(np.stack([x, x[::-1]]), np.stack([v, v[::-1]]),
                                        grid, order=order)
        np.testing.assert_array_equal(batched[0], hist)
        np.testing.assert_array_equal(
            batched[1], bin_phase_space(x[::-1], v[::-1], grid, order=order)
        )


class TestValidation:
    def test_mismatched_shapes_rejected(self, grid):
        with pytest.raises(ValueError):
            bin_phase_space(np.zeros(3), np.zeros(4), grid)

    def test_2d_input_rejected(self, grid):
        with pytest.raises(ValueError):
            bin_phase_space(np.zeros((2, 2)), np.zeros((2, 2)), grid)

    def test_unknown_order_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown binning order"):
            bin_phase_space(np.zeros(2), np.zeros(2), grid, order="tsc")


class TestBinningProperties:
    @given(
        n=st.integers(min_value=1, max_value=200),
        order=st.sampled_from(["ngp", "cic"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_mass_invariant(self, n, order, seed):
        grid = PhaseSpaceGrid(n_x=8, n_v=8, box_length=1.0, v_min=-1.0, v_max=1.0)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, n)
        v = rng.normal(0, 1.5, n)  # often outside the window -> clipped
        hist = bin_phase_space(x, v, grid, order=order)
        assert hist.sum() == pytest.approx(float(n), rel=1e-9)
        assert np.all(hist >= 0)
