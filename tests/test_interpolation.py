"""Particle-grid interpolation: conservation, exactness, adjointness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pic import interpolation
from repro.pic.grid import Grid1D, wrap_positions
from repro.pic.interpolation import Workspace, charge_density, deposit, gather

ORDERS = ["ngp", "cic", "tsc"]


@pytest.fixture
def grid() -> Grid1D:
    return Grid1D(16, 4.0)


class TestDepositConservation:
    @pytest.mark.parametrize("order", ORDERS)
    def test_total_charge_conserved(self, grid, order):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, grid.length, 500)
        w = rng.normal(size=500)
        rho = deposit(grid, x, w, order=order)
        assert rho.sum() * grid.dx == pytest.approx(w.sum(), rel=1e-12)

    @pytest.mark.parametrize("order", ORDERS)
    def test_scalar_weight_broadcast(self, grid, order):
        x = np.linspace(0.1, 3.9, 50)
        rho = deposit(grid, x, 2.0, order=order)
        assert rho.sum() * grid.dx == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("order", ORDERS)
    def test_deposit_is_linear_in_weights(self, grid, order):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, grid.length, 100)
        w1 = rng.normal(size=100)
        w2 = rng.normal(size=100)
        combined = deposit(grid, x, w1 + 2.0 * w2, order=order)
        separate = deposit(grid, x, w1, order=order) + 2.0 * deposit(grid, x, w2, order=order)
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    @pytest.mark.parametrize("order", ORDERS)
    def test_positions_outside_domain_are_wrapped(self, grid, order):
        x = np.array([0.5, 0.5 + grid.length, 0.5 - grid.length])
        rho = deposit(grid, x, 1.0, order=order)
        single = deposit(grid, np.array([0.5]), 3.0, order=order)
        np.testing.assert_allclose(rho, single, atol=1e-12)


class TestDepositPlacement:
    def test_ngp_puts_particle_on_nearest_node(self, grid):
        # x = 0.3 with dx = 0.25: nearest node is index 1 (x = 0.25).
        rho = deposit(grid, np.array([0.3]), 1.0, order="ngp")
        assert rho[1] == pytest.approx(1.0 / grid.dx)
        assert np.count_nonzero(rho) == 1

    def test_ngp_wraps_to_node_zero_near_right_edge(self, grid):
        x = np.array([grid.length - 0.25 * grid.dx])
        rho = deposit(grid, x, 1.0, order="ngp")
        assert rho[0] == pytest.approx(1.0 / grid.dx)

    def test_cic_splits_linearly(self, grid):
        # Particle 30% into cell 2.
        x = np.array([(2 + 0.3) * grid.dx])
        rho = deposit(grid, x, 1.0, order="cic")
        assert rho[2] == pytest.approx(0.7 / grid.dx)
        assert rho[3] == pytest.approx(0.3 / grid.dx)
        assert np.count_nonzero(rho) == 2

    def test_cic_on_node_is_pointlike(self, grid):
        rho = deposit(grid, np.array([3 * grid.dx]), 1.0, order="cic")
        assert rho[3] == pytest.approx(1.0 / grid.dx)
        assert np.count_nonzero(rho) == 1

    def test_tsc_spreads_over_three_nodes(self, grid):
        rho = deposit(grid, np.array([3 * grid.dx]), 1.0, order="tsc")
        assert np.count_nonzero(rho) == 3
        assert rho[3] == pytest.approx(0.75 / grid.dx)
        assert rho[2] == pytest.approx(0.125 / grid.dx)
        assert rho[4] == pytest.approx(0.125 / grid.dx)

    def test_unknown_order_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown interpolation"):
            deposit(grid, np.array([0.1]), 1.0, order="cubic")


class TestGather:
    @pytest.mark.parametrize("order", ORDERS)
    def test_constant_field_gathered_exactly(self, grid, order):
        field = np.full(grid.n_cells, 3.25)
        x = np.random.default_rng(2).uniform(0, grid.length, 200)
        np.testing.assert_allclose(gather(grid, field, x, order=order), 3.25, atol=1e-12)

    def test_cic_linear_field_exact_between_nodes(self, grid):
        # CIC reproduces linear functions exactly away from the wrap point.
        field = 2.0 * grid.nodes
        x = np.linspace(0.3 * grid.dx, grid.length - 1.5 * grid.dx, 40)
        np.testing.assert_allclose(gather(grid, field, x, order="cic"), 2.0 * x, atol=1e-12)

    def test_ngp_gather_is_piecewise_constant(self, grid):
        field = np.arange(grid.n_cells, dtype=float)
        x = np.array([0.3])  # nearest node 1
        assert gather(grid, field, x, order="ngp")[0] == 1.0

    def test_gather_validates_field_shape(self, grid):
        with pytest.raises(ValueError, match="field has shape"):
            gather(grid, np.zeros(5), np.array([0.1]))

    def test_gather_unknown_order(self, grid):
        with pytest.raises(ValueError, match="unknown interpolation"):
            gather(grid, np.zeros(grid.n_cells), np.array([0.1]), order="q")

    @pytest.mark.parametrize("order", ORDERS)
    def test_gather_deposit_adjointness(self, grid, order):
        """sum_p w_p F(x_p) == dx * sum_j F_j * deposit(w)_j.

        Gather and deposit use the same shape functions, which is the
        algebraic root of momentum conservation in the PIC cycle.
        """
        rng = np.random.default_rng(3)
        x = rng.uniform(0, grid.length, 300)
        w = rng.normal(size=300)
        field = rng.normal(size=grid.n_cells)
        lhs = np.sum(w * gather(grid, field, x, order=order))
        rhs = grid.dx * np.sum(field * deposit(grid, x, w, order=order))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestChargeDensity:
    def test_neutral_plasma_has_zero_mean_density(self, grid):
        rng = np.random.default_rng(4)
        n = 800
        x = rng.uniform(0, grid.length, n)
        q_p = -grid.length / n
        rho = charge_density(grid, x, q_p, order="cic", background=1.0)
        assert rho.mean() == pytest.approx(0.0, abs=1e-12)

    def test_background_shifts_density_uniformly(self, grid):
        x = np.array([1.0])
        rho0 = charge_density(grid, x, -0.1, background=0.0)
        rho1 = charge_density(grid, x, -0.1, background=2.5)
        np.testing.assert_allclose(rho1 - rho0, 2.5, atol=1e-12)


class TestDepositProperties:
    @given(
        positions=st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=60
        ),
        order=st.sampled_from(ORDERS),
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_conservation_property(self, positions, order):
        grid = Grid1D(12, 3.0)
        x = np.asarray(positions)
        rho = deposit(grid, x, 1.0, order=order)
        assert rho.sum() * grid.dx == pytest.approx(len(positions), rel=1e-9)

    @given(
        shift=st.integers(min_value=-24, max_value=24),
        order=st.sampled_from(ORDERS),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance_by_whole_cells(self, shift, order):
        """Shifting particles by k cells rolls the deposited density by k."""
        grid = Grid1D(12, 3.0)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, grid.length, 50)
        rho = deposit(grid, x, 1.0, order=order)
        rho_shifted = deposit(grid, x + shift * grid.dx, 1.0, order=order)
        np.testing.assert_allclose(rho_shifted, np.roll(rho, shift), atol=1e-9)


def _add_at_deposit(grid, positions, weights, order):
    """The reference scatter: one ``np.add.at`` per row, node block by
    node block in particle order, of the weighted stencil."""
    x = wrap_positions(interpolation._check_positions(positions), grid.length)
    x2 = np.atleast_2d(x)
    w2 = np.atleast_2d(np.broadcast_to(np.asarray(weights, dtype=x.dtype), x.shape))
    s, idx, w = interpolation._stencil_buffers(Workspace(), order, x2.shape, x.dtype)
    interpolation._fill_stencil(x2, grid, order, s, idx, w)
    if order == "ngp":
        w[:, 0] = w2
    else:
        np.multiply(w2[:, None, :], w, out=w)
    out = np.zeros((x2.shape[0], grid.n_cells), dtype=x.dtype)
    for b in range(x2.shape[0]):
        np.add.at(out[b], idx[b].ravel(), w[b].ravel())
    out /= grid.dx
    return out if x.ndim == 2 else out[0]


@st.composite
def _deposit_inputs(draw):
    """Batches of 1-4 rows, with positions on and around the box edges and
    scalar or per-particle weights (signed zeros, negatives, ``q * v``)."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    grid = draw(st.sampled_from([Grid1D(16, 4.0), Grid1D(12, 2.0532)]))
    length = dtype(grid.length)
    width = 32 if dtype == np.float32 else 64
    batch = draw(st.integers(1, 4))
    n = draw(st.integers(1, 24))
    edges = [0.0, -0.0, length, np.nextafter(length, dtype(0))]
    position = st.one_of(
        st.sampled_from(edges),
        st.floats(float(-2 * length), float(3 * length), width=width),
    )
    x = np.array(draw(st.lists(position, min_size=batch * n, max_size=batch * n)), dtype=dtype)
    x = x.reshape(batch, n)
    if batch == 1 and draw(st.booleans()):
        x = x[0]
    kind = draw(st.sampled_from(["scalar", "per_particle", "charge_times_velocity"]))
    value = st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-5.0, 5.0, width=width))
    if kind == "scalar":
        weights = draw(value)
    else:
        w = np.array(draw(st.lists(value, min_size=x.size, max_size=x.size)), dtype=dtype)
        weights = w.reshape(x.shape)
        if kind == "charge_times_velocity":
            weights = dtype(-0.0125) * weights
    return grid, x, weights


class TestDepositScatterParity:
    @given(inputs=_deposit_inputs(), order=st.sampled_from(ORDERS))
    @settings(max_examples=200, deadline=None)
    def test_deposit_matches_row_by_row_add_at_bitwise(self, inputs, order):
        grid, x, weights = inputs
        got = deposit(grid, x, weights, order=order)
        expected = _add_at_deposit(grid, x, weights, order)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
