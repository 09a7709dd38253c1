"""Poisson solvers: analytic solutions, cross-solver agreement, gradients."""

import numpy as np
import pytest

from repro.pic.grid import Grid1D
from repro.pic.poisson import (
    PoissonSolver,
    electric_field_from_potential,
    solve_poisson_direct,
    solve_poisson_fd,
    solve_poisson_spectral,
)

SOLVERS = {
    "spectral": solve_poisson_spectral,
    "fd": solve_poisson_fd,
    "direct": solve_poisson_direct,
}


@pytest.fixture
def grid() -> Grid1D:
    return Grid1D(64, 2.0 * np.pi)


class TestAnalyticSolutions:
    @pytest.mark.parametrize("name", ["spectral"])
    def test_single_mode_exact_spectral(self, grid, name):
        """rho = sin(kx) -> phi = sin(kx)/k^2 exactly for the spectral solver."""
        k = 2.0  # second harmonic of the 2*pi box
        rho = np.sin(k * grid.nodes)
        phi = SOLVERS[name](grid, rho)
        np.testing.assert_allclose(phi, rho / k**2, atol=1e-12)

    @pytest.mark.parametrize("name", ["fd", "direct"])
    def test_single_mode_discrete_eigenvalue(self, grid, name):
        """FD solvers invert the discrete Laplacian eigenvalue instead of k^2."""
        k = 2.0
        rho = np.sin(k * grid.nodes)
        lam = (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2
        phi = SOLVERS[name](grid, rho)
        np.testing.assert_allclose(phi, rho / lam, atol=1e-10)

    @pytest.mark.parametrize("name", ["fd", "direct"])
    def test_residual_of_discrete_laplacian(self, grid, name):
        """For fd/direct the 3-point Laplacian of phi must equal -rho exactly."""
        rng = np.random.default_rng(0)
        rho = rng.normal(size=grid.n_cells)
        rho -= rho.mean()
        phi = SOLVERS[name](grid, rho)
        lap = (np.roll(phi, -1) - 2 * phi + np.roll(phi, 1)) / grid.dx**2
        np.testing.assert_allclose(lap, -rho, atol=1e-9)

    def test_spectral_residual_small_for_smooth_rho(self, grid):
        """The spectral phi satisfies the 3-point Laplacian to O(dx^2)
        on smooth (low-mode) densities."""
        rho = np.sin(2 * grid.nodes) + 0.5 * np.cos(3 * grid.nodes)
        phi = solve_poisson_spectral(grid, rho)
        lap = (np.roll(phi, -1) - 2 * phi + np.roll(phi, 1)) / grid.dx**2
        assert np.max(np.abs(lap + rho)) < 0.02 * np.max(np.abs(rho))


class TestSolverProperties:
    @pytest.mark.parametrize("name", SOLVERS)
    def test_zero_mean_potential(self, grid, name):
        rng = np.random.default_rng(1)
        rho = rng.normal(size=grid.n_cells)
        phi = SOLVERS[name](grid, rho)
        assert abs(phi.mean()) < 1e-10

    @pytest.mark.parametrize("name", SOLVERS)
    def test_uniform_charge_gives_zero_field(self, grid, name):
        """The k=0 component (neutralized background) produces no field."""
        phi = SOLVERS[name](grid, np.full(grid.n_cells, 0.7))
        np.testing.assert_allclose(phi, 0.0, atol=1e-12)

    @pytest.mark.parametrize("name", SOLVERS)
    def test_linearity(self, grid, name):
        rng = np.random.default_rng(2)
        r1, r2 = rng.normal(size=(2, grid.n_cells))
        combined = SOLVERS[name](grid, r1 + 3.0 * r2)
        separate = SOLVERS[name](grid, r1) + 3.0 * SOLVERS[name](grid, r2)
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    def test_fd_and_direct_agree(self, grid):
        """Two completely different code paths, same discrete operator."""
        rng = np.random.default_rng(3)
        rho = rng.normal(size=grid.n_cells)
        np.testing.assert_allclose(
            solve_poisson_fd(grid, rho), solve_poisson_direct(grid, rho), atol=1e-9
        )

    def test_spectral_and_fd_converge_together(self):
        """On a smooth density the two discretizations converge as dx^2."""
        k = 1.0
        diffs = []
        for n in (32, 64, 128):
            grid = Grid1D(n, 2.0 * np.pi)
            rho = np.sin(k * grid.nodes)
            diffs.append(
                np.max(np.abs(solve_poisson_spectral(grid, rho) - solve_poisson_fd(grid, rho)))
            )
        assert diffs[1] < diffs[0] / 3.5
        assert diffs[2] < diffs[1] / 3.5

    @pytest.mark.parametrize("name", SOLVERS)
    def test_eps0_scaling(self, grid, name):
        rho = np.sin(grid.nodes)
        np.testing.assert_allclose(
            SOLVERS[name](grid, rho, eps0=2.0), 0.5 * SOLVERS[name](grid, rho), atol=1e-12
        )

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError, match="rho has shape"):
            solve_poisson_spectral(grid, np.zeros(5))


class TestElectricField:
    def test_central_difference_of_sine(self, grid):
        phi = np.sin(grid.nodes)
        e = electric_field_from_potential(grid, phi, method="central")
        # E = -dphi/dx = -cos(x), with the discrete sinc factor.
        factor = np.sin(grid.dx) / grid.dx
        np.testing.assert_allclose(e, -np.cos(grid.nodes) * factor, atol=1e-12)

    def test_spectral_gradient_exact_for_modes(self, grid):
        phi = np.sin(2.0 * grid.nodes)
        e = electric_field_from_potential(grid, phi, method="spectral")
        np.testing.assert_allclose(e, -2.0 * np.cos(2.0 * grid.nodes), atol=1e-10)

    def test_constant_potential_no_field(self, grid):
        for method in ("central", "spectral"):
            e = electric_field_from_potential(grid, np.full(grid.n_cells, 4.0), method)
            np.testing.assert_allclose(e, 0.0, atol=1e-12)

    def test_field_has_zero_mean(self, grid):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=grid.n_cells)
        for method in ("central", "spectral"):
            assert abs(electric_field_from_potential(grid, phi, method).mean()) < 1e-12

    def test_unknown_method(self, grid):
        with pytest.raises(ValueError, match="unknown gradient"):
            electric_field_from_potential(grid, np.zeros(grid.n_cells), method="upwind")

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError, match="phi has shape"):
            electric_field_from_potential(grid, np.zeros(3))


class TestFacade:
    def test_solve_returns_phi_and_e(self, grid):
        solver = PoissonSolver(grid)
        rho = np.sin(grid.nodes)
        phi, e = solver.solve(rho)
        assert phi.shape == e.shape == (grid.n_cells,)

    def test_gauss_law_discrete(self, grid):
        """Central-difference divergence of E equals rho/eps0 (spectrally)."""
        solver = PoissonSolver(grid, method="fd", gradient="central")
        rng = np.random.default_rng(5)
        rho = rng.normal(size=grid.n_cells)
        rho -= rho.mean()
        _, e = solver.solve(rho)
        div = (np.roll(e, -1) - np.roll(e, 1)) / (2 * grid.dx)
        # div(central) o grad(central) is the wide 5-point Laplacian; it
        # matches rho after smoothing, so compare in Fourier space on
        # the modes where the wide stencil is invertible.
        rho_k = np.fft.rfft(rho)
        e_k = np.fft.rfft(e)
        k = grid.rfft_wavenumbers()
        keff = np.sin(k * grid.dx) / grid.dx
        lam = (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2
        mask = (np.abs(keff) > 1e-12) & (np.abs(lam) > 1e-12)
        # E_k = -i keff phi_k and lam phi_k = rho_k -> E_k * (-lam / (i keff)) = rho_k... check ratio
        np.testing.assert_allclose(
            e_k[mask] * lam[mask] / (-1j * keff[mask]), rho_k[mask] / 1.0, atol=1e-8
        )

    def test_invalid_method_rejected(self, grid):
        with pytest.raises(ValueError):
            PoissonSolver(grid, method="amg")
        with pytest.raises(ValueError):
            PoissonSolver(grid, gradient="bad")


class TestCachedSymbols:
    """The facade's frozen symbols, slice division, slice gradient and
    single validation change nothing: ``phi`` and ``E`` equal the
    module-level references bit for bit, dtype included."""

    @pytest.mark.parametrize("n_cells", [2, 3, 33, 48, 64])
    @pytest.mark.parametrize("batched", [False, True], ids=["1d", "batched"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("method", ["spectral", "fd", "direct"])
    @pytest.mark.parametrize("gradient", ["central", "spectral"])
    def test_facade_bitwise_equals_module_functions(
        self, n_cells, batched, dtype, method, gradient
    ):
        grid = Grid1D(n_cells, 2.0 * np.pi / 3.06)
        rng = np.random.default_rng(n_cells)
        rho = rng.normal(size=(4, n_cells) if batched else n_cells).astype(dtype)
        phi, e = PoissonSolver(grid, method=method, gradient=gradient).solve(rho)
        phi_ref = SOLVERS[method](grid, rho)
        e_ref = electric_field_from_potential(grid, phi_ref, gradient)
        assert (phi.dtype, e.dtype) == (phi_ref.dtype, e_ref.dtype)
        assert phi.shape == e.shape == rho.shape
        assert phi.tobytes() == phi_ref.tobytes()
        assert e.tobytes() == e_ref.tobytes()

    @pytest.mark.parametrize("gradient", ["central", "spectral"])
    def test_float32_potential_differentiates_in_single_precision(self, grid, gradient):
        phi = np.sin(grid.nodes).astype(np.float32)
        e = electric_field_from_potential(grid, phi, gradient)
        assert e.dtype == np.float32
        atol = 2e-3 if gradient == "central" else 1e-5
        np.testing.assert_allclose(e, -np.cos(grid.nodes), atol=atol)

    def test_symbols_computed_once(self, grid):
        solver = PoissonSolver(grid)
        k_before = solver._k
        solver.solve(np.sin(grid.nodes))
        solver.solve(np.cos(grid.nodes))
        assert solver._k is k_before  # reused, not rebuilt

    def test_eps0_folded_into_cache(self, grid):
        rho = np.sin(grid.nodes)
        phi_scaled, _ = PoissonSolver(grid, eps0=2.0).solve(rho)
        phi_default, _ = PoissonSolver(grid).solve(rho)
        np.testing.assert_allclose(phi_scaled, 0.5 * phi_default, atol=1e-12)
