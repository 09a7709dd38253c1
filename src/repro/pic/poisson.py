"""Grid Poisson solvers for the electrostatic field-solve stage.

Solves ``laplacian(phi) = -rho / eps0`` on a periodic 1D grid and
derives ``E = -grad(phi)``.  Three interchangeable discretizations are
provided (all agree on smooth fields, tests cross-check them):

* ``"spectral"`` — exact continuous operator in Fourier space,
  ``phi_k = rho_k / (eps0 * k^2)``;
* ``"fd"`` — second-order central finite differences diagonalized by
  the FFT (eigenvalues ``-(2 - 2 cos(k dx)) / dx^2``), equivalent to
  the cyclic tridiagonal solve of classic PIC codes but O(N log N);
* ``"direct"`` — the same finite-difference operator solved as a banded
  linear system (scipy LU) with the gauge fixed by pinning ``phi_0 = 0``
  and the compatibility condition enforced by removing the mean charge.
  It is the only solver that needs scipy, and it imports scipy on first
  use, so a process that never asks for it starts without loading scipy.

The periodic Poisson problem is singular: solutions are defined up to a
constant and require ``mean(rho) = 0``.  All solvers remove the mean of
``rho`` (physically: the neutralizing background) and return the
zero-mean potential.

All solvers accept either a single charge density of shape
``(n_cells,)`` or a stacked ensemble ``(batch, n_cells)`` and solve
each row independently — the FFT-based discretizations batch along the
last axis in one call, which is where the ensemble engine gets its
throughput.  Row ``b`` of a batched solve is bitwise identical to the
corresponding single solve.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.pic.grid import Grid1D

_SOLVERS = ("spectral", "fd", "direct")
_GRADIENTS = ("central", "spectral")


def _validate_grid_array(grid: Grid1D, arr: np.ndarray, name: str) -> np.ndarray:
    # float32 arrays pass through unchanged (the reduced-precision
    # serving tier batches single-precision FFTs); anything else is
    # coerced to float64 exactly as before.
    arr = np.asarray(arr)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != grid.n_cells:
        raise ValueError(
            f"{name} has shape {arr.shape}, expected ({grid.n_cells},) or "
            f"(batch, {grid.n_cells})"
        )
    return arr


def _validate_rho(grid: Grid1D, rho: np.ndarray) -> np.ndarray:
    return _validate_grid_array(grid, rho, "rho")


def solve_poisson_spectral(grid: Grid1D, rho: np.ndarray, eps0: float = constants.EPSILON_0) -> np.ndarray:
    """Spectral solve with the exact ``k^2`` symbol; returns zero-mean phi."""
    rho = _validate_rho(grid, rho)
    rho_k = np.fft.rfft(rho, axis=-1)
    k = grid.rfft_wavenumbers()
    phi_k = np.zeros_like(rho_k)
    nonzero = k != 0.0
    phi_k[..., nonzero] = rho_k[..., nonzero] / (eps0 * k[nonzero] ** 2)
    return np.fft.irfft(phi_k, n=grid.n_cells, axis=-1)


def solve_poisson_fd(grid: Grid1D, rho: np.ndarray, eps0: float = constants.EPSILON_0) -> np.ndarray:
    """FFT-diagonalized second-order finite-difference solve."""
    rho = _validate_rho(grid, rho)
    rho_k = np.fft.rfft(rho, axis=-1)
    k = grid.rfft_wavenumbers()
    # Discrete eigenvalues of the periodic 3-point Laplacian.
    lam = (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2
    phi_k = np.zeros_like(rho_k)
    nonzero = lam != 0.0
    phi_k[..., nonzero] = rho_k[..., nonzero] / (eps0 * lam[nonzero])
    return np.fft.irfft(phi_k, n=grid.n_cells, axis=-1)


def solve_poisson_direct(grid: Grid1D, rho: np.ndarray, eps0: float = constants.EPSILON_0) -> np.ndarray:
    """Dense/banded LU solve of the periodic finite-difference operator.

    Provided as an independent cross-check of the FFT-based solver (it
    exercises a completely different code path).  The singular gauge is
    fixed by pinning ``phi[0] = 0`` and the result is re-centered to
    zero mean to match the other solvers.
    """
    import scipy.linalg  # here, not at module level: see the module docstring

    rho = _validate_rho(grid, rho)
    if rho.ndim == 2:
        # Row-by-row keeps each solve bitwise identical to the single
        # call; the LU path is a cross-check, not a hot path.
        return np.stack([solve_poisson_direct(grid, r, eps0) for r in rho])
    n = grid.n_cells
    rhs = -(rho - rho.mean()) / eps0 * grid.dx**2
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = -2.0
    a[idx, (idx + 1) % n] += 1.0
    a[idx, (idx - 1) % n] += 1.0
    # Pin the gauge: replace the first equation by phi_0 = 0.
    a[0, :] = 0.0
    a[0, 0] = 1.0
    rhs = rhs.copy()
    rhs[0] = 0.0
    phi = scipy.linalg.solve(a, rhs)
    return phi - phi.mean()


def electric_field_from_potential(
    grid: Grid1D, phi: np.ndarray, method: str = "central"
) -> np.ndarray:
    """Discretize ``E = -d(phi)/dx`` on the periodic grid.

    ``"central"`` is the classic momentum-conserving 2-point stencil
    ``E_j = -(phi_{j+1} - phi_{j-1}) / (2 dx)``; ``"spectral"``
    differentiates exactly in Fourier space.  A float32 ``phi`` is
    differentiated in single precision by both rules.
    """
    phi = _validate_grid_array(grid, phi, "phi")
    if method == "central":
        return -(np.roll(phi, -1, axis=-1) - np.roll(phi, 1, axis=-1)) / (2.0 * grid.dx)
    if method == "spectral":
        phi_k = np.fft.rfft(phi, axis=-1)
        symbol = -1j * grid.rfft_wavenumbers()
        return np.fft.irfft(symbol.astype(phi_k.dtype) * phi_k, n=grid.n_cells, axis=-1)
    raise ValueError(f"unknown gradient method {method!r}; expected one of {_GRADIENTS}")


class PoissonSolver:
    """Facade bundling a Poisson discretization with a gradient rule.

    The per-grid FFT symbols — rfft wavenumbers, the ``eps0``-scaled
    denominators of the spectral and finite-difference solves, and the
    spectral-gradient multiplier — are computed once at construction
    and reused by every :meth:`solve`.  The module-level functions
    recompute them per call; the facade evaluates the exact same
    expressions on the same operands, so results are bitwise identical
    (this is the PIC cycle's hot path: one solve per step).  Two trims
    keep the small solves of served runs cheap without moving a bit:

    * only the ``k = 0`` symbol vanishes (for ``"fd"``,
      ``cos(2 pi / n)`` rounds to 1 only beyond ~4e8 cells, which the
      constructor rejects), so the nonzero modes divide as one slice
      ``[1:]`` instead of through a boolean mask;
    * the central gradient takes its differences ``phi[j+1] - phi[j-1]``
      as three slice subtractions (interior, first and last node) into
      one array, the same values the two ``np.roll`` copies give.

    >>> grid = Grid1D(64, 2.0)
    >>> solver = PoissonSolver(grid, method="spectral", gradient="central")
    >>> phi, E = solver.solve(rho)       # doctest: +SKIP
    """

    def __init__(
        self,
        grid: Grid1D,
        method: str = "spectral",
        gradient: str = "central",
        eps0: float = constants.EPSILON_0,
    ) -> None:
        if method not in _SOLVERS:
            raise ValueError(f"unknown poisson method {method!r}; expected one of {_SOLVERS}")
        if gradient not in _GRADIENTS:
            raise ValueError(f"unknown gradient {gradient!r}; expected one of {_GRADIENTS}")
        self.grid = grid
        self.method = method
        self.gradient = gradient
        self.eps0 = eps0
        # Frozen per-grid FFT symbols (identical expressions to the
        # module-level solvers, evaluated once instead of per step).
        k = grid.rfft_wavenumbers()
        self._k = k
        symbol = k**2 if method == "spectral" else (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2
        zero = np.flatnonzero(symbol == 0.0)
        if zero.tolist() != [0]:
            raise ValueError(
                f"the {method!r} symbol on {grid.n_cells} cells vanishes at modes "
                f"{zero.tolist()}, expected only at k = 0"
            )
        self._denominator = eps0 * symbol[1:]
        self._two_dx = 2.0 * grid.dx
        self._spectral_gradient_symbol = -1j * k

    def solve_potential(self, rho: np.ndarray) -> np.ndarray:
        """Return the zero-mean electrostatic potential for ``rho``."""
        if self.method == "direct":
            return solve_poisson_direct(self.grid, rho, self.eps0)
        rho = _validate_rho(self.grid, rho)
        # The rfft is a fresh array: the potential's modes overwrite it.
        phi_k = np.fft.rfft(rho, axis=-1)
        phi_k[..., 0] = 0.0
        phi_k[..., 1:] /= self._denominator
        return np.fft.irfft(phi_k, n=self.grid.n_cells, axis=-1)

    def electric_field(self, phi: np.ndarray) -> np.ndarray:
        """``E = -grad(phi)`` with this solver's gradient rule (cached symbols)."""
        return self._gradient(_validate_grid_array(self.grid, phi, "phi"))

    def _gradient(self, phi: np.ndarray) -> np.ndarray:
        """:meth:`electric_field` of a ``phi`` already validated."""
        if self.gradient == "central":
            e = np.empty_like(phi)
            np.subtract(phi[..., 2:], phi[..., :-2], out=e[..., 1:-1])
            np.subtract(phi[..., 1:2], phi[..., -1:], out=e[..., :1])
            np.subtract(phi[..., :1], phi[..., -2:-1], out=e[..., -1:])
            np.negative(e, out=e)
            e /= self._two_dx
            return e
        phi_k = np.fft.rfft(phi, axis=-1)
        symbol = self._spectral_gradient_symbol
        if phi_k.dtype == np.complex64:
            symbol = symbol.astype(np.complex64)
        return np.fft.irfft(symbol * phi_k, n=self.grid.n_cells, axis=-1)

    def solve(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(phi, E)`` for the charge density ``rho``."""
        phi = self.solve_potential(rho)
        return phi, self._gradient(phi)
