"""One-dimensional periodic grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def wrap_positions(x: np.ndarray, length: float) -> np.ndarray:
    """Periodic wrap into ``[0, length)``, skipped when already there.

    ``np.mod`` is the identity on in-range values, except that it turns
    ``-0.0`` into ``+0.0`` (no particle loader emits ``-0.0``), so
    the min/max check keeps the bits while sparing a full division pass
    over what is, in the PIC cycle and the particle loaders, almost
    always in-range data.  The float32 tier's cheap wrap
    (:func:`repro.pic.mover.push_positions`) can land a particle exactly
    *on* ``length``; the particle-grid kernels wrap index ``n_cells`` to
    node 0 with the correct weights, so such float32 arrays pass through
    too.
    """
    if x.size and 0.0 <= np.minimum.reduce(x, axis=None):
        xmax = np.maximum.reduce(x, axis=None)
        if xmax < length or (xmax == length and x.dtype == np.float32):
            return x
    return np.mod(x, length)


def wrap_into_box(y: np.ndarray, length: float, mask: np.ndarray) -> None:
    """``y = np.mod(y, length)`` in place, bit for bit; ``mask`` is a
    boolean scratch array of ``y``'s shape.

    One leapfrog push, or one implicit-midpoint half step, moves a
    particle by less than a box, so ``y`` normally lies in ``[-L, 2L)``,
    where the modulo is one compare and one shift: ``y - L`` is exact
    above ``L`` (Sterbenz), and below 0 ``y + L`` is exactly the rounded
    sum ``np.mod`` returns (including ``L`` itself for tiny negative
    ``y``).  Adding ``0.0`` turns ``-0.0`` into ``+0.0``, as ``np.mod``
    does.  Inputs outside that range, or holding a NaN, take ``np.mod``
    itself, and a side of the box no particle crossed is not scanned.
    This is the float64 wrap of :func:`repro.pic.mover.push_positions`
    and of the energy-conserving engine's midpoint and full-step
    positions.
    """
    if not y.size:
        return
    lowest, highest = np.minimum.reduce(y, axis=None), np.maximum.reduce(y, axis=None)
    if not (-length <= lowest and highest < 2.0 * length):
        np.mod(y, length, out=y)
        return
    if highest >= length:
        np.greater_equal(y, length, out=mask)
        np.subtract(y, length, out=y, where=mask)
    if lowest < 0.0:
        np.less(y, 0.0, out=mask)
        np.add(y, length, out=y, where=mask)
    y += 0.0


@dataclass(frozen=True)
class Grid1D:
    """A uniform periodic grid on ``[0, length)``.

    Grid quantities (charge density, potential, electric field) live on
    the ``n_cells`` nodes ``x_j = j * dx``; by periodicity the node at
    ``x = length`` is the node at ``x = 0``.
    """

    n_cells: int
    length: float

    def __post_init__(self) -> None:
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        """Grid spacing."""
        return self.length / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        """Node coordinates ``x_j = j * dx``, shape ``(n_cells,)``."""
        return np.arange(self.n_cells) * self.dx

    @property
    def cell_centers(self) -> np.ndarray:
        """Cell-center coordinates ``(j + 1/2) * dx``."""
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def fundamental_wavenumber(self) -> float:
        """``k1 = 2*pi / length``."""
        return 2.0 * np.pi / self.length

    def wavenumbers(self) -> np.ndarray:
        """Signed FFT wavenumbers matching ``numpy.fft.fft`` ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_cells, d=self.dx)

    def rfft_wavenumbers(self) -> np.ndarray:
        """Non-negative wavenumbers matching ``numpy.fft.rfft`` ordering."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_cells, d=self.dx)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map positions into ``[0, length)`` periodically (:func:`wrap_positions`)."""
        return wrap_positions(np.asarray(x), self.length)
