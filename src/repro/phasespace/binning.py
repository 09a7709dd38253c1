"""Binning of the electron phase space onto a 2D grid.

Section III of the paper: "We form a phase space grid by discretizing
phase space with a two-dimensional grid and counting how many particles
belong to a cell of the phase space grid."  The paper uses NGP binning
and notes (Sec. VII) that higher-order interpolation for the binning is
an expected improvement — so CIC binning is implemented as well.

Conventions
-----------
The histogram has shape ``(n_v, n_x)``: rows index velocity (the
vertical axis of the paper's phase-space images), columns index
position.  Position is periodic on ``[0, L)``; velocity is clipped to
``[v_min, v_max]`` so the total histogram mass always equals the number
of particles (an invariant the tests rely on).  The clip happens on the
float bin coordinate, before the cast to an integer index, so a huge,
infinite or NaN velocity lands in an edge bin (NaN in the lowest) and
keeps its unit mass instead of overflowing the cast.

:func:`bin_phase_space` is the 1-D reference.  The batched
:func:`bin_phase_space_batch` reproduces it row by row, bit for bit;
its NGP path is the one the DL field solve and the training harvest run
every step, so it writes its particle-sized indices in place into a
caller-owned :class:`~repro.kernels.workspace.Workspace`, takes a
cheaper position index whenever every position is already wrapped into
``[0, L)``, and takes none of its own when the caller hands it the x
bins (the DL field solve's CIC stencil holds them).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.kernels import KernelBackend
from repro.kernels.workspace import Workspace, wrap_indices

#: The binning orders :func:`bin_phase_space` implements.
BINNING_ORDERS = ("ngp", "cic")

# CIC velocity coordinates are clamped to +-2**53 before the int cast:
# every float that large is an integer, so its fractional weight is
# already 0, and the clamped index still clips to the same edge bin.
_CIC_CLAMP = 2.0**53


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Discretization of the ``(x, v)`` phase-space rectangle.

    Attributes
    ----------
    n_x, n_v:
        Number of bins along position and velocity.
    box_length:
        Periodic spatial extent ``L``.
    v_min, v_max:
        Velocity window; particles outside are clipped to the edge
        bins.  The paper's plots use ``[-0.4, 0.4]``-ish windows; the
        default ``[-0.5, 0.5]`` covers every training configuration
        (``v0 <= 0.3`` plus thermal tails) and the Fig. 6 beams.
    """

    n_x: int = 64
    n_v: int = 64
    box_length: float = constants.TWO_STREAM_BOX_LENGTH
    v_min: float = -0.5
    v_max: float = 0.5

    def __post_init__(self) -> None:
        # Checked field by field (requests build grids from raw JSON
        # scalars), then stored as plain int / float.
        for name in ("n_x", "n_v"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer bin count, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("box_length", "v_min", "v_max"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.n_x < 1 or self.n_v < 1:
            raise ValueError(f"bin counts must be positive, got ({self.n_x}, {self.n_v})")
        if self.v_max <= self.v_min:
            raise ValueError(f"empty velocity window [{self.v_min}, {self.v_max}]")
        if self.box_length <= 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def dx(self) -> float:
        """Spatial bin width."""
        return self.box_length / self.n_x

    @property
    def dv(self) -> float:
        """Velocity bin width."""
        return (self.v_max - self.v_min) / self.n_v

    @property
    def shape(self) -> tuple[int, int]:
        """Histogram shape ``(n_v, n_x)``."""
        return (self.n_v, self.n_x)

    @property
    def size(self) -> int:
        """Flattened input size for the MLP."""
        return self.n_v * self.n_x

    def x_edges(self) -> np.ndarray:
        """Spatial bin edges, length ``n_x + 1``."""
        return np.linspace(0.0, self.box_length, self.n_x + 1)

    def v_edges(self) -> np.ndarray:
        """Velocity bin edges, length ``n_v + 1``."""
        return np.linspace(self.v_min, self.v_max, self.n_v + 1)


def _x_bins(x: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """NGP spatial bin index (cell containment), periodic."""
    return np.floor(np.mod(x, grid.box_length) / grid.dx).astype(np.int64) % grid.n_x


def _v_bins(v: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """NGP velocity bin index, clipped to the window before the cast."""
    idx = np.floor((v - grid.v_min) / grid.dv)
    return np.fmin(np.fmax(idx, 0), grid.n_v - 1).astype(np.int64)


def _x_index_batch(x: np.ndarray, grid: PhaseSpaceGrid, work: Workspace) -> np.ndarray:
    """NGP x bins of a ``(batch, n)`` position array, in place.

    Equals :func:`_x_bins` element for element.  When every position
    lies in ``[0, L)`` — the float64 PIC cycle's wrapped positions
    always do; the float32 tier's cheap wrap can land on ``L`` itself —
    ``np.mod`` is the identity (``-0.0`` aside, which truncates to the
    same 0) and ``floor`` of the non-negative ``x / dx`` equals the
    truncating cast, so the index is that cast wrapped by
    :func:`wrap_indices` (``x / dx`` may round up to ``n_x`` just below
    ``L``).  Anything else takes the :func:`_x_bins` reference.
    """
    jx = work.get("bin_jx", x.shape, np.int64)
    if x.size and 0.0 <= x.min() and x.max() < grid.box_length:
        s = work.get("bin_s", x.shape, np.float64)
        np.divide(x, grid.dx, out=s)
        np.copyto(jx, s, casting="unsafe")
        wrap_indices(jx, grid.n_x)
    else:
        jx[...] = _x_bins(x, grid)
    return jx


def _ngp_count_batch(
    x: np.ndarray,
    v: np.ndarray,
    grid: PhaseSpaceGrid,
    work: Workspace,
    x_index: "np.ndarray | None",
    backend: "KernelBackend | None",
) -> np.ndarray:
    """NGP counts of a ``(batch, n)`` phase space, ``(batch, n_v * n_x)``.

    Row ``b`` counts ``_v_bins(v[b]) * n_x + _x_bins(x[b])`` with one
    ``np.bincount``; the particle-sized scratch is ``work`` buffers.

    * x: ``x_index`` when the caller holds the x bins already, else
      :func:`_x_index_batch` over the whole batch.
    * v: :func:`_v_bins`' clamp and cast on one buffer, without its
      ``floor``: the clamp bounds are integers, so truncating the
      clamped coordinate gives ``floor``'s index for every float
      (NaN, ``-0.0`` and the infinities included).

    The velocity index, the flat index and the count of each row run
    per row slab through ``backend`` (``None``: one slab), on rows of
    buffers fetched before the slabs start.
    """
    if x_index is None:
        x_index = _x_index_batch(x, grid, work)
    s = work.get("bin_s", x.shape, np.float64)
    flat = work.get("bin_flat", x.shape, np.int64)
    hist = np.empty((x.shape[0], grid.size), dtype=np.float64)

    def rows(lo: int, hi: int) -> None:
        sv, fl = s[lo:hi], flat[lo:hi]
        np.subtract(v[lo:hi], grid.v_min, out=sv)
        sv /= grid.dv
        np.fmax(sv, 0, out=sv)
        np.fmin(sv, grid.n_v - 1, out=sv)
        np.copyto(fl, sv, casting="unsafe")
        fl *= grid.n_x
        fl += x_index[lo:hi]
        for b in range(lo, hi):
            hist[b] = np.bincount(flat[b], minlength=grid.size)

    if backend is None:
        rows(0, x.shape[0])
    else:
        backend.run_rows(x.shape[0], rows, x.size)
    return hist


def _cic_flat_scatter(
    x: np.ndarray, v: np.ndarray, grid: PhaseSpaceGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened CIC scatter indices and bilinear weights.

    ``x`` and ``v`` may be ``(n,)`` or ``(batch, n)``; the returned
    indices address the row-major-raveled histogram(s) and the four
    corner contributions are concatenated along the last axis in the
    fixed order (v0x0, v0x1, v1x0, v1x1), so a single ``np.add.at`` on
    the raveled output accumulates every corner for every particle in
    the same order the classic four-scatter formulation does.
    """
    sx = np.mod(x, grid.box_length) / grid.dx - 0.5
    jx = np.floor(sx).astype(np.int64)
    fx = sx - jx
    jx0 = jx % grid.n_x
    jx1 = (jx + 1) % grid.n_x
    sv = (v - grid.v_min) / grid.dv - 0.5
    np.fmin(np.fmax(sv, -_CIC_CLAMP), _CIC_CLAMP, out=sv)
    jv = np.floor(sv).astype(np.int64)
    fv = sv - jv
    # Clamp in velocity: out-of-window weight collapses onto edge bins.
    jv0 = np.clip(jv, 0, grid.n_v - 1)
    jv1 = np.clip(jv + 1, 0, grid.n_v - 1)
    flat = np.concatenate(
        [jv0 * grid.n_x + jx0, jv0 * grid.n_x + jx1,
         jv1 * grid.n_x + jx0, jv1 * grid.n_x + jx1],
        axis=-1,
    )
    weights = np.concatenate(
        [(1.0 - fv) * (1.0 - fx), (1.0 - fv) * fx, fv * (1.0 - fx), fv * fx],
        axis=-1,
    )
    return flat, weights


def bin_phase_space(
    x: np.ndarray,
    v: np.ndarray,
    grid: PhaseSpaceGrid,
    order: str = "ngp",
    dtype: "np.dtype | type" = np.float64,
) -> np.ndarray:
    """Count particles per phase-space cell.

    ``order="ngp"`` reproduces the paper's counting histogram;
    ``order="cic"`` spreads each particle bilinearly over the four
    neighbouring cells (periodic in x, clamped in v), which reduces the
    binning noise the paper identifies as a limitation.  Both conserve
    total mass exactly: ``result.sum() == len(x)``.

    NGP counting runs through a single fused ``np.bincount`` over the
    raveled cell indices — several times faster than a 2D
    ``np.add.at`` scatter and exactly equal to it (the counts are
    integers, so no summation-order question arises).
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape or x.ndim != 1:
        raise ValueError(f"x and v must be 1D arrays of equal length, got {x.shape}, {v.shape}")
    if order == "ngp":
        flat = _v_bins(v, grid) * grid.n_x + _x_bins(x, grid)
        hist = np.bincount(flat, minlength=grid.size).astype(np.float64)
        hist = hist.reshape(grid.shape)
    elif order == "cic":
        flat, weights = _cic_flat_scatter(x, v, grid)
        hist = np.zeros(grid.size, dtype=np.float64)
        np.add.at(hist, flat, weights)
        hist = hist.reshape(grid.shape)
    else:
        raise ValueError(f"unknown binning order {order!r}; expected one of {BINNING_ORDERS}")
    return hist.astype(dtype, copy=False)


def bin_phase_space_batch(
    x: np.ndarray,
    v: np.ndarray,
    grid: PhaseSpaceGrid,
    order: str = "ngp",
    dtype: "np.dtype | type" = np.float64,
    work: "Workspace | None" = None,
    x_index: "np.ndarray | None" = None,
    backend: "KernelBackend | None" = None,
) -> np.ndarray:
    """Bin a whole ensemble of phase spaces.

    ``x`` and ``v`` are stacked ``(batch, n)`` arrays; the result is
    ``(batch, n_v, n_x)`` with row ``b`` bitwise identical to
    ``bin_phase_space(x[b], v[b], grid, order)``:

    * NGP: every row's raveled cell indices are computed in place and
      counted by one ``np.bincount`` per row (see
      :func:`_ngp_count_batch`), in row slabs through the kernel
      ``backend`` (``None``: one slab).  ``work`` holds their
      particle-sized scratch; callers that bin every step pass the
      workspace they own, ``None`` uses a throwaway one.  ``x_index``,
      an int64 ``(batch, n)`` array, gives the x bins when the caller
      already holds them — the left nodes of a CIC stencil of ``x`` on
      a field grid equal to this x axis are exactly these bins — so the
      binning computes none of its own.
      The histogram itself is always a fresh array.
    * CIC: the four bilinear corner contributions of every row are
      scattered by one raveled ``np.add.at``, as one slab whatever the
      ``backend``.  Rows write to disjoint
      index ranges and each row's updates keep the single-run
      accumulation order, so the float sums match bit for bit.

    Mass is conserved per row: ``result.sum(axis=(1, 2)) == n``.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape or x.ndim != 2:
        raise ValueError(
            f"x and v must be (batch, n) arrays of equal shape, got {x.shape}, {v.shape}"
        )
    batch = x.shape[0]
    if order == "ngp":
        hist = _ngp_count_batch(
            x, v, grid, work if work is not None else Workspace(), x_index, backend
        )
    elif order == "cic":
        if x_index is not None:
            raise ValueError("x_index serves NGP binning only")
        flat, weights = _cic_flat_scatter(x, v, grid)
        offsets = np.arange(batch, dtype=np.int64)[:, None] * grid.size
        hist = np.zeros(batch * grid.size, dtype=np.float64)
        np.add.at(hist, (flat + offsets).ravel(), weights.ravel())
    else:
        raise ValueError(f"unknown binning order {order!r}; expected one of {BINNING_ORDERS}")
    return hist.reshape(batch, *grid.shape).astype(dtype, copy=False)
