"""Reusable scratch buffers and the periodic index wrap of the particle kernels.

The particle-grid kernels (:mod:`repro.pic.interpolation`), the
leapfrog pushers (:mod:`repro.pic.mover`) and the phase-space binning
(:mod:`repro.phasespace.binning`) write their particle-sized
intermediates into a :class:`Workspace` their caller owns, instead of
allocating them afresh on every call, and wrap periodic cell indices
with :func:`wrap_indices`.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Named scratch buffers for the particle kernels, reused across calls.

    :meth:`get` returns the buffer registered under ``name``, allocating
    it on first use — or again when a call asks for another shape or
    dtype, so one workspace serves any sequence of calls correctly and
    holds at most one buffer per name.  Buffer contents are undefined
    between calls: they are scratch, never results.  A workspace is not
    shared between engines or threads; slabs of one kernel call write
    disjoint row slices of buffers fetched before the slabs start.

    One exception hands scratch from call to call: :attr:`stencil`.  A
    :func:`~repro.pic.interpolation.deposit` or a
    :func:`~repro.pic.interpolation.build_stencil` (the DL field solve's
    call) leaves the particle→grid stencil of its positions in the
    buffers and records there which positions array (by identity), grid
    and order it belongs to; the next
    :func:`~repro.pic.interpolation.gather` on this workspace, given
    that same array, grid and order, reads the stencil instead of
    rebuilding it.  Every gather clears the record and only a gather
    reads it, so the handoff is one-shot: one build, then one gather.
    Because the match is by identity, the positions must not be edited
    in place between the build and the gather: assign a new array
    instead.

    The DL field solve (:meth:`repro.dlpic.DLFieldSolver.fields`) leaves
    a result too: the phase-space histograms it binned, in
    :attr:`histograms`, which the engine that owns the workspace reports
    as its own.
    """

    def __init__(self) -> None:
        self._buffers: "dict[str, np.ndarray]" = {}
        # Set by a stencil build, consumed by the next gather (see above).
        self.stencil: "object | None" = None
        # Set by each DL field solve on this workspace (see above).
        self.histograms: "np.ndarray | None" = None

    def get(self, name: str, shape: "tuple[int, ...]", dtype: "np.dtype | type") -> np.ndarray:
        """The ``(name, shape, dtype)`` buffer, allocated on first use."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(shape, dtype=dtype)
        return buf


def wrap_indices(j: np.ndarray, n: int) -> None:
    """Periodic index wrap in place; bit-mask fast path for power-of-two grids.

    Two's-complement ``j & (n - 1)`` equals ``j % n`` for every integer
    when ``n`` is a power of two (it keeps the low bits, i.e. the value
    modulo ``2**k``), and is roughly an order of magnitude cheaper than
    the integer-division modulo.
    """
    if n & (n - 1) == 0:
        np.bitwise_and(j, n - 1, out=j)
    else:
        np.remainder(j, n, out=j)
