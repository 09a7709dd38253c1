"""Particle movers (pushers).

The paper uses the classic 1D electrostatic leapfrog (Eqs. 1-2):

.. math::
    v^{n+1/2} = v^{n-1/2} + (q/m) E^n(x^n) \\Delta t \\\\
    x^{n+1}   = x^n + v^{n+1/2} \\Delta t

All pushers are purely elementwise, so they operate unchanged on a
single run (arrays of shape ``(n,)``) or on a stacked ensemble of
independent runs (``(batch, n)``) — the batched update of row ``b`` is
bitwise identical to pushing that row alone.  That same row
independence lets the leapfrog pushers take an optional kernel
``backend`` (``repro.kernels``): a parallel backend updates contiguous
row chunks concurrently, producing the reference bit pattern because
each output row depends only on the matching input rows.

The leapfrog pushers also take an optional kernel ``work`` space
(:class:`repro.kernels.workspace.Workspace`, same contract as the
gather and deposit): their particle-sized intermediates — the kick
``qm * E * dt``, the float32 floor wrap, the float64 wrap mask — live
in its row-sliced buffers, while the updated ``x`` / ``v`` they return
are always fresh arrays.  The engines own the workspace and hand state
from step to step by reassignment; editing particle state in place
between steps is unsupported (see
:meth:`repro.pic.simulation.EnsembleSimulation.step`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import KernelBackend
from repro.kernels.workspace import Workspace
from repro.pic.grid import wrap_into_box


def _rows(backend: "KernelBackend | None", a: np.ndarray, fn) -> None:
    """Run the slab ``fn(rows)`` over ``a``'s batch rows.

    A parallel backend gets contiguous row chunks of a batched array;
    everything else is one slab covering the whole array.
    """
    if backend is not None and backend.parallel and a.ndim == 2:
        backend.run_rows(a.shape[0], lambda lo, hi: fn(slice(lo, hi)))
    else:
        fn(slice(None))


def _kick(
    v: np.ndarray,
    e_at_particles: np.ndarray,
    scale: float,
    dt: float,
    backend: "KernelBackend | None",
    work: "Workspace | None",
    op: np.ufunc,
) -> np.ndarray:
    """``op(v, scale * e * dt)`` as a fresh array, the product in ``work``.

    The product keeps the dtype the expression ``scale * e * dt`` has,
    step by step, so every pusher reproduces its historical bits.
    """
    work = work if work is not None else Workspace()
    kick = work.get("kick", e_at_particles.shape, np.result_type(e_at_particles, scale, dt))
    out = np.empty(v.shape, np.result_type(v, kick))
    scaled = np.result_type(e_at_particles, scale)

    def slab(rows: slice) -> None:
        k = kick[rows]
        np.multiply(e_at_particles[rows], scale, out=k, dtype=scaled)
        np.multiply(k, dt, out=k)
        op(v[rows], k, out=out[rows])

    _rows(backend, v, slab)
    return out


def push_velocities(
    v: np.ndarray,
    e_at_particles: np.ndarray,
    qm: float,
    dt: float,
    backend: "KernelBackend | None" = None,
    work: "Workspace | None" = None,
) -> np.ndarray:
    """Leapfrog velocity update (Eq. 2); returns a new array."""
    return _kick(v, e_at_particles, qm, dt, backend, work, np.add)


def push_positions(
    x: np.ndarray,
    v: np.ndarray,
    dt: float,
    length: float,
    backend: "KernelBackend | None" = None,
    work: "Workspace | None" = None,
) -> np.ndarray:
    """Leapfrog position update (Eq. 1) with periodic wrapping.

    Returns a new array.  float64 positions wrap exactly as
    ``np.mod(x + v * dt, length)`` (see
    :func:`repro.pic.grid.wrap_into_box`); the float32 tier wraps via
    floor — ~8x cheaper than ``np.mod`` and equal to it up to
    single-precision rounding (a particle may land exactly on ``L``,
    which the grid treats as node 0).
    """
    work = work if work is not None else Workspace()
    out = np.empty(x.shape, np.result_type(x, v, dt))
    step_dtype = np.result_type(v, dt)
    if x.dtype == np.float32:
        scratch = work.get("wrap", out.shape, out.dtype)
        flen = np.float32(length)
    else:
        scratch = work.get("wrap_mask", out.shape, np.bool_)

    def slab(rows: slice) -> None:
        y = out[rows]
        np.multiply(v[rows], dt, out=y, dtype=step_dtype)
        np.add(x[rows], y, out=y)
        if x.dtype == np.float32:
            t = scratch[rows]
            np.divide(y, flen, out=t)
            np.floor(t, out=t)
            t *= flen
            y -= t
        else:
            wrap_into_box(y, length, scratch[rows])

    _rows(backend, x, slab)
    return out


def rewind_velocities(
    v: np.ndarray,
    e_at_particles: np.ndarray,
    qm: float,
    dt: float,
    backend: "KernelBackend | None" = None,
    work: "Workspace | None" = None,
) -> np.ndarray:
    """Shift velocities from ``t=0`` back to ``t=-dt/2`` to start leapfrog.

    Standard leapfrog initialization: the loaded velocities are defined
    at integer time 0 while the scheme stores them at half steps.
    """
    return _kick(v, e_at_particles, 0.5 * qm, dt, backend, work, np.subtract)


def synchronize_velocities(
    v: np.ndarray,
    e_at_particles: np.ndarray,
    qm: float,
    dt: float,
    backend: "KernelBackend | None" = None,
    work: "Workspace | None" = None,
) -> np.ndarray:
    """Half-step ``v^{n+1/2}`` forward to integer time ``t_{n+1}``.

    The inverse of :func:`rewind_velocities` with the new field: the
    time-centered velocities the diagnostics read.
    """
    return _kick(v, e_at_particles, 0.5 * qm, dt, backend, work, np.add)

