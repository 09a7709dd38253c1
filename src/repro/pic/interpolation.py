"""Particle-grid interpolation (gather) and deposition (scatter).

Implements the three classic B-spline shape functions of increasing
order (Birdsall & Langdon, Ch. 8):

* ``"ngp"`` — Nearest Grid Point, zeroth order (the paper's phase-space
  binning choice);
* ``"cic"`` — Cloud-in-Cell, linear (the workhorse of traditional PIC);
* ``"tsc"`` — Triangular-Shaped Cloud, quadratic (the "higher-order
  interpolation functions" the paper suggests for training data).

The same shape function is used for both gather and deposit so the
resulting traditional PIC method is momentum conserving.

All routines are fully vectorized: deposits use ``np.add.at`` on index
arrays, gathers use ``np.take``.  Positions are assumed periodic on
``[0, L)``; callers should wrap positions first (``Grid1D.wrap``),
although a single wrap is also applied defensively here.

Every routine accepts either a single run — ``positions`` of shape
``(n,)``, handled as a batch of one — or a stacked ensemble of
independent runs — ``positions`` of shape ``(batch, n)``.  Batched
deposits scatter each row into its own output row and batched gathers
read each row's own field row.  Row ``b`` of a batched result is
bitwise identical to the corresponding single-run call, which is what
lets the ensemble engine reproduce sequential runs exactly.

Both routines take an optional kernel ``backend`` (``repro.kernels``):
the batched work is expressed as a slab function over contiguous row
ranges, so the threaded backend can chunk independent rows across its
pool, always reproducing the reference rows bit for bit.
``backend=None`` is the reference path itself (one full slab, zero
overhead).

Both routines — and the leapfrog pushers in :mod:`repro.pic.mover` —
also take an optional :class:`Workspace`: the named, full-size scratch
buffers their particle-sized intermediates (grid coordinates, node
indices, weights, field samples, products) are written into with
``out=`` ufuncs instead of being allocated afresh on every call.  The
contract:

* **engine-owned** — an engine (and a traditional field solver) keeps
  one workspace for its lifetime, so after the first step no kernel
  allocates particle-sized scratch; ``work=None`` runs the same code
  on a throwaway workspace;
* **row-sliced** — a backend slab over rows ``[lo, hi)`` touches only
  rows ``[lo:hi]`` of each buffer, all allocated before the slabs run,
  so threaded chunks stay race-free;
* **escaping state is always fresh** — a kernel's result (the gathered
  field, the deposited density, the pushed particles) is a new array
  on every call and never aliases the workspace, so callers may hold
  on to it across steps.

Engines hand that state from step to step by reassignment and cache
what they computed from it (see
:meth:`repro.pic.simulation.EnsembleSimulation.step`), so editing
particle positions or fields in place between steps is unsupported:
assign a new array instead.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import KernelBackend
from repro.pic.grid import Grid1D

_ORDERS = ("ngp", "cic", "tsc")


class Workspace:
    """Named scratch buffers for the particle kernels, reused across calls.

    :meth:`get` returns the buffer registered under ``name``, allocating
    it on first use — or again when a call asks for another shape or
    dtype, so one workspace serves any sequence of calls correctly and
    holds at most one buffer per name.  Buffer contents are undefined
    between calls: they are scratch, never results.  A workspace is not
    shared between engines or threads; slabs of one kernel call write
    disjoint row slices of buffers fetched before the slabs start.
    """

    def __init__(self) -> None:
        self._buffers: "dict[str, np.ndarray]" = {}

    def get(self, name: str, shape: "tuple[int, ...]", dtype: "np.dtype | type") -> np.ndarray:
        """The ``(name, shape, dtype)`` buffer, allocated on first use."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(shape, dtype=dtype)
        return buf


def _run_rows(backend: "KernelBackend | None", n_rows: int, fn) -> None:
    """Execute a slab function through ``backend`` (None = one slab)."""
    if backend is None:
        fn(0, n_rows)
    else:
        backend.run_rows(n_rows, fn)


def _check_order(order: str) -> None:
    if order not in _ORDERS:
        raise ValueError(f"unknown interpolation order {order!r}; expected one of {_ORDERS}")


def _check_positions(positions: np.ndarray) -> np.ndarray:
    """Coerce positions to a float dtype and check the shape.

    float32 inputs stay float32 (the reduced-precision serving tier
    runs the whole cycle in single precision); everything else is
    coerced to float64 exactly as before, so float64 callers keep the
    historical bit-for-bit behavior.  Shapes other than ``(n,)`` and
    ``(batch, n)`` are rejected.
    """
    x = np.asarray(positions)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(
            "positions must be a 1-D (n,) array or a 2-D batched (batch, n) "
            f"array, got shape {x.shape}"
        )
    return x


def _wrap_positions(x: np.ndarray, length: float) -> np.ndarray:
    """Defensive periodic wrap, skipped when already in ``[0, L)``.

    ``np.mod`` is an identity on in-range values, so the fast path is
    bitwise equivalent — it just avoids a full division pass over what
    is, in the PIC cycle, always pre-wrapped data.  The float32 tier's
    cheap wrap (:func:`repro.pic.mover.push_positions`) can land a
    particle exactly *on* ``L``; index ``n_cells`` wraps to node 0 with
    the correct weights, so such positions pass through too.
    """
    if x.size and 0.0 <= x.min():
        xmax = x.max()
        if xmax < length or (xmax == length and x.dtype == np.float32):
            return x
    return np.mod(x, length)


def _wrap_indices(j: np.ndarray, n: int) -> None:
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


def _stencil_buffers(
    work: Workspace, order: str, shape: "tuple[int, int]", dtype: np.dtype
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The full-size grid-coordinate, node-index and weight buffers.

    ``idx`` and ``w`` are ``(batch, k, n)`` with ``k`` the stencil width
    (1, 2 or 3 nodes), so block ``i`` of a row holds every particle's
    ``i``-th node — and one row's nodes are one contiguous run, which
    is the order the deposit scatters them in.
    """
    batch, n = shape
    k = _ORDERS.index(order) + 1
    return (
        work.get("s", shape, dtype),
        work.get("idx", (batch, k, n), np.int64),
        work.get("w", (batch, k, n), dtype),
    )


def _fill_stencil(
    x: np.ndarray, grid: Grid1D, order: str,
    s: np.ndarray, idx: np.ndarray, w: np.ndarray,
) -> None:
    """Node indices and shape-function weights of the particles ``x``.

    Fills the matching row slices of the :func:`_stencil_buffers`
    (``ngp`` leaves ``w`` untouched: its one node has weight 1).  Every
    step computes the historical expressions in their historical order,
    so the bits are those of the reference kernels:

    * grid coordinates are ``x / dx`` (plus ``1/2`` for ``ngp``/``tsc``,
      whose nearest node is the rounded coordinate);
    * node indices truncate them to int64, which equals ``floor`` here:
      the coordinates are never negative (positions are wrapped to
      ``[0, L]`` first), and ``-0.0`` truncates to the same 0;
    * fractional offsets subtract the node index in the positions'
      dtype (float32 runs never promote to float64);
    * indices wrap periodically, the neighbour nodes as
      ``wrap(wrap(j) ± 1) == wrap(j ± 1)``.
    """
    n = grid.n_cells
    np.divide(x, grid.dx, out=s)
    if order == "ngp":
        s += 0.5
        j = idx[:, 0]
        np.copyto(j, s, casting="unsafe")
        _wrap_indices(j, n)
        return
    if order == "cic":
        j, frac = idx[:, 0], w[:, 1]
        np.copyto(j, s, casting="unsafe")
        np.subtract(s, j, out=frac, dtype=s.dtype, casting="unsafe")
        np.subtract(1.0, frac, out=w[:, 0])
        _wrap_indices(j, n)
        np.add(j, 1, out=idx[:, 1])
        _wrap_indices(idx[:, 1], n)
        return
    # tsc: nearest node j, offset d in [-1/2, 1/2), quadratic weights
    # 0.5 (0.5 - d)^2, 0.75 - d^2 and 0.5 (0.5 + d)^2.
    j, d = idx[:, 1], s
    np.add(s, 0.5, out=w[:, 0])
    np.copyto(j, w[:, 0], casting="unsafe")
    np.subtract(s, j, out=d, dtype=s.dtype, casting="unsafe")
    w_left, w_center, w_right = w[:, 0], w[:, 1], w[:, 2]
    np.multiply(d, d, out=w_center)
    np.subtract(0.75, w_center, out=w_center)
    np.subtract(0.5, d, out=w_left)
    np.multiply(w_left, w_left, out=w_left)
    w_left *= 0.5
    np.add(d, 0.5, out=w_right)
    np.multiply(w_right, w_right, out=w_right)
    w_right *= 0.5
    _wrap_indices(j, n)
    np.subtract(j, 1, out=idx[:, 0])
    _wrap_indices(idx[:, 0], n)
    np.add(j, 1, out=idx[:, 2])
    _wrap_indices(idx[:, 2], n)


def deposit(
    grid: Grid1D,
    positions: np.ndarray,
    weights: "np.ndarray | float",
    order: str = "cic",
    backend: "KernelBackend | None" = None,
    work: "Workspace | None" = None,
) -> np.ndarray:
    """Scatter per-particle ``weights`` onto grid nodes.

    Returns the *node density*: the weighted shape-function sum divided
    by ``dx``, so depositing particle charges yields a charge density.
    The total deposited weight is conserved exactly for every order:
    ``deposit(...).sum() * dx == weights.sum()``.

    ``positions`` may be ``(n,)`` (returns ``(n_cells,)``) or a batched
    ``(batch, n)`` stack of independent runs (returns
    ``(batch, n_cells)``, each row deposited independently).  Any other
    shape, or ``weights`` that do not broadcast against ``positions``,
    raises ``ValueError``.  ``backend`` selects how the independent
    rows execute and ``work`` holds the particle-sized intermediates
    (see the module docstring); every backend reproduces the default's
    rows bit for bit.
    """
    _check_order(order)
    x = _wrap_positions(_check_positions(positions), grid.length)
    try:
        w = np.broadcast_to(np.asarray(weights, dtype=x.dtype), x.shape)
    except ValueError:
        raise ValueError(
            f"weights of shape {np.shape(weights)} do not broadcast to "
            f"positions of shape {x.shape}"
        ) from None
    batched = x.ndim == 2
    x2 = np.atleast_2d(x)
    w2 = np.atleast_2d(w)
    batch = x2.shape[0]
    # The density accumulates in the positions' dtype: float64 runs keep
    # the historical bit-for-bit accumulation, float32 runs accumulate
    # (and return) single precision.
    out = np.zeros((batch, grid.n_cells), dtype=x.dtype)
    s, idx, wts = _stencil_buffers(
        work if work is not None else Workspace(), order, x2.shape, x.dtype
    )
    row_idx, row_wts = idx.reshape(batch, -1), wts.reshape(batch, -1)

    def slab(lo: int, hi: int) -> None:
        rows = wts[lo:hi]
        _fill_stencil(x2[lo:hi], grid, order, s[lo:hi], idx[lo:hi], rows)
        if order == "ngp":
            rows[:, 0] = w2[lo:hi]
        else:
            np.multiply(w2[lo:hi, None, :], rows, out=rows)
        # One np.add.at per row, on 1-D operands (ufunc.at is several
        # times faster on those than on 2-D ones).  A row's nodes
        # scatter block by block in particle order — every output
        # cell accumulates in the same order as ever, so the bits do
        # not depend on the slab bounds.
        for b in range(lo, hi):
            np.add.at(out[b], row_idx[b], row_wts[b])

    _run_rows(backend, batch, slab)
    out /= grid.dx
    return out if batched else out[0]


def gather(
    grid: Grid1D,
    field: np.ndarray,
    positions: np.ndarray,
    order: str = "cic",
    backend: "KernelBackend | None" = None,
    work: "Workspace | None" = None,
) -> np.ndarray:
    """Interpolate a node-defined ``field`` to particle ``positions``.

    With 1-D positions the field must be ``(n_cells,)``.  With batched
    ``(batch, n)`` positions the field may be ``(batch, n_cells)`` (one
    field per run) or ``(n_cells,)`` (shared across the ensemble); the
    result is ``(batch, n)``.  ``backend`` routes the batched rows and
    ``work`` holds the particle-sized intermediates (see the module
    docstring); results are bit-identical for every backend.  The
    result itself is always a fresh array.
    """
    _check_order(order)
    field = np.asarray(field)
    if field.dtype != np.float32:
        field = np.asarray(field, dtype=np.float64)
    x = _wrap_positions(_check_positions(positions), grid.length)
    if x.ndim == 1 and field.shape != (grid.n_cells,):
        raise ValueError(f"field has shape {field.shape}, expected ({grid.n_cells},)")
    x2 = x if x.ndim == 2 else x[None]
    batch = x2.shape[0]
    per_row = field.ndim == 2
    if field.shape not in ((grid.n_cells,), (batch, grid.n_cells)):
        raise ValueError(
            f"field has shape {field.shape}, expected ({grid.n_cells},) or "
            f"({batch}, {grid.n_cells}) for batched positions"
        )

    # ngp copies field samples verbatim; the weighted orders promote the
    # field against the positions-dtype weights exactly as the reference
    # expressions always have.
    if order == "ngp" or field.dtype == x.dtype:
        out_dtype = field.dtype
    else:
        out_dtype = np.result_type(field.dtype, x.dtype)
    out = np.empty(x2.shape, dtype=out_dtype)
    work = work if work is not None else Workspace()
    s, idx, w = _stencil_buffers(work, order, x2.shape, x.dtype)
    # Promoting the (grid-sized) field once is exact, so the node
    # samples land in the result dtype with the reference values.
    src = np.ascontiguousarray(field, dtype=out_dtype)
    picks = work.get("picks", idx.shape, out_dtype) if order != "ngp" else None

    def slab(lo: int, hi: int) -> None:
        _fill_stencil(x2[lo:hi], grid, order, s[lo:hi], idx[lo:hi], w[lo:hi])
        # Per-row takes read a grid-sized field row straight from
        # cache; mode="clip" is unbuffered and a no-op on indices
        # that are already wrapped.
        for b in range(lo, hi):
            row = src[b] if per_row else src
            if picks is None:
                row.take(idx[b, 0], out=out[b], mode="clip")
            else:
                row.take(idx[b], out=picks[b], mode="clip")
        if picks is None:
            return
        p, res = picks[lo:hi], out[lo:hi]
        np.multiply(p, w[lo:hi], out=p)
        np.add(p[:, 0], p[:, 1], out=res)
        if order == "tsc":
            np.add(res, p[:, 2], out=res)

    _run_rows(backend, batch, slab)
    return out if x.ndim == 2 else out[0]


def charge_density(
    grid: Grid1D,
    positions: np.ndarray,
    particle_charge: float,
    order: str = "cic",
    background: float = 1.0,
    backend: "KernelBackend | None" = None,
    work: "Workspace | None" = None,
) -> np.ndarray:
    """Total charge density: deposited electrons plus a uniform ion
    background (the paper's motionless neutralizing protons).

    With the library's normalization (total electron charge ``-L``) the
    mean of the returned density is zero to round-off.  Accepts single
    ``(n,)`` or batched ``(batch, n)`` positions like :func:`deposit`.
    """
    rho = deposit(
        grid, positions, particle_charge, order=order, backend=backend, work=work
    )
    return rho + background
