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

All routines are fully vectorized: gathers use ``np.take``, and
deposits scatter each row's nodes in particle order.  float64 rows use
a weighted ``np.bincount``, which adds in ``np.add.at``'s element order
(so the bits are equal) and runs faster; float32 rows keep
``np.add.at``, because bincount accumulates in double and float32 sums
must round in single precision.  Positions are assumed periodic on
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
ranges, handed to the backend with the call's particle count, so a
backend can chunk the independent rows of a large call across its
pool, always reproducing the reference rows bit for bit.
``backend=None`` is one full slab with zero overhead.

Both routines — and the leapfrog pushers in :mod:`repro.pic.mover` —
also take an optional :class:`~repro.kernels.workspace.Workspace`: the
named, full-size scratch buffers their particle-sized intermediates
(grid coordinates, node indices, weights, field samples, products) are
written into with ``out=`` ufuncs instead of being allocated afresh on
every call.  The contract:

* **engine-owned** — an engine (and a traditional field solver) keeps
  one workspace for its lifetime, so after the first step no kernel
  allocates particle-sized scratch; ``work=None`` runs the same code
  on a throwaway workspace;
* **row-sliced** — a backend slab over rows ``[lo, hi)`` touches only
  rows ``[lo:hi]`` of each buffer, all allocated before the slabs run,
  so concurrent chunks stay race-free;
* **escaping state is always fresh** — a kernel's result (the gathered
  field, the deposited density, the pushed particles) is a new array
  on every call and never aliases the workspace, so callers may hold
  on to it across steps;
* **one stencil per build → gather pair** — a deposit leaves its
  stencil in the workspace for the next gather at the same positions
  array, grid and order (see :class:`~repro.kernels.workspace.Workspace`),
  and so does :func:`build_stencil`, the deposit's stencil without the
  scatter, which the DL field solve calls for its own binning; the
  positions must not be edited in place between the build and the
  gather.

Engines hand that state from step to step by reassignment and cache
what they computed from it (see
:meth:`repro.pic.simulation.EnsembleSimulation.step`), so editing
particle positions or fields in place between steps is unsupported:
assign a new array instead.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.kernels import KernelBackend
from repro.kernels.workspace import Workspace, wrap_indices
from repro.pic.grid import Grid1D, wrap_positions

_ORDERS = ("ngp", "cic", "tsc")


def _run_rows(backend: "KernelBackend | None", x2: np.ndarray, fn) -> None:
    """Execute a slab function over the rows of the ``(batch, n)``
    positions ``x2`` through ``backend`` (None = one slab)."""
    if backend is None:
        fn(0, x2.shape[0])
    else:
        backend.run_rows(x2.shape[0], fn, x2.size)


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


class _Stencil(NamedTuple):
    """What the stencil buffers of a workspace hold after a deposit."""

    positions: object  # the caller's array, matched by identity
    grid: Grid1D
    order: str
    x: np.ndarray  # the positions checked and wrapped, as the stencil saw them


def _recorded_positions(
    work: Workspace, positions: object, grid: Grid1D, order: str
) -> "np.ndarray | None":
    """The wrapped positions of the stencil a deposit left in ``work``.

    None unless that deposit was given this very ``positions`` array, an
    equal grid and the same order.  Clears the record either way, so a
    stencil serves one gather.
    """
    record, work.stencil = work.stencil, None
    if (
        record is not None
        and record.positions is positions
        and record.grid == grid
        and record.order == order
    ):
        return record.x
    return None


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


def _stencil_input(
    work: Workspace, positions: np.ndarray, grid: Grid1D, order: str
) -> np.ndarray:
    """Check ``order`` and ``positions``, drop ``work``'s record and wrap."""
    _check_order(order)
    work.stencil = None
    return wrap_positions(_check_positions(positions), grid.length)


def _build_stencil(
    work: Workspace, positions: object, grid: Grid1D, order: str,
    x: np.ndarray, buffers: "tuple[np.ndarray, np.ndarray, np.ndarray]",
    backend: "KernelBackend | None", then=None,
) -> None:
    """Fill the stencil of ``x`` (``positions`` after :func:`_stencil_input`)
    into ``work``'s :func:`_stencil_buffers` slab by slab, then record it.

    ``then(lo, hi)``, if given, runs on each slab after its fill (the
    deposit's scatter).
    """
    x2 = np.atleast_2d(x)
    s, idx, w = buffers

    def slab(lo: int, hi: int) -> None:
        _fill_stencil(x2[lo:hi], grid, order, s[lo:hi], idx[lo:hi], w[lo:hi])
        if then is not None:
            then(lo, hi)

    _run_rows(backend, x2, slab)
    work.stencil = _Stencil(positions, grid, order, x)


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
        wrap_indices(j, n)
        return
    if order == "cic":
        j, frac = idx[:, 0], w[:, 1]
        np.copyto(j, s, casting="unsafe")
        np.subtract(s, j, out=frac, dtype=s.dtype, casting="unsafe")
        np.subtract(1.0, frac, out=w[:, 0])
        wrap_indices(j, n)
        np.add(j, 1, out=idx[:, 1])
        wrap_indices(idx[:, 1], n)
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
    wrap_indices(j, n)
    np.subtract(j, 1, out=idx[:, 0])
    wrap_indices(idx[:, 0], n)
    np.add(j, 1, out=idx[:, 2])
    wrap_indices(idx[:, 2], n)


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
    rows bit for bit.  The stencil is left in ``work`` for the next
    :func:`gather` at the same positions.
    """
    work = work if work is not None else Workspace()
    x = _stencil_input(work, positions, grid, order)
    w = np.asarray(weights, dtype=x.dtype)
    if w.ndim and w.shape != x.shape:
        try:
            w = np.broadcast_to(w, x.shape)
        except ValueError:
            raise ValueError(
                f"weights of shape {np.shape(weights)} do not broadcast to "
                f"positions of shape {x.shape}"
            ) from None
    batched = x.ndim == 2
    x2 = x if batched else x[None]
    batch = x2.shape[0]
    # A scalar weight (a charge) multiplies the stencil weights as it
    # is; per-particle weights line up with each node block of a row.
    if w.ndim:
        w = (w if batched else w[None])[:, None, :]
    # The density accumulates in the positions' dtype: float64 runs keep
    # the historical bit-for-bit accumulation, float32 runs accumulate
    # (and return) single precision.
    out = np.zeros((batch, grid.n_cells), dtype=x.dtype)
    buffers = _stencil_buffers(work, order, x2.shape, x.dtype)
    _, idx, wts = buffers
    # The weighted products get their own buffer, so the stencil
    # survives for the gather.
    qw = work.get("qw", idx.shape, x.dtype)
    row_idx, row_qw = idx.reshape(batch, -1), qw.reshape(batch, -1)
    single = x.dtype == np.float32

    def scatter(lo: int, hi: int) -> None:
        rows_w = w if w.ndim == 0 else w[lo:hi]
        if order == "ngp":
            qw[lo:hi] = rows_w
        else:
            np.multiply(rows_w, wts[lo:hi], out=qw[lo:hi])
        # One scatter per row, on 1-D operands (ufunc.at is several
        # times faster on those than on 2-D ones).  A row's nodes
        # scatter block by block in particle order — every output
        # cell accumulates in the same order as ever, so the bits do
        # not depend on the slab bounds or on bincount vs np.add.at.
        for b in range(lo, hi):
            if single:
                np.add.at(out[b], row_idx[b], row_qw[b])
            else:
                out[b] = np.bincount(row_idx[b], weights=row_qw[b], minlength=grid.n_cells)

    _build_stencil(work, positions, grid, order, x, buffers, backend, then=scatter)
    out /= grid.dx
    return out if batched else out[0]


def build_stencil(
    grid: Grid1D,
    positions: np.ndarray,
    work: Workspace,
    order: str = "cic",
    backend: "KernelBackend | None" = None,
) -> np.ndarray:
    """Build the particle→grid stencil of ``positions`` into ``work``.

    A :func:`deposit` without the scatter: the stencil is left in
    ``work`` for the next :func:`gather` at the same ``positions``
    array, grid and order.  Returns the wrapped node indices,
    ``(batch, k, n)`` with ``k`` the stencil width (1-D positions are a
    batch of one); they are ``work``'s buffer, valid until the next
    kernel call on it.
    """
    x = _stencil_input(work, positions, grid, order)
    buffers = _stencil_buffers(work, order, np.atleast_2d(x).shape, x.dtype)
    _build_stencil(work, positions, grid, order, x, buffers, backend)
    return buffers[1]


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
    result itself is always a fresh array.  Right after a
    :func:`deposit` on ``work`` at the same ``positions`` array, grid
    and order, the gather reads the stencil that deposit left.
    """
    _check_order(order)
    field = np.asarray(field)
    if field.dtype != np.float32:
        field = np.asarray(field, dtype=np.float64)
    work = work if work is not None else Workspace()
    x = _recorded_positions(work, positions, grid, order)
    filled = x is not None
    if x is None:
        x = wrap_positions(_check_positions(positions), grid.length)
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
    s, idx, w = _stencil_buffers(work, order, x2.shape, x.dtype)
    # Promoting the (grid-sized) field once is exact, so the node
    # samples land in the result dtype with the reference values.
    src = np.ascontiguousarray(field, dtype=out_dtype)
    picks = work.get("picks", idx.shape, out_dtype) if order != "ngp" else None

    def slab(lo: int, hi: int) -> None:
        if not filled:
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

    _run_rows(backend, x2, slab)
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
