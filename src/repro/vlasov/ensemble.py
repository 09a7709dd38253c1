"""Semi-Lagrangian Vlasov-Poisson solver (Cheng & Knorr splitting).

Evolves the electron distribution ``f(x, v, t)`` on a fixed
``(n_v, n_x)`` phase-space grid under

.. math::
    \\partial_t f + v \\partial_x f + (q/m) E \\partial_v f = 0,

coupled to the same Poisson solve as the PIC code.  One time step is
the classic Strang split: half x-advection, E update + full
v-advection, half x-advection.  Advections are exact shifts along grid
lines evaluated with linear interpolation — periodic in ``x``,
zero-inflow in ``v``.  Unlike PIC, the solution carries no particle
shot noise, which is what makes it attractive as a training-data
source.

:class:`VlasovEnsemble` advances a whole batch of independent runs at
once on a stacked ``(batch, n_v, n_x)`` phase-space state: the
x-advection's interpolation weights are computed once and gathered
across the stack, each member's v-advection shifts by its own field,
and the two field solves of the Strang split batch their FFTs through
one :class:`~repro.pic.poisson.PoissonSolver` call.  Every per-element
operation is independent of the batch, so row ``b`` of an ensemble is
bitwise identical to a batch-1 run of member ``b`` — which is what lets
the micro-batching service coalesce Vlasov requests with the same
result guarantees as the PIC families.  A solo run is simply
``make_engine([config])``.

Members are plain :class:`~repro.config.SimulationConfig` runs with
``solver="vlasov"``: the grid maps ``n_cells -> n_x`` and the velocity
window comes from ``extra`` (``n_v``/``v_min``/``v_max``, see
:func:`repro.engines.base.vlasov_grid_params`); the initial state is
the scenario's registered noise-free distribution
(:func:`repro.pic.scenarios.load_distribution`).  Members may differ in
scenario, beam parameters and perturbations, but must agree on the
structural key (grid, window, ``dt``, ``qm``, Poisson discretization).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import (
    VLASOV_STRUCTURAL_FIELDS,
    Engine,
    get_engine_spec,
    vlasov_grid_params,
)
from repro.engines.observables import Observables, resolve_observables
from repro.kernels import resolve_backend
from repro.pic.grid import Grid1D
from repro.pic.poisson import PoissonSolver
from repro.pic.scenarios import load_distribution


class VlasovEnsemble(Engine):
    """Batched Strang-split Vlasov-Poisson integrator over stacked runs.

    Parameters
    ----------
    configs:
        One :class:`SimulationConfig` per member (or a single config
        for a batch of one); all members must share the Vlasov
        structural key.
    f0s:
        Optional ``(batch, n_v, n_x)`` initial distributions (or a
        sequence of ``(n_v, n_x)`` arrays); by default each member
        loads its scenario's registered noise-free distribution.

    The time stepping is the classic split — half x-advection, field
    update + full v-advection, half x-advection — executed on the whole
    stack at once.  The phase-space geometry (``n_x``, ``n_v``,
    ``v_min``, ``v_max``, ``dx``, ``dv`` and the ``(n_v,)`` velocity
    cell centers ``v_centers``) is read from the configs.
    """

    _structural_fields = VLASOV_STRUCTURAL_FIELDS + ("n_v", "v_min", "v_max")
    _structural_key = staticmethod(get_engine_spec("vlasov").structural_key)

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        f0s: "np.ndarray | Sequence[np.ndarray] | None" = None,
    ) -> None:
        super().__init__(configs)
        ref = self.config
        # The phase-space geometry, read once from the reference config
        # (the structural key makes every member agree on it).
        self.n_x = ref.n_cells
        self.n_v, self.v_min, self.v_max = vlasov_grid_params(ref)
        self.dx = ref.dx
        self.dv = (self.v_max - self.v_min) / self.n_v
        n_v, n_x = self.n_v, self.n_x
        if f0s is None:
            rows = [load_distribution(cfg) for cfg in self.configs]
        else:
            stacked = np.asarray(f0s, dtype=np.float64)
            if stacked.ndim == 2:  # one (n_v, n_x) distribution for a batch of one
                stacked = stacked[None]
            rows = [np.array(row) for row in stacked]
            if len(rows) != self.batch:
                raise ValueError(f"got {len(rows)} initial distributions for batch {self.batch}")
        for i, row in enumerate(rows):
            if row.shape != (n_v, n_x):
                raise ValueError(
                    f"member {i} f0 has shape {row.shape}, expected {(n_v, n_x)}"
                )
        self.f: np.ndarray = np.stack(rows)
        self.grid = Grid1D(n_x, ref.box_length)
        self.poisson = PoissonSolver(
            self.grid, method=ref.poisson_solver, gradient=ref.gradient
        )
        self.v_centers = self.v_min + (np.arange(n_v) + 0.5) * self.dv
        # The x-advection shift is a function of the velocity row only:
        # one weight/index computation serves the whole stack and every
        # step, so the interpolation weights and the (flattened) gather
        # indices are frozen here once.  Each member gathers exactly its
        # own elements with the same arithmetic, so rows stay bitwise
        # independent of the batch.
        self._v_shift = self.v_centers * (0.5 * ref.dt) / self.dx
        cols = np.arange(n_x)[None, :] - self._v_shift[:, None]
        base = np.floor(cols).astype(np.int64)
        self._xadv_w = cols - base
        rows = np.arange(n_v)[:, None]
        member = (np.arange(self.batch, dtype=np.int64) * (n_v * n_x))[:, None, None]
        self._xadv_flat0 = (member + (rows * n_x + base % n_x)[None]).reshape(
            self.batch, n_v, n_x
        )
        self._xadv_flat1 = (member + (rows * n_x + (base + 1) % n_x)[None]).reshape(
            self.batch, n_v, n_x
        )
        self._v_rows = np.arange(n_v, dtype=np.float64)[None, :, None]
        # Flat-gather offset of the v-advection: member base + column.
        self._v_flat_offset = member + np.arange(n_x, dtype=np.int64)[None, None, :]
        # The numerical tier: indices and weights are always derived in
        # double (exact), then the state and every stencil operand the
        # advections touch are cast down for float32 runs — after which
        # the whole split cycle (gathers, stencil arithmetic, FFTs) runs
        # in single precision.  float64 runs are untouched.
        self._dtype = ref.np_dtype
        if self._dtype == np.float32:
            self.f = self.f.astype(np.float32)
            self.v_centers = self.v_centers.astype(np.float32)
            self._xadv_w = self._xadv_w.astype(np.float32)
            self._v_rows = self._v_rows.astype(np.float32)
        # The x-advection's other weight, frozen in the tier's dtype.
        self._xadv_1mw = 1.0 - self._xadv_w
        # The kernel backend tier: every advection is a slab function
        # over contiguous batch rows, so a parallel backend chunks the
        # stack while reproducing the reference bit pattern (each row's
        # gathers and arithmetic are independent of the slab bounds).
        self._backend = resolve_backend(ref.backend)
        self.time: float = 0.0
        self.step_index: int = 0
        self.efield: np.ndarray = self._solve_field()

    # -- field and moments ----------------------------------------------
    def density(self) -> np.ndarray:
        """Per-member electron density ``n(x) = integral(f dv)``, ``(batch, n_x)``."""
        return np.add.reduce(self.f, axis=1) * self.dv

    def _solve_field(self) -> np.ndarray:
        """One batched Poisson solve for every member's field."""
        rho = -self.density() + 1.0  # electrons (q = -1) + ion background
        _, e = self.poisson.solve(rho)
        return e

    def mass(self) -> np.ndarray:
        """Per-member phase-space mass, ``(batch,)`` (conserved up to
        outflow through the velocity-window edges)."""
        return np.sum(self.f, axis=(1, 2)) * self.dx * self.dv

    def observables(self) -> Observables:
        """A fresh default recorder: the Vlasov moments and ``mode1``."""
        return Observables(resolve_observables(None, "vlasov"))

    # -- time stepping ---------------------------------------------------
    def _advect_x(self, f: np.ndarray) -> np.ndarray:
        """Batched half x-advection using the frozen gather indices.

        Shifts velocity row ``j`` of every member periodically by
        ``v_j dt / (2 dx)`` cells with linear interpolation.  The gathers
        run as one flat take per stack and the index math is paid once
        at construction instead of every call, as is ``1 - w``; the
        products ``(1 - w) * f0 + w * f1`` are written into the output.
        """
        flat = f.reshape(-1)
        w, one_minus_w = self._xadv_w, self._xadv_1mw
        out = np.empty_like(f)

        def slab(lo: int, hi: int) -> None:
            g0 = flat.take(self._xadv_flat0[lo:hi])
            g1 = flat.take(self._xadv_flat1[lo:hi])
            rows = out[lo:hi]
            np.multiply(one_minus_w, g0, out=rows)
            np.multiply(w, g1, out=g1)
            np.add(rows, g1, out=rows)

        self._backend.run_rows(self.batch, slab)
        return out

    def _advect_v(self, f: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Batched full v-advection (zero inflow), one flat gather per arm.

        Shifts column ``i`` of member ``b`` by ``shift[b, i]`` velocity
        cells with linear interpolation; mass shifted in from outside
        the velocity window is zero.  The zero-inflow clamp can only
        engage within ``max|shift|`` rows of the window edges, so the
        rows are split into an interior slab — gathered with no masks,
        no clips — and two thin boundary slabs that run the fully
        clamped arithmetic.  Within the interior both gather arms are
        valid, where the clamped path reduces to exactly the same
        ``(1-w)*f0 + w*f1`` on exactly the same gathered elements.
        """
        n_v, n_x = self.n_v, self.n_x
        flat = f.reshape(-1)
        # Interior rows r satisfy floor(r - s) in [0, n_v-2] for every
        # member's shift s at every column: r >= max(s) and r < n_v-1+min(s).
        # Derived from the *whole* stack's shift so chunked backends see
        # the same slab bounds as the reference (bitwise invariance).
        r0 = min(max(0, int(np.ceil(shift.max()))), n_v)
        r1 = max(r0, min(n_v, int(np.ceil(n_v - 1 + shift.min()))))
        out = np.empty_like(f)
        v_rows = self._v_rows

        def _base_and_weight(pos: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
            # The weight subtracts the floored positions themselves: the
            # same values as the integer base, in the tier's dtype,
            # without an int64 -> float cast per element.
            floor = np.floor(pos)
            return floor.astype(np.int64), pos - floor

        def slab(blo: int, bhi: int) -> None:
            sh = shift[blo:bhi, None, :]
            offs = self._v_flat_offset[blo:bhi]
            if r1 > r0:
                pos = v_rows[:, r0:r1] - sh
                base, w = _base_and_weight(pos)
                gidx = base * n_x + offs
                f0 = flat.take(gidx)
                f1 = flat.take(gidx + n_x)
                rows = out[blo:bhi, r0:r1]
                np.subtract(1.0, w, out=rows)
                np.multiply(rows, f0, out=rows)
                np.multiply(w, f1, out=f1)
                np.add(rows, f1, out=rows)
            for lo, hi in ((0, r0), (r1, n_v)):
                if lo >= hi:
                    continue
                pos = v_rows[:, lo:hi] - sh
                base, w = _base_and_weight(pos)
                valid0 = (base >= 0) & (base < n_v)
                valid1 = (base + 1 >= 0) & (base + 1 < n_v)
                g0 = flat.take(np.minimum(np.maximum(base, 0), n_v - 1) * n_x + offs)
                g1 = flat.take(np.minimum(np.maximum(base + 1, 0), n_v - 1) * n_x + offs)
                f0 = np.where(valid0, g0, 0.0)
                f1 = np.where(valid1, g1, 0.0)
                out[blo:bhi, lo:hi] = (1.0 - w) * f0 + w * f1

        self._backend.run_rows(self.batch, slab)
        return out

    def step(self) -> None:
        """One batched Strang-split step: x half, v full, x half."""
        cfg = self.config
        self.f = self._advect_x(self.f)
        self.efield = self._solve_field()
        a_shift = cfg.qm * self.efield * cfg.dt / self.dv  # (batch, n_x)
        self.f = self._advect_v(self.f, a_shift)
        self.f = self._advect_x(self.f)
        self.efield = self._solve_field()
        self.time += cfg.dt
        self.step_index += 1
