"""Electrostatic PIC orchestrators.

:class:`EnsembleSimulation` is the engine of the computational cycle
shared by the traditional and the DL-based method (the white boxes of
the paper's Figs. 1-2): it advances a whole batch of independent runs
at once, every kernel of the cycle (gather, leapfrog push, field solve)
operating on stacked ``(batch, n)`` arrays.  Because each batched kernel
is bitwise identical per row to its single-run form, an ensemble of
size ``B`` reproduces ``B`` sequential runs exactly while amortizing the
per-step Python and FFT overhead across the batch.

The field solve is pluggable and batch-native (:class:`FieldSolver`):
:class:`ChargeDepositionFieldSolver` batches the classic charge deposit
and Poisson FFTs (Fig. 1), and ``repro.dlpic.DLFieldSolver`` bins,
normalizes and network-evaluates a whole ensemble per step (Fig. 2;
``repro.dlpic.DLEnsemble`` is the preconfigured DL engine).

A single run is a batch of one.  :class:`TraditionalPIC` (and
``repro.dlpic.DLPIC`` for the DL solve) adds only a one-config
constructor and a recorder that squeezes the batch axis, so its state
is ``(1, n)`` and its series are 1-D.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import Engine
from repro.engines.observables import Observables, resolve_observables
from repro.kernels import KernelBackend, resolve_backend
from repro.pic.grid import Grid1D
from repro.kernels.workspace import Workspace
from repro.pic.interpolation import charge_density, gather
from repro.pic.mover import (
    push_positions,
    push_velocities,
    rewind_velocities,
    synchronize_velocities,
)
from repro.pic.particles import ParticleSet
from repro.pic.poisson import PoissonSolver
from repro.pic.scenarios import load_ensemble

__all__ = [
    "FieldSolver",
    "ChargeDepositionFieldSolver",
    "EnsembleSimulation",
    "TraditionalPIC",
]


class FieldSolver(Protocol):
    """Anything that can produce ``E`` on the grid from particle data.

    Solvers are batch-native: ``field`` receives stacked ``(batch, n)``
    phase-space arrays and returns one field per run, ``(batch,
    n_cells)``; :class:`EnsembleSimulation` rejects any other shape.
    """

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Electric field on grid nodes given the particle phase space."""
        ...


class ChargeDepositionFieldSolver:
    """The traditional field-solve: deposit charge, solve Poisson.

    This is the right-hand loop of the paper's Fig. 1 (interpolation of
    the charge density at grid points + Poisson solve + gradient).
    Batch-capable: with ``(batch, n)`` positions the deposit scatters
    every row into its own density row and the Poisson solve batches
    its FFTs along the last axis.  Its deposits write their
    intermediates into the kernel workspace ``work`` (by default one of
    the solver's own), so one instance must not serve two concurrently
    stepping engines.  :class:`EnsembleSimulation` hands its default
    solver the engine's own workspace, so the stencil a deposit builds
    at ``x_{n+1}`` is the one the engine's next gather reads.
    """

    def __init__(
        self,
        grid: Grid1D,
        particle_charge: float,
        interpolation: str = "cic",
        poisson_method: str = "spectral",
        gradient: str = "central",
        background: float = 1.0,
        backend: "KernelBackend | None" = None,
        work: "Workspace | None" = None,
    ) -> None:
        self.grid = grid
        self.particle_charge = particle_charge
        self.interpolation = interpolation
        self.background = background
        self.backend = backend
        self.poisson = PoissonSolver(grid, method=poisson_method, gradient=gradient)
        self.last_rho: "np.ndarray | None" = None
        self.last_phi: "np.ndarray | None" = None
        self._work = work if work is not None else Workspace()

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        rho = charge_density(
            self.grid, x, self.particle_charge, order=self.interpolation,
            background=self.background, backend=self.backend, work=self._work,
        )
        phi, e = self.poisson.solve(rho)
        self.last_rho = rho
        self.last_phi = phi
        return e


class EnsembleSimulation(Engine):
    """Batched explicit electrostatic PIC cycle over stacked runs.

    Parameters
    ----------
    configs:
        One configuration per ensemble member (or a single config for a
        batch of one).  Members may differ in scenario, seed, beam
        parameters, loading and perturbation, but must agree on the
        structural fields (grid, time step, particle count,
        interpolation and solver choices) listed in
        :data:`repro.engines.base.STRUCTURAL_FIELDS`.
    field_solver:
        Optional batch-native :class:`FieldSolver`; defaults to the
        traditional batched charge-deposit + Poisson solve, sharing the
        engine's kernel workspace.
    rngs:
        Optional per-member RNG overrides (seeds or generators); by
        default each member loads from its own ``config.seed``.

    Leapfrog time staggering: positions at integer times, velocities at
    half times, diagnostics at integer times via the time-centered
    velocity average.

    The engine owns the kernel :class:`~repro.kernels.workspace.Workspace`
    its gather and pushers write their intermediates into (see
    :meth:`step` for the contract), and caches the field gathered at the
    current ``(particles.x, efield)``.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        field_solver: "FieldSolver | None" = None,
        rngs: "Sequence[int | np.random.Generator | None] | None" = None,
    ) -> None:
        super().__init__(configs)
        ref = self.config
        self.grid = Grid1D(ref.n_cells, ref.box_length)
        self._work = Workspace()
        # (x, efield, E at the particles) of the latest gather.
        self._gathered: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        # The kernel backend tier: how the independent batch rows of
        # every hot kernel execute.  All backends reproduce the numpy
        # reference bit for bit (per-row invariance), so this is purely
        # a speed knob.
        self._backend = resolve_backend(ref.backend)
        if field_solver is None:
            field_solver = ChargeDepositionFieldSolver(
                self.grid,
                particle_charge=ref.particle_charge,
                interpolation=ref.interpolation,
                poisson_method=ref.poisson_solver,
                gradient=ref.gradient,
                backend=self._backend,
                work=self._work,
            )
        self.field_solver = field_solver
        self.particles: ParticleSet = load_ensemble(self.configs, rngs)
        # The numerical tier: float64 runs are bitwise reproducible;
        # float32 runs load identically (same RNG draws, in double) and
        # then cast the initial state down, after which the whole cycle
        # — gather, push, deposit, FFTs — runs in single precision.
        self._dtype = ref.np_dtype
        if self._dtype == np.float32:
            self.particles.x = self.particles.x.astype(np.float32)
            self.particles.v = self.particles.v.astype(np.float32)
        self.time: float = 0.0
        self.step_index: int = 0
        # Field at t=0 consistent with the initial particle state.
        self.efield: np.ndarray = np.asarray(self._solve_field(), dtype=self._dtype)
        if self.efield.shape != (self.batch, ref.n_cells):
            raise ValueError(
                f"field solver returned shape {self.efield.shape}, "
                f"expected ({self.batch}, {ref.n_cells})"
            )
        self._v_integer = self.particles.v.copy()  # v at t=0 (integer time)
        # Rewind v to t = -dt/2 for leapfrog staggering.  The rewind
        # gather is the force of step 0 too: the cache carries it over.
        self.particles.v = rewind_velocities(
            self.particles.v, self._field_at_particles(), ref.qm, ref.dt,
            backend=self._backend, work=self._work,
        )

    @classmethod
    def from_config(
        cls,
        config: SimulationConfig,
        batch: int,
        seeds: "Sequence[int] | None" = None,
        field_solver: "FieldSolver | None" = None,
    ) -> "EnsembleSimulation":
        """Replicate ``config`` over ``batch`` members with distinct seeds.

        By default member ``b`` uses ``config.seed + b``, so a batch of
        one is seeded exactly like the single-run simulation and two
        ensembles built from the same config are identical.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if seeds is None:
            seeds = [config.seed + b for b in range(batch)]
        if len(seeds) != batch:
            raise ValueError(f"got {len(seeds)} seeds for batch {batch}")
        return cls(
            [config.with_updates(seed=int(s)) for s in seeds], field_solver=field_solver
        )

    @property
    def v_at_integer_time(self) -> np.ndarray:
        """Velocities synchronized to the current integer time, ``(batch, n)``."""
        return self._v_integer

    def _solve_field(self) -> np.ndarray:
        """The field solver's ``E`` at the current phase space."""
        return self.field_solver.field(self.particles.x, self.particles.v)

    def _field_at_particles(self) -> np.ndarray:
        """``E`` gathered at the current particles, at most once per state.

        The cache is keyed by the *identity* of ``particles.x`` and
        ``efield``: the step reassigns both, so a hit means the gather
        would see exactly the inputs it saw last time.
        """
        x, efield = self.particles.x, self.efield
        cached = self._gathered
        if cached is not None and cached[0] is x and cached[1] is efield:
            return cached[2]
        e_at_p = gather(
            self.grid, efield, x, order=self.config.interpolation,
            backend=self._backend, work=self._work,
        )
        self._gathered = (x, efield, e_at_p)
        return e_at_p

    def step(self) -> None:
        """Advance every member one PIC cycle (gather -> push v -> push x -> field).

        One gather per step: the gather at ``(x_{n+1}, E_{n+1})`` that
        synchronizes the diagnostic velocities is also the next step's
        force, so the next step reuses it while ``particles.x`` and
        ``efield`` are still the arrays it was computed from (a
        reassigned array triggers a fresh gather).

        One stencil build per step: the default field solver deposits
        into the engine's workspace, and the sync gather at ``x_{n+1}``
        reads the particle→grid stencil that deposit left there instead
        of building it again.  A DL step bins instead of depositing; its
        solve leaves the stencil where its binning can share it (see
        :meth:`repro.dlpic.DLFieldSolver.fields`), and otherwise the
        sync gather builds the one stencil.

        Workspace contract: the kernels write every particle-sized
        intermediate into the engine-owned workspace, in row slices per
        backend chunk; the state that escapes the step — ``particles.x``,
        ``particles.v``, the synchronized velocities, ``efield`` and the
        cached field at the particles — is a fresh array every step, so
        references held from earlier steps keep their values.
        Editing that state *in place* between steps is unsupported
        (neither the gather cache nor the stencil handoff can see it);
        assign a new array instead.
        """
        cfg = self.config
        backend = self._backend
        work = self._work
        v_new = push_velocities(
            self.particles.v, self._field_at_particles(), cfg.qm, cfg.dt,
            backend=backend, work=work,
        )
        self.particles.v = v_new
        self.particles.x = push_positions(
            self.particles.x, v_new, cfg.dt, cfg.box_length, backend=backend, work=work
        )
        self.efield = np.asarray(self._solve_field(), dtype=self._dtype)
        self.step_index += 1
        self.time += cfg.dt
        # Synchronize velocities to the new integer time t_{n+1} with a
        # half push using the freshly computed field (diagnostics only).
        self._v_integer = synchronize_velocities(
            v_new, self._field_at_particles(), cfg.qm, cfg.dt, backend=backend, work=work
        )


class TraditionalPIC(EnsembleSimulation):
    """The paper's traditional explicit electrostatic PIC (Fig. 1), one run.

    A batch of one: the state is ``(1, n)`` like any ensemble's, and the
    default recorder squeezes the batch axis, so the series are 1-D.
    """

    def __init__(
        self,
        config: SimulationConfig,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__(config, rngs=[rng])

    def observables(self) -> Observables:
        """A fresh recorder of 1-D series for this single run."""
        return Observables(resolve_observables(None), squeeze=True)
