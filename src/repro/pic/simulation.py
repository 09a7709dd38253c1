"""Electrostatic PIC orchestrators.

:class:`EnsembleSimulation` is the engine: it advances a whole batch of
independent runs at once, every kernel of the cycle (gather, leapfrog
push, charge deposit, Poisson solve) operating on stacked ``(batch, n)``
arrays.  Because each batched kernel is bitwise identical per row to
its single-run form, an ensemble of size ``B`` reproduces ``B``
sequential runs exactly while amortizing the per-step Python and FFT
overhead across the batch.

:class:`PICSimulation` — the computational cycle shared by the
traditional and the DL-based method (the white boxes of the paper's
Figs. 1-2) — is a thin ``batch=1`` view over the ensemble engine that
keeps the original single-run API (1-D particle arrays, squeezed
``Observables`` diagnostics, per-run pluggable ``FieldSolver``).

:class:`TraditionalPIC` wires in the classic charge-deposit + Poisson
field solve (Fig. 1); ``repro.dlpic.DLPIC`` wires in the neural solver
(Fig. 2).  Both field solves are batch-native: the traditional path
batches its scatter + FFTs, and ``repro.dlpic.DLFieldSolver`` bins,
normalizes and network-evaluates a whole ensemble per step
(``repro.dlpic.DLEnsemble`` is the preconfigured DL sweep engine).

:class:`LockstepEnsemble` serves a batch of families that have no
vectorized step (the energy-conserving and the simulated-MPI PIC): it
advances one solo engine per member in lockstep and presents their
stacked state, so row ``b`` is trivially bitwise identical to running
``configs[b]`` alone.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import STRUCTURAL_FIELDS, Engine
from repro.engines.observables import Frame, Observables, pic_observables
from repro.kernels import KernelBackend, resolve_backend
from repro.pic.grid import Grid1D
from repro.pic.interpolation import Workspace, charge_density, gather
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
    "STRUCTURAL_FIELDS",  # canonical home: repro.engines.base
    "FieldSolver",
    "LiftedFieldSolver",
    "as_batched_solver",
    "ChargeDepositionFieldSolver",
    "EnsembleSimulation",
    "PICSimulation",
    "TraditionalPIC",
]


class FieldSolver(Protocol):
    """Anything that can produce ``E`` on the grid from particle data.

    Single-run solvers receive 1-D ``(n,)`` phase-space arrays and
    return ``(n_cells,)``.  A solver that can handle stacked
    ``(batch, n)`` inputs natively (returning ``(batch, n_cells)``)
    should set ``supports_batch = True``; others are lifted row by row
    via :class:`LiftedFieldSolver` when used in an ensemble.
    """

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Electric field on grid nodes given the particle phase space."""
        ...


class LiftedFieldSolver:
    """Adapts a single-run :class:`FieldSolver` to batched inputs.

    Calls the wrapped solver once per ensemble row and stacks the
    results — no speedup, but it lets per-run solvers (e.g. the
    simulated-MPI solvers) drive an ensemble unchanged, and it keeps
    ``batch=1`` ensembles bitwise faithful to the plain single-run
    cycle.  The DL field solver no longer needs it: it is batch-native
    and predicts every member's field with one network forward.
    """

    supports_batch = True

    def __init__(self, solver: FieldSolver) -> None:
        self.solver = solver

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.stack(
            [np.asarray(self.solver.field(x[b], v[b]), dtype=np.float64)
             for b in range(x.shape[0])]
        )


def as_batched_solver(solver: FieldSolver) -> FieldSolver:
    """Return ``solver`` if batch-capable, else lift it row by row."""
    if getattr(solver, "supports_batch", False):
        return solver
    return LiftedFieldSolver(solver)


class ChargeDepositionFieldSolver:
    """The traditional field-solve: deposit charge, solve Poisson.

    This is the right-hand loop of the paper's Fig. 1 (interpolation of
    the charge density at grid points + Poisson solve + gradient).
    Batch-capable: with ``(batch, n)`` positions the deposit scatters
    every row into its own density row and the Poisson solve batches
    its FFTs along the last axis.  The solver owns the kernel workspace
    its deposits write their intermediates into, so one instance must
    not serve two concurrently stepping engines.
    """

    supports_batch = True

    def __init__(
        self,
        grid: Grid1D,
        particle_charge: float,
        interpolation: str = "cic",
        poisson_method: str = "spectral",
        gradient: str = "central",
        background: float = 1.0,
        backend: "KernelBackend | None" = None,
    ) -> None:
        self.grid = grid
        self.particle_charge = particle_charge
        self.interpolation = interpolation
        self.background = background
        self.backend = backend
        self.poisson = PoissonSolver(grid, method=poisson_method, gradient=gradient)
        self.last_rho: "np.ndarray | None" = None
        self.last_phi: "np.ndarray | None" = None
        self._work = Workspace()

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
        ``STRUCTURAL_FIELDS``.
    field_solver:
        Optional field solver; defaults to the traditional batched
        charge-deposit + Poisson solve.  Single-run solvers are lifted
        automatically.
    rngs:
        Optional per-member RNG overrides (seeds or generators); by
        default each member loads from its own ``config.seed``.

    Leapfrog time staggering matches :class:`PICSimulation`: positions
    at integer times, velocities at half times, diagnostics at integer
    times via the time-centered velocity average.

    The engine owns the kernel :class:`~repro.pic.interpolation.Workspace`
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
            )
        self.field_solver = as_batched_solver(field_solver)
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
        self.efield: np.ndarray = np.asarray(
            self.field_solver.field(self.particles.x, self.particles.v), dtype=self._dtype
        )
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

    def observables(self, record_fields: bool = False) -> Observables:
        """A fresh default observables recorder for this engine."""
        return Observables(pic_observables(record_fields=record_fields))

    def _record(self, hist: Observables) -> None:
        """Stream the current state into ``hist`` as one batched frame."""
        hist.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            particles=self.particles, v_center=self._v_integer,
        ))

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

        Workspace contract: the kernels write every particle-sized
        intermediate into the engine-owned workspace, in row slices per
        backend chunk; the state that escapes the step — ``particles.x``,
        ``particles.v``, the synchronized velocities, ``efield`` and the
        cached field at the particles — is a fresh array every step, so
        references held from earlier steps keep their values.
        Editing that state *in place* between steps is unsupported (the
        gather cache cannot see it); assign a new array instead.
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
        self.efield = np.asarray(
            self.field_solver.field(self.particles.x, self.particles.v), dtype=self._dtype
        )
        self.step_index += 1
        self.time += cfg.dt
        # Synchronize velocities to the new integer time t_{n+1} with a
        # half push using the freshly computed field (diagnostics only).
        self._v_integer = synchronize_velocities(
            v_new, self._field_at_particles(), cfg.qm, cfg.dt, backend=backend, work=work
        )


class PICSimulation(Engine):
    """Single-run view of the ensemble engine (``batch=1``).

    Keeps the seed API: 1-D ``particles`` arrays, a per-run
    :class:`FieldSolver` (lifted internally), squeezed ``Observables``
    diagnostics and the leapfrog staggering described on
    :class:`EnsembleSimulation`.  The trajectory is bitwise identical
    to the pre-ensemble single-run implementation.
    """

    def __init__(
        self,
        config: SimulationConfig,
        field_solver: FieldSolver,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__(config)
        self.field_solver = field_solver
        self._ensemble = EnsembleSimulation((config,), field_solver=field_solver, rngs=[rng])
        self.grid = self._ensemble.grid
        ens_particles = self._ensemble.particles
        self.particles = ParticleSet(
            ens_particles.x[0], ens_particles.v[0], ens_particles.charge, ens_particles.mass
        )
        self._sync_from_ensemble()

    def _sync_from_ensemble(self) -> None:
        """Expose row 0 of the ensemble state through the 1-D attributes."""
        ens = self._ensemble
        self.particles.x = ens.particles.x[0]
        self.particles.v = ens.particles.v[0]
        self.efield = ens.efield[0]
        self._v_integer = ens._v_integer[0]
        self.time = ens.time
        self.step_index = ens.step_index
        self._views = (self.particles.x, self.particles.v, self.efield, self._v_integer)

    def _push_to_ensemble(self) -> None:
        """Adopt the 1-D attributes reassigned since the last sync.

        Untouched views are left alone, so the ensemble keeps the very
        arrays it produced and its step can reuse the cached gather.  A
        reassigned attribute replaces the ensemble's array (as a
        ``(1, n)`` view of it).  Like the ensemble's own state, the
        views must not be edited in place between steps.
        """
        ens = self._ensemble

        def as_row(a: np.ndarray) -> np.ndarray:
            return np.asarray(a, dtype=ens._dtype).reshape(1, -1)

        x, v, efield, v_integer = self._views
        if self.particles.x is not x:
            ens.particles.x = as_row(self.particles.x)
        if self.particles.v is not v:
            ens.particles.v = as_row(self.particles.v)
        if self.efield is not efield:
            ens.efield = as_row(self.efield)
        if self._v_integer is not v_integer:
            ens._v_integer = as_row(self._v_integer)

    @property
    def v_at_integer_time(self) -> np.ndarray:
        """Velocities synchronized to the current integer time."""
        return self._v_integer

    def observables(self, record_fields: bool = False) -> Observables:
        """A fresh default observables recorder for this single run."""
        return Observables(pic_observables(record_fields=record_fields), squeeze=True)

    def _record(self, hist: Observables) -> None:
        """Stream the current 1-D state into ``hist`` as one frame."""
        hist.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            particles=self.particles, v_center=self._v_integer,
        ))

    def step(self) -> None:
        """Advance one PIC cycle (gather -> push v -> push x -> field)."""
        self._push_to_ensemble()
        self._ensemble.step()
        self._sync_from_ensemble()


class LockstepEnsemble(Engine):
    """Batch adapter advancing one solo engine per member in lockstep.

    For families whose step does not vectorize across runs (each member
    of the energy-conserving PIC runs its own Picard iteration; each
    simulated-MPI member owns its own decomposition and communicator),
    the adapter builds one solo engine per member through the
    subclass's :meth:`_member` factory and presents their state stacked
    ``(batch, ...)``.  Row ``b`` is *trivially* bitwise identical to
    running ``configs[b]`` alone, while the service layer still gets
    everything batching buys it: grouped scheduling, request dedup and
    the shared result store.  Subclasses add :meth:`_member` and
    ``step``; members must agree on the explicit PIC structural fields.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        rngs: "Sequence[int | np.random.Generator | None] | None" = None,
    ) -> None:
        super().__init__(configs)
        if rngs is None:
            rngs = [None] * self.batch
        if len(rngs) != self.batch:
            raise ValueError(f"got {len(rngs)} rngs for batch {self.batch}")
        self.members = [self._member(cfg, rng) for cfg, rng in zip(self.configs, rngs)]
        self.grid = self.members[0].grid

    def _member(
        self, config: SimulationConfig, rng: "int | np.random.Generator | None"
    ) -> Engine:
        """The solo engine running one member."""
        raise NotImplementedError

    @property
    def time(self) -> float:
        return self.members[0].time

    @property
    def step_index(self) -> int:
        return self.members[0].step_index

    @property
    def efield(self) -> np.ndarray:
        """Stacked ``(batch, n_cells)`` field across the members."""
        return np.stack([m.efield for m in self.members])

    @property
    def particles(self) -> ParticleSet:
        """Stacked ``(batch, n)`` particle view across the members."""
        ref = self.members[0].particles
        return ParticleSet(
            np.stack([m.particles.x for m in self.members]),
            np.stack([m.particles.v for m in self.members]),
            ref.charge,
            ref.mass,
        )

    @property
    def v_at_integer_time(self) -> np.ndarray:
        """Velocities synchronized to integer time, ``(batch, n)``."""
        return np.stack([m.v_at_integer_time for m in self.members])

    def observables(self, record_fields: bool = False) -> Observables:
        """A fresh default observables recorder for this engine."""
        return Observables(pic_observables(record_fields=record_fields))

    def _record(self, hist: Observables) -> None:
        hist.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            particles=self.particles, v_center=self.v_at_integer_time,
        ))


def _first_row(arr: "np.ndarray | None") -> "np.ndarray | None":
    """Row 0 of a batched grid array (pass 1-D arrays through)."""
    if arr is None:
        return None
    return arr[0] if arr.ndim == 2 else arr


class TraditionalPIC(PICSimulation):
    """The paper's traditional explicit electrostatic PIC (Fig. 1)."""

    def __init__(
        self,
        config: SimulationConfig,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        grid = Grid1D(config.n_cells, config.box_length)
        solver = ChargeDepositionFieldSolver(
            grid,
            particle_charge=config.particle_charge,
            interpolation=config.interpolation,
            poisson_method=config.poisson_solver,
            gradient=config.gradient,
            backend=resolve_backend(config.backend),
        )
        super().__init__(config, solver, rng)

    @property
    def charge_density(self) -> "np.ndarray | None":
        """Total charge density from the most recent field solve."""
        solver = self.field_solver
        assert isinstance(solver, ChargeDepositionFieldSolver)
        return _first_row(solver.last_rho)

    @property
    def potential(self) -> "np.ndarray | None":
        """Electrostatic potential from the most recent field solve."""
        solver = self.field_solver
        assert isinstance(solver, ChargeDepositionFieldSolver)
        return _first_row(solver.last_phi)
