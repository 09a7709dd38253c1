"""Distributed-memory execution of both PIC methods (simulated ranks).

Implements the paper's Sec. VII discussion as runnable code.  Each rank
owns a spatial slab and the particles inside it.  Per step:

**Traditional field solve** — ranks deposit their particles' charge
locally, the density is summed to a root rank (``reduce``), the root
solves the Poisson system, and the field is replicated back
(``bcast``).  Particles crossing slab boundaries migrate point-to-point.

**DL field solve** — ranks bin their local particles into partial
phase-space histograms (binning is additive), one ``allreduce``
combines them, and every rank then runs the replicated network locally:
no field-solve gather/broadcast, one synchronization point per step.

Both run on the explicit :class:`~repro.pic.simulation.EnsembleSimulation`
engine through a private batched field solver that hands each row to
its own single-run distributed solver, so every row keeps its own
decomposition, simulated communicator and migration tracker.  The
traditional decomposition is the served ``mpi`` engine family
(:class:`MPIEnsemble`; a solo run is ``make_engine([config])`` with
``solver="mpi"`` and ``extra={"n_ranks": N}``, its traffic in
``comm_stats``).  The DL decomposition runs as a batch of one through
:func:`run_distributed_dl`; it is not a served family, because the
``mpi`` store key carries no model fingerprint.  Both are verified
(tests) to reproduce the serial methods' physics, since decomposition
only reorders arithmetic.  ``communication_model`` additionally
provides the closed-form per-step byte counts so sweeps over rank
counts don't need actual runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.dlpic.solver import DLFieldSolver
from repro.engines.base import mpi_rank_params
from repro.engines.observables import Observables, resolve_observables
from repro.parallel.comm import CommStats, SimulatedComm
from repro.parallel.decomposition import DomainDecomposition1D
from repro.phasespace.binning import PhaseSpaceGrid, bin_phase_space
from repro.pic.grid import Grid1D
from repro.pic.interpolation import deposit
from repro.pic.poisson import PoissonSolver
from repro.pic.simulation import EnsembleSimulation


@dataclass
class DistributedPICResult:
    """Outcome of a distributed run: physics history + traffic stats."""

    label: str
    n_ranks: int
    n_steps: int
    history: Observables
    comm: CommStats

    @property
    def bytes_per_step(self) -> float:
        """Average communication volume per PIC cycle."""
        if self.n_steps == 0:
            return 0.0
        return self.comm.total_bytes / self.n_steps

    @property
    def sync_points_per_step(self) -> float:
        """Average number of collective calls per PIC cycle."""
        if self.n_steps == 0:
            return 0.0
        return self.comm.total_calls / self.n_steps


class _MigrationTracker:
    """Charges point-to-point traffic for particles changing ranks."""

    #: bytes per migrated particle: position + velocity (two float64).
    BYTES_PER_PARTICLE = 16

    def __init__(self, decomp: DomainDecomposition1D, comm: SimulatedComm) -> None:
        self.decomp = decomp
        self.comm = comm
        self._owners: "np.ndarray | None" = None

    def update(self, x: np.ndarray) -> None:
        owners = self.decomp.owner_of(x)
        if self._owners is not None and self.comm.size > 1:
            moved = int(np.count_nonzero(owners != self._owners))
            if moved:
                self.comm.sendrecv(np.empty(moved * 2, dtype=np.float64))
        self._owners = owners


class _DistributedTraditionalSolver:
    """One run's field solver doing rank-local deposition + reduce/solve/bcast.

    Owns the run's decomposition over its ``n_ranks`` (from
    ``config.extra``, see :func:`repro.engines.base.mpi_rank_params`),
    its simulated communicator and its migration tracker.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.grid = Grid1D(config.n_cells, config.box_length)
        n_ranks = mpi_rank_params(config)
        self.decomp = DomainDecomposition1D(self.grid, n_ranks)
        self.comm = SimulatedComm(n_ranks)
        self.particle_charge = config.particle_charge
        self.interpolation = config.interpolation
        self.background = 1.0  # the uniform ion background
        self.poisson = PoissonSolver(
            self.grid, method=config.poisson_solver, gradient=config.gradient
        )
        self.migration = _MigrationTracker(self.decomp, self.comm)

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        self.migration.update(x)
        parts = self.decomp.partition(x)
        local = [
            deposit(self.grid, xr[0], self.particle_charge, order=self.interpolation)
            for xr in parts
        ]
        rho = self.comm.reduce(local, root=0) + self.background
        _, e = self.poisson.solve(rho)
        replicated = self.comm.bcast(e, root=0)
        return replicated[0]


class _DistributedDLSolver:
    """Field solver doing rank-local binning + histogram allreduce."""

    def __init__(
        self,
        solver: DLFieldSolver,
        decomp: DomainDecomposition1D,
        comm: SimulatedComm,
    ) -> None:
        self.solver = solver
        self.decomp = decomp
        self.comm = comm
        self.migration = _MigrationTracker(decomp, comm)

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        self.migration.update(x)
        parts = self.decomp.partition(x, v)
        local_hists = [
            bin_phase_space(xr, vr, self.solver.ps_grid, order=self.solver.binning)
            for xr, vr in parts
        ]
        hist = self.comm.allreduce(local_hists)[0]
        # Every rank predicts locally with the replicated network; the
        # result is identical on all ranks, so compute it once.
        return self.solver.predict_from_histograms(hist[None])[0]


class _RowSolvers:
    """Batched field solver running one single-run solver per row.

    Row ``b`` of the stacked ``(batch, n)`` phase space goes to
    ``solvers[b]``, which owns that row's decomposition, simulated
    communicator and migration tracker.
    """

    def __init__(self, solvers: Sequence) -> None:
        self.solvers = list(solvers)

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.stack([solver.field(x[b], v[b]) for b, solver in enumerate(self.solvers)])


def run_distributed_dl(
    config: SimulationConfig,
    dl_solver: DLFieldSolver,
    n_ranks: int,
    n_steps: "int | None" = None,
    rng: "int | np.random.Generator | None" = None,
) -> DistributedPICResult:
    """Run the DL-based method over ``n_ranks`` simulated ranks."""
    grid = Grid1D(config.n_cells, config.box_length)
    decomp = DomainDecomposition1D(grid, n_ranks)
    comm = SimulatedComm(n_ranks)
    solver = _RowSolvers([_DistributedDLSolver(dl_solver, decomp, comm)])
    sim = EnsembleSimulation(config, field_solver=solver, rngs=[rng])
    steps = config.n_steps if n_steps is None else n_steps
    comm.stats.reset()
    history = sim.run(steps, history=Observables(resolve_observables(None), squeeze=True))
    return DistributedPICResult(
        label="DL-based PIC", n_ranks=n_ranks, n_steps=steps, history=history, comm=comm.stats
    )


class MPIEnsemble(EnsembleSimulation):
    """Engine serving batches of simulated-MPI runs.

    Registered in the engine registry as ``solver="mpi"``: the explicit
    ensemble engine whose field solve is the domain-decomposed
    traditional solver (:class:`_DistributedTraditionalSolver`), one per
    row.  Each row owns its decomposition, simulated communicator and
    migration tracker, with ``n_ranks`` from that row's
    ``config.extra`` (default
    :data:`repro.engines.base.MPI_DEFAULT_N_RANKS`), so one batch may
    mix rank counts.  A solo distributed run is a batch of one.

    Decomposition only reorders the charge-density reduction, so the
    physics matches the serial ``traditional`` family to floating-point
    reordering tolerance (see the parity tests), not bitwise.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        rngs: "Sequence[int | np.random.Generator | None] | None" = None,
    ) -> None:
        if isinstance(configs, SimulationConfig):
            configs = (configs,)
        solvers = [_DistributedTraditionalSolver(cfg) for cfg in configs]
        super().__init__(configs, field_solver=_RowSolvers(solvers), rngs=rngs)
        for solver in solvers:
            solver.comm.stats.reset()  # count only the time loop, not the t=0 field solve

    @property
    def comm_stats(self) -> "list[CommStats]":
        """Per-row simulated-communication traffic of the time loop."""
        return [solver.comm.stats for solver in self.field_solver.solvers]


def communication_model(
    n_ranks: int,
    n_cells: int,
    ps_grid: PhaseSpaceGrid,
    migrating_fraction: float = 0.0,
    n_particles: int = 0,
    itemsize: int = 8,
) -> dict[str, dict[str, float]]:
    """Closed-form per-step communication volume of both field solves.

    Mirrors the accounting of the simulated communicator:

    * traditional: ``reduce(rho)`` from the non-root ranks +
      ``bcast(E)`` to the non-root ranks;
    * DL: one ``allreduce`` of the phase-space histogram;
    * both: point-to-point migration of
      ``migrating_fraction * n_particles`` particles (16 bytes each).

    Returns ``{"traditional": {...}, "dl": {...}}`` with per-step bytes
    and synchronization (collective-call) counts.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if not 0.0 <= migrating_fraction <= 1.0:
        raise ValueError(f"migrating_fraction must be in [0, 1], got {migrating_fraction}")
    migration_bytes = migrating_fraction * n_particles * 2 * itemsize if n_ranks > 1 else 0.0
    if n_ranks == 1:
        trad_bytes = dl_bytes = 0.0
        trad_syncs = dl_syncs = 0.0
    else:
        rho_bytes = n_cells * itemsize
        trad_bytes = rho_bytes * (n_ranks - 1) + rho_bytes * (n_ranks - 1)
        trad_syncs = 2.0  # reduce + bcast
        hist_bytes = ps_grid.size * itemsize
        dl_bytes = hist_bytes * n_ranks
        dl_syncs = 1.0  # single allreduce
    return {
        "traditional": {
            "bytes_per_step": trad_bytes + migration_bytes,
            "sync_points_per_step": trad_syncs + (1.0 if migration_bytes else 0.0),
        },
        "dl": {
            "bytes_per_step": dl_bytes + migration_bytes,
            "sync_points_per_step": dl_syncs + (1.0 if migration_bytes else 0.0),
        },
    }
