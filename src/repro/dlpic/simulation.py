"""The DL-based PIC method: the full cycle of the paper's Fig. 2.

Identical to the traditional cycle except that the field-solver stage
(charge deposition + Poisson solve) is replaced by phase-space binning
and a neural-network prediction.  The interpolation of the field to
particle positions and the Newton/leapfrog mover are retained verbatim.

:class:`DLEnsemble` extends the batched ensemble engine to the DL
path: every member's histogram is built by one fused binning call and
all fields come from ONE network forward per step, with each row
bitwise identical to the corresponding single :class:`DLPIC` run.
:class:`DLPIC` is that single run: a batch of one whose recorder
squeezes the batch axis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.dlpic.solver import DLFieldSolver
from repro.engines.observables import Observables, resolve_observables
from repro.kernels import KernelBackend
from repro.kernels.blas import blas_threads_settable
from repro.pic.simulation import EnsembleSimulation


def _check_box_length(solver: DLFieldSolver, config: SimulationConfig) -> None:
    """The solver's frozen phase-space grid must match the simulation box."""
    if abs(solver.ps_grid.box_length - config.box_length) > 1e-12 * config.box_length:
        raise ValueError(
            f"solver was trained for box length {solver.ps_grid.box_length}, "
            f"simulation uses {config.box_length}"
        )


class DLEnsemble(EnsembleSimulation):
    """Batched DL-PIC: a whole sweep through one network per step.

    The ensemble engine drives the batch-native neural field solver
    directly: at each cycle the stacked ``(batch, n)`` phase spaces are
    binned in the engine's workspace, normalized in one pass and pushed
    through ONE network forward, so the most expensive stage of the DL
    cycle is amortized across the ensemble exactly like the Poisson
    solve is for traditional sweeps.  Row ``b`` reproduces
    ``DLPIC(configs[b], solver)`` bit for bit.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        field_solver: DLFieldSolver,
        rngs: "Sequence[int | np.random.Generator | None] | None" = None,
    ) -> None:
        if not isinstance(field_solver, DLFieldSolver):
            raise TypeError(
                f"DLEnsemble needs a DLFieldSolver, got {type(field_solver).__name__}"
            )
        if isinstance(configs, SimulationConfig):
            configs = (configs,)
        configs = tuple(configs)
        if configs:
            _check_box_length(field_solver, configs[0])
        # The class's ``KernelBackend()`` chunks this engine's kernels
        # while its solve's forward holds BLAS to one thread.  Where
        # numpy's BLAS cannot be held, its threads busy-wait beside the
        # chunks after every GEMM, so the kernels run one slab: at paper
        # size (8 x 64,000 particles, the 64x64 -> 3x1024 MLP, a 2-vCPU
        # x86_64 VM, 10 alternations) a step took 40.7 ms chunked
        # against 37.1 ms as one slab.
        if type(self._backend) is KernelBackend and not blas_threads_settable():
            self._backend = None
        super().__init__(configs, field_solver=field_solver, rngs=rngs)

    @classmethod
    def from_config(  # type: ignore[override]
        cls,
        config: SimulationConfig,
        batch: int,
        field_solver: DLFieldSolver,
        seeds: "Sequence[int] | None" = None,
    ) -> "DLEnsemble":
        """Replicate ``config`` over ``batch`` seeded members (seed+b)."""
        return super().from_config(config, batch, seeds=seeds, field_solver=field_solver)

    def _solve_field(self) -> np.ndarray:
        """The DL solve on this engine's workspace, grid, gather order and backend."""
        return self.dl_solver.fields(
            self.particles.x, self.particles.v, work=self._work, grid=self.grid,
            gather_order=self.config.interpolation, backend=self._backend,
        )

    @property
    def dl_solver(self) -> DLFieldSolver:
        """The neural field solver driving this ensemble."""
        solver = self.field_solver
        assert isinstance(solver, DLFieldSolver)
        return solver

    @property
    def last_histograms(self) -> "np.ndarray | None":
        """Stacked ``(batch, n_v, n_x)`` histograms of this engine's latest solve.

        Read from the engine's workspace, where the DL solve leaves them.
        """
        return self._work.histograms


class DLPIC(DLEnsemble):
    """One PIC run whose field solve is a trained neural network.

    A batch of one: the state is ``(1, n)`` like any ensemble's, and the
    default recorder squeezes the batch axis, so the series are 1-D.
    """

    def __init__(
        self,
        config: SimulationConfig,
        solver: DLFieldSolver,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__(config, solver, rngs=[rng])

    def observables(self) -> Observables:
        """A fresh recorder of 1-D series for this single run."""
        return Observables(resolve_observables(None), squeeze=True)
