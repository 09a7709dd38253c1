"""Harvest noise-free training data from Vlasov-Poisson runs.

The DL solver consumes phase-space *particle counts*; a Vlasov solution
is a smooth density.  ``expected_counts`` converts the distribution to
the expected NGP histogram a PIC run with ``n_particles`` macro
particles would produce, so Vlasov-generated pairs slot into the same
training pipeline (the paper's proposed noise-free data source).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.datagen.dataset import FieldDataset
from repro.engines.base import make_engine, vlasov_grid_params
from repro.engines.observables import Observables
from repro.phasespace.binning import PhaseSpaceGrid


def _coarsen(f: np.ndarray, factor_v: int, factor_x: int) -> np.ndarray:
    """Block-sum coarsening of a phase-space density (mass-weighted)."""
    n_v, n_x = f.shape
    return (
        f.reshape(n_v // factor_v, factor_v, n_x // factor_x, factor_x).sum(axis=(1, 3))
    )


def expected_counts(
    f: np.ndarray,
    config: SimulationConfig,
    ps_grid: PhaseSpaceGrid,
    n_particles: int,
) -> np.ndarray:
    """Expected per-bin particle counts of an equivalent PIC ensemble.

    ``f`` is one ``(n_v, n_x)`` distribution on the phase-space grid of
    the ``solver="vlasov"`` run ``config`` (``n_cells`` columns, the
    velocity window of :func:`~repro.engines.base.vlasov_grid_params`).
    The distribution is normalized to mean density 1, so its total mass
    is ``L`` and the expected count in a phase-space cell of mass ``m``
    is ``n_particles * m / L``.  The Vlasov grid must tile the
    histogram grid (equal or integer-multiple resolution, same window).
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    n_v, v_min, v_max = vlasov_grid_params(config)
    n_x = config.n_cells
    if n_v % ps_grid.n_v or n_x % ps_grid.n_x:
        raise ValueError(
            f"Vlasov grid {(n_v, n_x)} does not tile histogram grid {ps_grid.shape}"
        )
    if (
        abs(v_min - ps_grid.v_min) > 1e-12
        or abs(v_max - ps_grid.v_max) > 1e-12
        or abs(config.box_length - ps_grid.box_length) > 1e-12
    ):
        raise ValueError("Vlasov and histogram phase-space windows differ")
    cell_mass = np.asarray(f, dtype=np.float64) * config.dx * ((v_max - v_min) / n_v)
    coarse = _coarsen(cell_mass, n_v // ps_grid.n_v, n_x // ps_grid.n_x)
    return coarse * (n_particles / config.box_length)


def harvest_vlasov_ensemble(
    configs: "Sequence[SimulationConfig]",
    ps_grid: PhaseSpaceGrid,
    n_particles: int,
    stride: int = 1,
) -> FieldDataset:
    """Harvest (expected-count, field) pairs from one batched Vlasov run.

    All ``configs`` (``solver="vlasov"`` :class:`SimulationConfig`
    runs, possibly of different scenarios) advance together through one
    :class:`~repro.vlasov.ensemble.VlasovEnsemble` built by the engine
    registry — one batched advection/Poisson pass per step for the
    whole sweep; a single run is ``harvest_vlasov_ensemble([config],
    ...)``.  ``stride`` keeps the initial state and every
    ``stride``-th step (Vlasov runs typically use smaller time steps
    than the PIC campaign).  Pairs are bitwise independent of the
    batch and come back in run-major order, like the PIC campaign's
    :func:`repro.datagen.campaign.harvest_via_client`; the seed column
    holds ``-1`` (a deterministic run).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    configs = list(configs)
    if not configs:
        raise ValueError("ensemble harvest needs at least one configuration")
    n_steps = configs[0].n_steps
    if any(cfg.n_steps != n_steps for cfg in configs):
        raise ValueError("ensemble harvest needs a uniform n_steps across configs")
    sim = make_engine([cfg.with_updates(solver="vlasov") for cfg in configs])
    geometry = sim.config  # the structural reference: one shared grid
    batch = sim.batch
    inputs: list[list[np.ndarray]] = [[] for _ in range(batch)]
    targets: list[list[np.ndarray]] = [[] for _ in range(batch)]
    steps: list[int] = []

    def collect(engine) -> None:
        if engine.step_index % stride:
            return
        for b in range(batch):
            inputs[b].append(expected_counts(engine.f[b], geometry, ps_grid, n_particles))
            targets[b].append(engine.efield[b].copy())
        steps.append(engine.step_index)

    collect(sim)
    sim.run(n_steps, history=Observables(()), callback=collect)

    step_col = np.asarray(steps, dtype=np.float64)
    n_kept = step_col.size
    parts = [
        FieldDataset(
            inputs=np.stack(inputs[b]),
            targets=np.stack(targets[b]),
            params=np.column_stack(
                [
                    np.full(n_kept, cfg.v0),
                    np.full(n_kept, cfg.vth),
                    np.full(n_kept, -1.0),  # seed sentinel: deterministic run
                    step_col,
                ]
            ),
            ps_grid=ps_grid,
        )
        for b, cfg in enumerate(configs)
    ]
    return FieldDataset.concatenate(parts)
