"""Sweep of traditional PIC simulations producing training data.

Section IV-A1 of the paper: 20 combinations of ``(v0, vth)``, 10
seeded "experiments" per combination (data augmentation), 200 steps
per run, one (histogram, field) pair per step — 40,000 pairs total.
"Test Set II" is a derived sweep over unseen parameters
(:meth:`CampaignConfig.test_set_ii`), so it runs, streams and caches
exactly like the training campaign.

Every run is a public-API run request: each config becomes a
:class:`~repro.api.RunRequest` selecting the ``training_pairs`` +
``fields`` observables, and a synchronous :class:`~repro.api.Client`
micro-batches compatible requests into vectorized ensembles (chunked
by a total-particle budget), which amortizes the per-step interpreter
and FFT overhead across the whole sweep.  With ``workers > 1`` the
client shards those ensembles over spawned worker processes (the
closest stand-in for the paper's HPC batch generation that works on
one node); the pairs are bitwise identical either way.  The in-memory
:func:`harvest_via_client` and the streaming
:class:`~repro.datagen.stream.CampaignStream` share one per-run
assembly, :func:`dataset_from_result`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.datagen.dataset import FieldDataset
from repro.phasespace.binning import PhaseSpaceGrid
from repro.utils.rng import spawn_seeds

# The harvest batches runs into ensembles of at most this many
# macro-particles so the stacked (batch, n) state stays cache- and
# memory-friendly even for the paper-scale 200-run campaign.
_ENSEMBLE_PARTICLE_BUDGET = 8_000_000


def _ensemble_size(n_particles: int, n_runs: int, workers: int = 1) -> int:
    """Runs per harvest ensemble: the particle budget's share, and with
    ``workers > 1`` at most ``ceil(n_runs / workers)`` so every worker gets one."""
    size = max(1, _ENSEMBLE_PARTICLE_BUDGET // n_particles)
    return min(size, math.ceil(n_runs / workers)) if workers > 1 else size


@dataclass(frozen=True)
class CampaignConfig:
    """Specification of a data-generation sweep.

    ``v0_values`` x ``vth_values`` x ``experiments_per_combo`` seeded
    traditional PIC runs of ``base_config.n_steps`` steps each.
    """

    v0_values: tuple[float, ...]
    vth_values: tuple[float, ...]
    experiments_per_combo: int
    base_config: SimulationConfig
    ps_grid: PhaseSpaceGrid
    binning: str = "ngp"
    include_initial_state: bool = True
    master_seed: int = 12345

    def __post_init__(self) -> None:
        if not self.v0_values or not self.vth_values:
            raise ValueError("campaign needs at least one v0 and one vth value")
        if self.experiments_per_combo < 1:
            raise ValueError(
                f"experiments_per_combo must be >= 1, got {self.experiments_per_combo}"
            )
        if any(v <= 0 for v in self.v0_values):
            raise ValueError("beam speeds must be positive")
        if any(v < 0 for v in self.vth_values):
            raise ValueError("thermal speeds must be non-negative")

    @property
    def n_simulations(self) -> int:
        """Total number of PIC runs in the sweep."""
        return len(self.v0_values) * len(self.vth_values) * self.experiments_per_combo

    @property
    def n_samples(self) -> int:
        """Total number of (histogram, field) pairs produced."""
        per_run = self.base_config.n_steps + (1 if self.include_initial_state else 0)
        return self.n_simulations * per_run

    def simulation_specs(self) -> list[tuple[float, float, int]]:
        """Deterministic ``(v0, vth, seed)`` list for every run."""
        seeds = spawn_seeds(self.master_seed, self.n_simulations)
        specs = []
        i = 0
        for v0 in self.v0_values:
            for vth in self.vth_values:
                for _ in range(self.experiments_per_combo):
                    specs.append((v0, vth, seeds[i]))
                    i += 1
        return specs

    def run_configs(self) -> "list[SimulationConfig]":
        """One :class:`SimulationConfig` per run, in spec order."""
        return [
            self.base_config.with_updates(v0=v0, vth=vth, seed=seed)
            for v0, vth, seed in self.simulation_specs()
        ]

    def test_set_ii(
        self, v0_values: Sequence[float], vth_values: Sequence[float], seed: int = 777
    ) -> "CampaignConfig":
        """The paper's "Test Set II" sweep over *unseen* parameters.

        One run per ``(v0, vth)`` pair on this campaign's base config,
        phase-space grid and binning, seeded from master seed ``seed``.
        Raises if the pairs overlap this sweep.
        """
        overlap = set(v0_values) & set(self.v0_values)
        overlap_vth = set(vth_values) & set(self.vth_values)
        if overlap and overlap_vth:
            raise ValueError(
                f"test-set-II parameters overlap the training sweep: v0 {overlap}, "
                f"vth {overlap_vth}"
            )
        return replace(
            self,
            v0_values=tuple(v0_values),
            vth_values=tuple(vth_values),
            experiments_per_combo=1,
            master_seed=seed,
        )

    def to_canonical_dict(self) -> dict:
        """JSON-stable description of the sweep (the campaign identity).

        Two campaigns with equal canonical dicts produce bitwise-equal
        datasets; the streaming pipeline hashes this to decide whether
        an existing manifest belongs to the same campaign.
        """
        return {
            "v0_values": list(self.v0_values),
            "vth_values": list(self.vth_values),
            "experiments_per_combo": self.experiments_per_combo,
            "base_config": self.base_config.to_dict(),
            "ps_grid": {
                "n_x": self.ps_grid.n_x,
                "n_v": self.ps_grid.n_v,
                "box_length": self.ps_grid.box_length,
                "v_min": self.ps_grid.v_min,
                "v_max": self.ps_grid.v_max,
            },
            "binning": self.binning,
            "include_initial_state": self.include_initial_state,
            "master_seed": self.master_seed,
        }


def _harvest_observables(ps_grid: PhaseSpaceGrid, binning: str) -> "list[object]":
    """The v1 observables selection producing (histogram, field) pairs."""
    return [
        {
            "name": "training_pairs",
            "n_x": ps_grid.n_x, "n_v": ps_grid.n_v,
            "v_min": ps_grid.v_min, "v_max": ps_grid.v_max,
            "box_length": ps_grid.box_length, "order": binning,
        },
        "fields",
    ]


def dataset_from_result(
    config: SimulationConfig,
    result: "object",
    ps_grid: PhaseSpaceGrid,
    include_initial_state: bool = True,
) -> FieldDataset:
    """Assemble one run's harvested pairs from its served result.

    ``result`` is any object with a ``series`` mapping holding the
    ``training_pairs`` observables output (``histograms`` + ``fields``)
    — a :class:`~repro.api.RunResult` or a service-layer result.  The
    one assembly path shared by the materializing harvest
    (:func:`harvest_via_client`) and the streaming campaign
    (:mod:`repro.datagen.stream`), so the two are bitwise
    interchangeable by construction.
    """
    first = 0 if include_initial_state else 1
    hists = np.asarray(result.series["histograms"])[first:]
    fields = np.asarray(result.series["fields"])[first:]
    n_pairs = hists.shape[0]
    params = np.column_stack(
        [
            np.full(n_pairs, config.v0),
            np.full(n_pairs, config.vth),
            np.full(n_pairs, float(config.seed)),
            np.arange(first, first + n_pairs, dtype=np.float64),
        ]
    )
    return FieldDataset(inputs=hists, targets=fields, params=params, ps_grid=ps_grid)


def harvest_via_client(
    configs: Sequence[SimulationConfig],
    ps_grid: PhaseSpaceGrid,
    binning: str = "ngp",
    include_initial_state: bool = True,
    workers: int = 1,
) -> FieldDataset:
    """Run traditional PIC simulations and harvest their training pairs.

    Pairs mirror exactly what the DL solver sees at runtime: the
    histogram is binned from the *current* particle state (positions at
    integer time, velocities at the trailing half step — at integer
    time for the initial-state pair, as the DL-PIC's very first field
    sees them) and the target is the field the traditional solver
    produced for that state.

    Each config is one :class:`~repro.api.RunRequest` selecting the
    ``training_pairs`` and ``fields`` observables; a synchronous
    :class:`~repro.api.Client` coalesces compatible requests into
    ensembles chunked by a total-particle budget and, with
    ``workers > 1``, runs them on that many spawned worker processes —
    each ensemble then holds at most ``ceil(n_runs / workers)`` runs so
    every worker gets one.  Row ``b`` of a batched run is bitwise
    identical to running ``configs[b]`` alone, so the pairs depend on
    neither the chunking nor ``workers``.  They come back run-major in
    request order.  The client's store is disabled (campaign outputs
    are huge and single-use).
    """
    from repro.api import Client, RunRequest
    from repro.service.store import ResultStore

    configs = list(configs)
    if not configs:
        raise ValueError("ensemble harvest needs at least one configuration")
    chunk = _ensemble_size(max(cfg.n_particles for cfg in configs), len(configs), workers)
    selection = _harvest_observables(ps_grid, binning)
    requests = [
        RunRequest(
            config=cfg.with_updates(solver="traditional"),
            id=f"harvest-{i}",
            observables=selection,
        )
        for i, cfg in enumerate(configs)
    ]
    with Client(
        background=False,
        max_batch_size=chunk,
        store=ResultStore(capacity=0),
        workers=workers,
    ) as client:
        results = client.map(requests)

    parts = [
        dataset_from_result(cfg, result, ps_grid, include_initial_state)
        for cfg, result in zip(configs, results)
    ]
    return FieldDataset.concatenate(parts)


def run_campaign(campaign: CampaignConfig, n_workers: int = 1) -> FieldDataset:
    """Execute the whole sweep and concatenate the harvested pairs.

    Every run goes through :func:`harvest_via_client`, on ``n_workers``
    spawned worker processes when ``n_workers > 1``.  The result is
    deterministic and bitwise independent of ``n_workers``: the per-run
    seeds are fixed by :meth:`CampaignConfig.simulation_specs`, results
    are ordered in spec order, and the batched kernels reproduce single
    runs exactly.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return harvest_via_client(
        campaign.run_configs(),
        campaign.ps_grid,
        campaign.binning,
        campaign.include_initial_state,
        workers=n_workers,
    )


def run_test_set_ii(
    campaign: CampaignConfig,
    v0_values: Sequence[float],
    vth_values: Sequence[float],
    n_samples: int,
    seed: int = 777,
) -> FieldDataset:
    """Build the paper's "Test Set II" from *unseen* parameters.

    Runs :meth:`CampaignConfig.test_set_ii` (one simulation per unseen
    ``(v0, vth)`` combination) and keeps a random subsample of
    ``n_samples`` pairs, mimicking the paper's 1,000-sample held-out
    set from parameters "not included in the initial data set".  This
    is the in-memory twin of the pipeline's streamed Test Set II, which
    composes the same derived campaign and :meth:`FieldDataset.subsample`.
    """
    full = run_campaign(campaign.test_set_ii(v0_values, vth_values, seed))
    return full.subsample(n_samples, seed)
