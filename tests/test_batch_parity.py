"""Batched-row parity of the energy, mpi and single-run paths, pinned as data.

The hashes below are sha256 digests of what the lockstep ``energy`` and
``mpi`` adapters, ``run_distributed_dl`` and the single-run
``TraditionalPIC``/``DLPIC`` classes produced, recorded before those
paths were folded into batch-native engines:

* a 5-row served ``energy`` batch mixing seeds, scenarios and Picard
  knobs, whose rows stop after different iteration counts (one of them
  at its iteration cap), and a 2-row ``energy`` pair at ``dt=0.5``;
* a 3-row ``mpi`` batch at 1, 2 and 4 ranks, with each row's simulated
  traffic by collective;
* ``run_distributed_dl`` over 1, 2 and 4 ranks on a fixed untrained MLP;
* a solo ``TraditionalPIC`` and a solo ``DLPIC`` run.

Each digest covers a run's series, final field and final particle state
(``final_x`` and the integer-time ``final_v``), so any path that moves a
single bit of any row fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Client, RunRequest
from repro.config import SimulationConfig
from repro.dlpic.simulation import DLPIC
from repro.dlpic.solver import DLFieldSolver
from repro.engines import make_engine
from repro.models.architectures import build_mlp
from repro.parallel.picparallel import run_distributed_dl
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import TraditionalPIC

ENERGY_BASE = SimulationConfig(
    n_cells=32, particles_per_cell=50, n_steps=40, v0=0.2, vth=0.025, solver="energy"
)
# Rows 0-4 converge after 2, 2 (the cap), 7, 6 and 7 Picard iterations.
ENERGY_ROWS = (
    {"scenario": "two_stream", "seed": 1, "extra": {"picard_tolerance": 1e-4}},
    {"scenario": "landau_damping", "seed": 2, "extra": {"picard_max_iterations": 2}},
    {"scenario": "cold_beam", "seed": 3,
     "extra": {"picard_tolerance": 1e-14, "picard_max_iterations": 50}},
    {"scenario": "two_stream", "seed": 4, "extra": {}},
    {"scenario": "landau_damping", "seed": 5, "extra": {"picard_tolerance": 1e-14}},
)
# Past the explicit time step: 10-27 iterations per step, differing by row.
LARGE_DT = SimulationConfig(
    n_cells=32, particles_per_cell=60, n_steps=30, dt=0.5, vth=0.01, solver="energy",
    extra={"picard_max_iterations": 60},
)
MPI_BASE = SimulationConfig(
    n_cells=32, particles_per_cell=50, n_steps=12, vth=0.01, seed=0, solver="mpi"
)
SOLO = SimulationConfig(n_cells=32, particles_per_cell=40, n_steps=15, vth=0.01, seed=6)

ENERGY_PINNED = (
    "c09db8ecabbcfd6dd32bba7090e704f1eb090913aea5a7cabd566ab92cfe3dc5",
    "cd38b80a2147f53e83f4ba2dbf621e88437493cf396997f216054b6fee17b0db",
    "16af6598086858e9565764558de893138e549ecf1824420049fae77072ffe346",
    "809dd4d03c998d1d1578fce01335366b8d6e350f7d5f0645d6cdc10061e6464e",
    "9c4cefa33523c1e679f0cde02a2f56f078b620986c921f1a8c653db7f2f2fee9",
)
LARGE_DT_PINNED = (
    "4991f7613b999c081ddcd6ae69d174fae00a0b047fac6381387ea60d829d2c09",
    "da4efbb97dec383d41110c4184cbc7389de84d31e04de6415ea15a6ea11f591a",
)
MPI_PINNED = {
    1: "a119b0d8c81788638529f14bfb183784e0aa59e451798861439ce266bb03fcee",
    2: "ecfbd96319008543823c0d2419b809fcb654f82f41331719f3e8d7be1d1672cc",
    4: "4822ef624420ea1efc6234e9c31b34758031e9fdd6c16ece0470b1e41e91d57f",
}
# Per-row simulated traffic of the mpi batch over its 12 steps.
MPI_COMM_PINNED = {
    1: {"calls": {}, "bytes": {}},
    2: {
        "calls": {"sendrecv": 12, "reduce": 12, "bcast": 12},
        "bytes": {"sendrecv": 12160, "reduce": 3072, "bcast": 3072},
    },
    4: {
        "calls": {"sendrecv": 12, "reduce": 12, "bcast": 12},
        "bytes": {"sendrecv": 24032, "reduce": 9216, "bcast": 9216},
    },
}
# NGP histogram counts are integers, so every rank count gives the same
# bits; only the traffic differs.
DISTRIBUTED_DL_PINNED = "dbf075a9664ce9514c7b234e5cdeb494f0c1edb1b80d481d261b3a64b4eefee7"
DISTRIBUTED_DL_COMM_PINNED = {
    1: {"calls": {}, "bytes": {}},
    2: {
        "calls": {"sendrecv": 15, "allreduce": 15},
        "bytes": {"sendrecv": 10064, "allreduce": 30720},
    },
    4: {
        "calls": {"sendrecv": 15, "allreduce": 15},
        "bytes": {"sendrecv": 24080, "allreduce": 61440},
    },
}
SOLO_PINNED = {
    "traditional": "1777244f38941424490e50c8241057c615c823ca917c41fc592e8e9a31bd72f7",
    "dl": "4f6946b03c7f20119a079fb2fe7e2f06b0a313b949b26cd624679eb5b7efa40f",
}


def _digest(
    series: "dict[str, np.ndarray]",
    efield: "np.ndarray | None" = None,
    final_x: "np.ndarray | None" = None,
    final_v: "np.ndarray | None" = None,
) -> str:
    """sha256 over every series (sorted by name), then the given state arrays."""
    h = hashlib.sha256()
    named = [(name, series[name]) for name in sorted(series)]
    named += [("efield", efield), ("final_x", final_x), ("final_v", final_v)]
    for name, values in named:
        if values is None:
            continue
        arr = np.ascontiguousarray(values)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _result_digest(result) -> str:
    assert result.ok, result.error
    return _digest(result.series, result.efield, result.final_x, result.final_v)


def _comm_counts(stats) -> "dict[str, dict[str, int]]":
    return {"calls": dict(stats.calls_by_op), "bytes": dict(stats.bytes_by_op)}


def _dl_solver(config: SimulationConfig) -> DLFieldSolver:
    grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
    model = build_mlp(input_size=grid.size, output_size=config.n_cells, hidden_size=24, rng=0)
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
    return DLFieldSolver(model, grid, normalizer, input_kind="flat")


@pytest.fixture(scope="module")
def served_energy():
    requests = [
        RunRequest(config=ENERGY_BASE.with_updates(**row), phase_space=True)
        for row in ENERGY_ROWS
    ] + [
        RunRequest(config=LARGE_DT.with_updates(seed=seed), phase_space=True)
        for seed in (2, 3)
    ]
    with Client(background=False, max_batch_size=8) as client:
        results = client.map(requests)
        batches = client.service.batch_size_histogram
    return results, batches


def test_energy_requests_ran_as_two_batches(served_energy):
    _, batches = served_energy
    assert batches == {5: 1, 2: 1}


def test_energy_batch_rows_match_pinned_hashes(served_energy):
    results, _ = served_energy
    digests = tuple(_result_digest(r) for r in results[: len(ENERGY_ROWS)])
    assert digests == ENERGY_PINNED


def test_large_dt_energy_pair_matches_pinned_hashes(served_energy):
    results, _ = served_energy
    digests = tuple(_result_digest(r) for r in results[len(ENERGY_ROWS):])
    assert digests == LARGE_DT_PINNED


def test_mpi_batch_rows_and_traffic_match_pinned():
    ranks = (1, 2, 4)
    configs = [
        MPI_BASE.with_updates(seed=MPI_BASE.seed + i, extra={"n_ranks": n})
        for i, n in enumerate(ranks)
    ]
    engine = make_engine(configs)
    history = engine.run(MPI_BASE.n_steps)
    for b, n_ranks in enumerate(ranks):
        digest = _digest(
            history.member(b), engine.efield[b], engine.particles.x[b],
            engine.v_at_integer_time[b],
        )
        assert digest == MPI_PINNED[n_ranks], n_ranks
        assert _comm_counts(engine.comm_stats[b]) == MPI_COMM_PINNED[n_ranks], n_ranks


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_distributed_dl_matches_pinned(n_ranks):
    result = run_distributed_dl(SOLO, _dl_solver(SOLO), n_ranks=n_ranks, rng=3)
    assert _digest(result.history.as_arrays()) == DISTRIBUTED_DL_PINNED
    assert _comm_counts(result.comm) == DISTRIBUTED_DL_COMM_PINNED[n_ranks]


def _solo_digest(sim, history) -> str:
    # A single run's state, flattened to its one row whatever its layout.
    return _digest(
        history.as_arrays(), np.ravel(sim.efield), np.ravel(sim.particles.x),
        np.ravel(sim.v_at_integer_time),
    )


def test_solo_traditional_matches_pinned():
    sim = TraditionalPIC(SOLO.with_updates(scenario="landau_damping", vth=0.05),
                         rng=np.random.default_rng(11))
    history = sim.run()
    assert history["kinetic"].shape == (SOLO.n_steps + 1,)
    assert _solo_digest(sim, history) == SOLO_PINNED["traditional"]


def test_solo_dlpic_matches_pinned():
    sim = DLPIC(SOLO, _dl_solver(SOLO))
    history = sim.run()
    assert history["kinetic"].shape == (SOLO.n_steps + 1,)
    assert _solo_digest(sim, history) == SOLO_PINNED["dl"]
