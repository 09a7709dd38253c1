#!/usr/bin/env python3
"""Sec. VII distributed-memory claim, made quantitative.

The paper argues the DL field solver needs no field-solve communication
on distributed-memory machines (the network is replicated).  This
example (1) sweeps the closed-form communication model over rank counts
and (2) actually executes both methods on simulated ranks, verifying
the distributed physics matches the serial run while counting bytes.

Run:  python examples/distributed_scaling.py
"""

import numpy as np

from repro.config import SimulationConfig
from repro.engines import make_engine
from repro.experiments import fast_preset, train_solvers
from repro.parallel import communication_model, run_distributed_dl
from repro.phasespace import PhaseSpaceGrid
from repro.pic import TraditionalPIC


def main() -> None:
    ps_grid = PhaseSpaceGrid(n_x=64, n_v=64)
    print("Per-step field-solve communication (closed-form model, 64 cells,")
    print("64x64 phase-space histogram, float64):\n")
    print(f"{'ranks':>6} | {'traditional B/step':>19} {'syncs':>6} | "
          f"{'DL B/step':>10} {'syncs':>6}")
    for ranks in (2, 4, 8, 16, 32, 64, 128):
        m = communication_model(ranks, 64, ps_grid)
        t, d = m["traditional"], m["dl"]
        print(f"{ranks:>6} | {t['bytes_per_step']:>19,.0f} {t['sync_points_per_step']:>6.0f} | "
              f"{d['bytes_per_step']:>10,.0f} {d['sync_points_per_step']:>6.0f}")
    print("\nThe DL solve always uses ONE synchronization point (a single")
    print("histogram allreduce) vs the traditional reduce+bcast pair; in 1D")
    print("it pays more bytes because the histogram is larger than rho.")

    # Actually run both methods on simulated ranks.
    print("\nExecuting 20 steps on 4 simulated ranks...")
    config = SimulationConfig(n_cells=64, particles_per_cell=100, n_steps=20, seed=3)
    serial = TraditionalPIC(config).run(20).as_arrays()
    # A solo distributed run is a batch-1 engine of the "mpi" family.
    engine = make_engine([config.with_updates(solver="mpi", extra={"n_ranks": 4})])
    dist = engine.run(20).member(0)
    comm = engine.comm_stats[0]
    diff = np.abs(dist["total"] - serial["total"]).max()
    print(f"  traditional: {comm.total_bytes / 20:,.0f} B/step, "
          f"{comm.total_calls / 20:.1f} syncs/step, "
          f"|serial - distributed| total energy: {diff:.2e}")

    solvers = train_solvers(fast_preset(), cache_dir="./.artifacts", include_cnn=False)
    dl_config = solvers.preset.validation_config().with_updates(n_steps=20)
    dl = run_distributed_dl(dl_config, solvers.mlp_solver, n_ranks=4, n_steps=20)
    print(f"  DL-based:    {dl.bytes_per_step:,.0f} B/step, "
          f"{dl.sync_points_per_step:.1f} syncs/step "
          f"(single allreduce + particle migration)")


if __name__ == "__main__":
    main()
