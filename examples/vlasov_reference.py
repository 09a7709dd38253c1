#!/usr/bin/env python3
"""Noise-free Vlasov-Poisson reference run (the paper's future work).

Section VII: "more accurate training data sets can be obtained by
running Vlasov codes that are not affected by the PIC numerical noise."
This example runs the semi-Lagrangian Vlasov solver on the two-stream
problem, verifies the growth rate against linear theory, and harvests a
noise-free training dataset compatible with the DL pipeline.

Run:  python examples/vlasov_reference.py
"""

import numpy as np

from repro.config import SimulationConfig
from repro.engines import make_engine
from repro.phasespace import PhaseSpaceGrid
from repro.theory import fit_growth_rate, growth_rate_cold
from repro.vlasov import harvest_vlasov_ensemble


def main() -> None:
    config = SimulationConfig(solver="vlasov", n_cells=64, dt=0.1, n_steps=300,
                              v0=0.2, vth=0.025, perturbation=1e-3, extra={"n_v": 128})
    sim = make_engine([config])
    print(f"Vlasov-Poisson grid: {sim.n_x} x {sim.n_v}, dt = {config.dt}")

    series = sim.run().member(0)

    gamma_theory = growth_rate_cold(2 * np.pi / config.box_length, config.v0)
    fit = fit_growth_rate(series["time"], series["mode1"])
    print("\nTwo-stream growth (no particle noise):")
    print(f"  linear theory gamma = {gamma_theory:.4f}")
    print(f"  measured      gamma = {fit.gamma:.4f}  (r^2 = {fit.r_squared:.4f})")

    total = series["total"]
    mass = sim.mass()[0]
    print(f"\nConservation: mass drift {abs(mass - config.box_length) / config.box_length:.2e}, "
          f"energy variation {np.max(np.abs(total - total[0])) / total[0]:.2%}")

    # Harvest a DL-compatible dataset (expected counts of a 64k-particle PIC).
    ps_grid = PhaseSpaceGrid(n_x=64, n_v=64, box_length=config.box_length,
                             v_min=sim.v_min, v_max=sim.v_max)
    harvest_config = config.with_updates(dt=0.2, n_steps=200)
    data = harvest_vlasov_ensemble([harvest_config], ps_grid, n_particles=64_000)
    print(f"\nHarvested {len(data)} noise-free training pairs "
          f"({data.inputs.shape[1]}x{data.inputs.shape[2]} expected-count histograms).")
    print("These feed the exact same training pipeline as PIC data — see")
    print("benchmarks/test_bench_ablation.py::test_vlasov_training_data_ablation.")


if __name__ == "__main__":
    main()
