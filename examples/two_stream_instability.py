#!/usr/bin/env python3
"""Figs. 4-5: DL-based PIC vs traditional PIC on the two-stream test.

Loads (or trains) the medium-preset MLP solver, then runs the paper's
validation configuration ``v0 = +/-0.2, vth = 0.025`` — parameters the
network never saw — with both methods and prints the E1 growth
comparison against linear theory plus the energy/momentum histories.

Run:  python examples/two_stream_instability.py [--preset fast|medium]
"""

import argparse

from repro.experiments import (
    fast_preset,
    medium_preset,
    run_fig4,
    run_fig5,
    train_solvers,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=["fast", "medium"], default="medium")
    args = parser.parse_args()
    preset = {"fast": fast_preset, "medium": medium_preset}[args.preset]()

    print(f"Loading/training the {preset.name!r} solvers "
          f"(kept in the model registry ./.artifacts/registry) ...")
    solvers = train_solvers(preset, cache_dir="./.artifacts", include_cnn=False)

    config = preset.validation_config()
    print(f"\nValidation run: v0 = {config.v0}, vth = {config.vth} "
          f"(not in the training sweep), {config.n_steps} steps\n")

    fig4 = run_fig4(solvers.mlp_solver, config)
    print(fig4.summary())
    print("\n  t      E1 traditional   E1 DL-based")
    for i in range(0, len(fig4.time), 10):
        print(f"  {fig4.time[i]:5.1f}  {fig4.e1_traditional[i]:14.3e}  {fig4.e1_dl[i]:12.3e}")

    fig5 = run_fig5(solvers.mlp_solver, config)
    print()
    print(fig5.summary())
    print("\n  t      total E (trad)   total E (DL)   momentum (trad)  momentum (DL)")
    for i in range(0, len(fig5.time), 20):
        print(f"  {fig5.time[i]:5.1f}  {fig5.total_energy_traditional[i]:14.5f} "
              f"{fig5.total_energy_dl[i]:14.5f}  {fig5.momentum_traditional[i]:+14.2e} "
              f"{fig5.momentum_dl[i]:+14.2e}")


if __name__ == "__main__":
    main()
