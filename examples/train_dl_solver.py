#!/usr/bin/env python3
"""Train the paper's DL electric-field solver end to end (Sec. IV).

Runs the full pipeline — traditional-PIC data campaign, shuffle/split,
Eq. 5 min-max normalization, Adam training of the MLP (and optionally
the CNN) — and prints Table I for the trained networks.  The campaign
shards land in ``.artifacts/campaigns/`` and the networks in the model
registry ``.artifacts/registry/``, where the other examples and the
benchmark suite find them again (``repro models --registry
.artifacts/registry`` lists them).

Run:  python examples/train_dl_solver.py [--preset fast|medium|paper]
                                         [--no-cnn] [--workers N]
"""

import argparse

from repro.experiments import (
    fast_preset,
    format_table1,
    medium_preset,
    paper_preset,
    run_table1,
    train_solvers,
)

PRESETS = {"fast": fast_preset, "medium": medium_preset, "paper": paper_preset}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="fast",
                        help="pipeline scale (default: fast; the paper's exact "
                             "scale is 'paper' — hours on CPU)")
    parser.add_argument("--no-cnn", action="store_true", help="train only the MLP")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for the data campaign")
    parser.add_argument("--no-cache", action="store_true",
                        help="run on a temporary cache instead of ./.artifacts")
    args = parser.parse_args()

    preset = PRESETS[args.preset]()
    campaign = preset.campaign
    print(f"Preset {preset.name!r}: {campaign.n_simulations} simulations, "
          f"{campaign.n_samples:,} samples, phase grid {campaign.ps_grid.shape}, "
          f"MLP {preset.mlp_hidden}x3 for {preset.mlp_epochs} epochs")

    solvers = train_solvers(
        preset,
        cache_dir=None if args.no_cache else "./.artifacts",
        include_cnn=not args.no_cnn,
        n_workers=args.workers,
        verbose=True,
    )

    print()
    print(format_table1(run_table1(solvers)))
    print("\nPaper values (full 40k-sample scale) for comparison:")
    print("  MAE  I: MLP 0.0019  CNN 0.0020  |  II: MLP 0.0015  CNN 0.0032")
    print("  Max  I: MLP 0.0690  CNN 0.0463  |  II: MLP 0.0286  CNN 0.0730")


if __name__ == "__main__":
    main()
