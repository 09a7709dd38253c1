"""Scheme comparison — the conservation trade-off triangle.

Sections II and VII of the paper frame the DL-based method against the
two classic PIC families: the explicit momentum-conserving scheme (its
baseline) and energy-conserving implicit schemes (its reference [4]).
This bench runs all three on the same two-stream problem and tabulates
the trade-offs the paper describes:

* explicit: momentum to round-off, energy to ~1e-3;
* energy-conserving: energy to Picard tolerance, momentum drifts;
* DL-based: neither, with an error floor set by the network MAE.
"""

import numpy as np
from conftest import dump_result

from repro.dlpic.simulation import DLPIC
from repro.engines.observables import Observables, resolve_observables
from repro.pic.energy_conserving import EnergyConservingEnsemble
from repro.pic.simulation import TraditionalPIC
from repro.theory.dispersion import growth_rate_cold
from repro.theory.growth import fit_growth_rate

import pytest

pytestmark = pytest.mark.slow  # needs the medium-preset trained solvers (~15 min cold)


def test_scheme_conservation_triangle(solvers, results_dir, benchmark):
    config = solvers.preset.validation_config()
    gamma_theory = growth_rate_cold(2 * np.pi / config.box_length, config.v0)

    def run_all():
        out = {}
        for name, sim in (
            ("explicit", TraditionalPIC(config)),
            ("energy-conserving", EnergyConservingEnsemble(
                config.with_updates(extra={"picard_tolerance": 1e-13}))),
            ("dl", DLPIC(config, solvers.mlp_solver)),
        ):
            # Every scheme runs a batch of one: record 1-D series.
            hist = sim.run(
                config.n_steps, history=Observables(resolve_observables(None), squeeze=True)
            )
            a = hist.as_arrays()
            fit = fit_growth_rate(a["time"], a["mode1"])
            out[name] = {
                "energy_variation": hist.energy_variation(),
                "momentum_drift": hist.momentum_drift(),
                "gamma": fit.gamma,
                "gamma_rel_err": fit.relative_error(gamma_theory),
            }
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(f"  {'scheme':<20} {'dE/E':>10} {'dP':>12} {'gamma':>8} {'err':>7}")
    for name, r in results.items():
        print(f"  {name:<20} {r['energy_variation']:>10.2e} "
              f"{r['momentum_drift']:>+12.2e} {r['gamma']:>8.4f} "
              f"{r['gamma_rel_err']:>6.1%}")
    dump_result(results_dir, "schemes", results)

    ex, ec, dl = results["explicit"], results["energy-conserving"], results["dl"]

    # All three reproduce the analytic growth rate.
    for r in (ex, ec, dl):
        assert r["gamma_rel_err"] < 0.35

    # Explicit: momentum to round-off; energy bounded but not exact.
    assert abs(ex["momentum_drift"]) < 1e-10
    assert 1e-12 < ex["energy_variation"] < 0.02

    # Energy-conserving: energy to Picard tolerance; momentum drifts.
    assert ec["energy_variation"] < 1e-9
    assert abs(ec["momentum_drift"]) > 1e-6

    # DL-based: conserves neither; both violations exceed the classic
    # schemes' corresponding conserved quantity by orders of magnitude.
    assert dl["energy_variation"] > 100 * ec["energy_variation"]
    assert abs(dl["momentum_drift"]) > 1e4 * abs(ex["momentum_drift"])
