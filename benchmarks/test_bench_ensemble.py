"""Ensemble engine throughput — batched runs vs sequential runs.

The batched PIC cycle advances every ensemble member through one
gather/push/deposit/Poisson call per step, amortizing the per-step
Python and FFT dispatch overhead that dominates small-to-medium runs.
This bench pits an ``EnsembleSimulation`` of ``BATCH`` members against
the same ``BATCH`` simulations run sequentially with ``TraditionalPIC``
and asserts the ISSUE's acceptance bar: at least a 3x speedup at
batch 8, with bitwise-identical physics (also asserted).

Runs in the CI benchmark smoke job (not marked ``slow``): a full
timing pass takes a few seconds on one CPU core.
"""

import time

import numpy as np
from conftest import dump_result

from repro.config import SimulationConfig
from repro.pic.simulation import EnsembleSimulation, TraditionalPIC

BATCH = 8
N_STEPS = 120
CONFIG = SimulationConfig(
    n_cells=32, particles_per_cell=25, n_steps=N_STEPS, vth=0.01, seed=0
)


def _run_sequential() -> list[np.ndarray]:
    """BATCH independent runs, the pre-ensemble way: a Python loop."""
    finals = []
    for b in range(BATCH):
        sim = TraditionalPIC(CONFIG.with_updates(seed=CONFIG.seed + b))
        sim.run(N_STEPS)
        finals.append(sim.efield[0].copy())
    return finals


def _run_ensemble() -> np.ndarray:
    sim = EnsembleSimulation.from_config(CONFIG, batch=BATCH)
    sim.run(N_STEPS)
    return sim.efield.copy()


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_ensemble_matches_sequential_bitwise():
    """Batching must not change a single bit of any member's physics."""
    sequential = _run_sequential()
    ensemble = _run_ensemble()
    for b in range(BATCH):
        np.testing.assert_array_equal(ensemble[b], sequential[b])


def test_ensemble_speedup(results_dir):
    # Warm-up (allocators, FFT plan caches, JIT-free but first-call costs).
    _run_sequential()
    _run_ensemble()
    t_seq = _best_of(_run_sequential)
    t_ens = _best_of(_run_ensemble)
    speedup = t_seq / t_ens
    per_step_seq = t_seq / (BATCH * N_STEPS) * 1e6
    per_step_ens = t_ens / (BATCH * N_STEPS) * 1e6
    print()
    print(f"  sequential: {t_seq * 1e3:8.1f} ms  ({per_step_seq:6.1f} us/run-step)")
    print(f"  ensemble:   {t_ens * 1e3:8.1f} ms  ({per_step_ens:6.1f} us/run-step)")
    print(f"  speedup:    {speedup:8.2f}x  (batch={BATCH})")
    dump_result(
        results_dir,
        "bench_ensemble",
        {
            "batch": BATCH,
            "n_steps": N_STEPS,
            "n_particles_per_run": CONFIG.n_particles,
            "t_sequential_s": t_seq,
            "t_ensemble_s": t_ens,
            "speedup": speedup,
        },
    )
    assert speedup >= 3.0, (
        f"ensemble engine only {speedup:.2f}x faster than {BATCH} sequential runs; "
        "acceptance bar is 3x"
    )
