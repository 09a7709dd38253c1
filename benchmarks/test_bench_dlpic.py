"""Batched DL-PIC inference throughput — one network forward per step.

PR 1 batched the traditional cycle; this bench gates the DL path: a
``DLEnsemble`` of ``BATCH`` members bins every phase space with one
fused ``bincount``, normalizes the stack in one pass and predicts all
fields with ONE network forward per step, against the same ``BATCH``
``DLPIC`` runs executed sequentially.  Acceptance bar (ISSUE 2): at
least a 3x speedup at batch 16 — and, asserted separately, every
batched row bitwise identical to the corresponding single run
(histograms, predicted fields, trajectories).

The numeric outcome lands in ``.artifacts/results/BENCH_dlpic.json``
(median step time, speedup), which CI uploads as an artifact so the
perf trajectory is tracked from this PR onward.

Runs in the CI benchmark smoke job (not marked ``slow``): a full
timing pass takes a few seconds on one CPU core.
"""

import statistics
import time

import numpy as np
from conftest import dump_result

from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver, DLPIC
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer

BATCH = 16
N_STEPS = 60
CONFIG = SimulationConfig(
    n_cells=32, particles_per_cell=25, n_steps=N_STEPS, vth=0.01, seed=0
)


def _make_solver() -> DLFieldSolver:
    """A deterministic (untrained) MLP solver — inference cost is
    architecture-bound, so training is irrelevant for timing."""
    grid = PhaseSpaceGrid(n_x=32, n_v=32, box_length=CONFIG.box_length)
    model = build_mlp(
        input_size=grid.size, output_size=CONFIG.n_cells, hidden_size=128, rng=0
    )
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 30.0})
    return DLFieldSolver(model, grid, normalizer, input_kind="flat", binning="ngp")


def _run_sequential(solver: DLFieldSolver) -> list[dict]:
    """BATCH independent DL runs, the pre-batching way: a Python loop."""
    finals = []
    for b in range(BATCH):
        sim = DLPIC(CONFIG.with_updates(seed=CONFIG.seed + b), solver)
        sim.run(N_STEPS)
        finals.append(
            {
                "x": sim.particles.x[0].copy(),
                "v": sim.particles.v[0].copy(),
                "efield": sim.efield[0].copy(),
                "histogram": sim.last_histograms[0].copy(),
            }
        )
    return finals


def _run_ensemble(solver: DLFieldSolver) -> DLEnsemble:
    sim = DLEnsemble.from_config(CONFIG, BATCH, solver)
    sim.run(N_STEPS)
    return sim


def _best_and_median(fn, repeats: int = 3) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def test_dl_ensemble_matches_sequential_bitwise():
    """Histograms, predicted fields and trajectories: bit for bit."""
    solver = _make_solver()
    ensemble = _run_ensemble(solver)
    final_hists = ensemble.last_histograms.copy()
    for b, single in enumerate(_run_sequential(solver)):
        np.testing.assert_array_equal(ensemble.particles.x[b], single["x"])
        np.testing.assert_array_equal(ensemble.particles.v[b], single["v"])
        np.testing.assert_array_equal(ensemble.efield[b], single["efield"])
        np.testing.assert_array_equal(final_hists[b], single["histogram"])


def test_dl_ensemble_speedup(results_dir):
    solver = _make_solver()
    # Warm-up (allocators, FFT plan caches, BLAS thread pools).
    _run_sequential(solver)
    _run_ensemble(solver)
    t_seq, t_seq_med = _best_and_median(lambda: _run_sequential(solver))
    t_ens, t_ens_med = _best_and_median(lambda: _run_ensemble(solver))
    speedup = t_seq / t_ens
    per_step_seq = t_seq / (BATCH * N_STEPS) * 1e6
    per_step_ens = t_ens / (BATCH * N_STEPS) * 1e6
    print()
    print(f"  sequential DLPIC: {t_seq * 1e3:8.1f} ms  ({per_step_seq:6.1f} us/run-step)")
    print(f"  DL ensemble:      {t_ens * 1e3:8.1f} ms  ({per_step_ens:6.1f} us/run-step)")
    print(f"  speedup:          {speedup:8.2f}x  (batch={BATCH})")
    dump_result(
        results_dir,
        "BENCH_dlpic",
        {
            "batch": BATCH,
            "n_steps": N_STEPS,
            "n_particles_per_run": CONFIG.n_particles,
            "t_sequential_s": t_seq,
            "t_ensemble_s": t_ens,
            "median_step_time_sequential_s": t_seq_med / (BATCH * N_STEPS),
            "median_step_time_ensemble_s": t_ens_med / (BATCH * N_STEPS),
            "speedup": speedup,
        },
    )
    assert speedup >= 3.0, (
        f"DL ensemble only {speedup:.2f}x faster than {BATCH} sequential DLPIC runs; "
        "acceptance bar is 3x"
    )
