"""Simulation-service throughput — micro-batched vs per-request runs.

32 mixed-scenario requests (five scenarios, varying beam parameters,
seeds and ``extra``) arrive at a :class:`SimulationService`, which
coalesces them into ``ceil(32/16) = 2`` ensemble executions.  The bench
asserts the ISSUE's acceptance bar: at least a 3x throughput gain over
running the same 32 requests sequentially with ``TraditionalPIC``, with
every served result bitwise identical to its solo run, and a repeated
request served straight from the content-addressed store without
touching an engine.

The numeric outcome lands in ``.artifacts/results/BENCH_service.json``
and is uploaded as a CI artifact.  Runs in the CI benchmark smoke job
(not marked ``slow``): a full timing pass takes a few seconds on one
CPU core.
"""

import time

import numpy as np
from conftest import dump_result

from repro.config import SimulationConfig
from repro.obs import total
from repro.pic.simulation import TraditionalPIC
from repro.service import ResultStore, SimulationService

N_REQUESTS = 32
N_STEPS = 100
MAX_BATCH = 16
BASE = SimulationConfig(
    n_cells=32, particles_per_cell=25, n_steps=N_STEPS, vth=0.01, seed=0
)

# A mixed workload: every scenario in the registry, varying physics
# knobs (including `extra`, which is part of the content address) —
# all structurally compatible, so the batcher may co-batch freely.
_SCENARIOS = [
    ("two_stream", {"v0": 0.2}),
    ("cold_beam", {"v0": 0.4}),
    ("landau_damping", {"vth": 0.05}),
    ("bump_on_tail", {"v0": 0.35, "extra": {"bump_fraction": 0.15}}),
    ("random_perturbation", {"vth": 0.03}),
]
CONFIGS = [
    BASE.with_updates(scenario=_SCENARIOS[i % 5][0], seed=i, **_SCENARIOS[i % 5][1])
    for i in range(N_REQUESTS)
]


def _run_sequential() -> list[tuple[dict, np.ndarray]]:
    """The 32 requests the pre-service way: one Python loop, one run each."""
    outputs = []
    for config in CONFIGS:
        sim = TraditionalPIC(config)
        history = sim.run(N_STEPS)
        outputs.append((history.as_arrays(), sim.efield[0].copy()))
    return outputs


def _run_served() -> list:
    """The same 32 requests through a fresh (cold-store) service."""
    with SimulationService(
        max_batch_size=MAX_BATCH, max_wait=0.005, store=ResultStore(capacity=64)
    ) as service:
        futures = [service.submit(config) for config in CONFIGS]
        return [future.result(timeout=300) for future in futures]


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_served_results_match_solo_runs_bitwise():
    """Micro-batching must not change a single bit of any request's run."""
    sequential = _run_sequential()
    served = _run_served()
    for (series, efield), result in zip(sequential, served):
        for name in ("time", "kinetic", "potential", "total", "momentum", "mode1"):
            np.testing.assert_array_equal(result.series[name], series[name])
        np.testing.assert_array_equal(result.efield, efield)


def test_repeated_request_served_from_store():
    """A repeat of a completed request must not reach an engine again."""
    with SimulationService(
        max_batch_size=MAX_BATCH, max_wait=0.005, store=ResultStore(capacity=64)
    ) as service:
        first = [service.submit(c) for c in CONFIGS]
        originals = [f.result(timeout=300) for f in first]
        runs = "repro_service_runs_by_tier_total"
        executed = total(service.metrics.snapshot(), runs)
        assert executed == N_REQUESTS
        again, status = service.submit_with_status(CONFIGS[7])
        assert status == "cached"
        # A cached delivery is a copy with its own timings; the result
        # and its series arrays are the stored ones.
        served = again.result(timeout=0)
        assert served == originals[7]
        for name, values in originals[7].series.items():
            assert served.series[name] is values
        assert total(service.metrics.snapshot(), runs) == executed


def test_service_throughput(results_dir):
    # Warm-up (allocators, FFT plan caches, first-call costs).
    _run_sequential()
    _run_served()
    t_seq = _best_of(_run_sequential)
    t_srv = _best_of(_run_served)
    speedup = t_seq / t_srv
    print()
    print(f"  sequential: {t_seq * 1e3:8.1f} ms  "
          f"({N_REQUESTS / t_seq:6.1f} req/s)")
    print(f"  service:    {t_srv * 1e3:8.1f} ms  "
          f"({N_REQUESTS / t_srv:6.1f} req/s, max_batch={MAX_BATCH})")
    print(f"  speedup:    {speedup:8.2f}x  ({N_REQUESTS} mixed-scenario requests)")
    dump_result(
        results_dir,
        "BENCH_service",
        {
            "n_requests": N_REQUESTS,
            "n_steps": N_STEPS,
            "n_particles_per_run": BASE.n_particles,
            "max_batch_size": MAX_BATCH,
            "n_scenarios": len(_SCENARIOS),
            "t_sequential_s": t_seq,
            "t_service_s": t_srv,
            "requests_per_s_sequential": N_REQUESTS / t_seq,
            "requests_per_s_service": N_REQUESTS / t_srv,
            "speedup": speedup,
        },
    )
    assert speedup >= 3.0, (
        f"service only {speedup:.2f}x faster than {N_REQUESTS} sequential runs; "
        "acceptance bar is 3x"
    )
