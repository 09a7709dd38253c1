"""Kernel backend tier — raw-speed gates and the parity oracle.

Two measurements, one JSON: the ``threaded`` backend must reach
>= 1.5x over the ``numpy`` reference on a batch-16 traditional ensemble
(enforced with >= 4 usable cores — numpy releases the GIL in the hot
ufuncs, so row chunks genuinely overlap), and the Vlasov float32 tier
must reach >= 1.3x over float64 (pure bandwidth/FFT win, no parallel
hardware needed, enforced everywhere).

Parity comes first: the float64 ``numpy`` path is the bitwise oracle
for every backend x family pair, asserted here on short runs of every
registered pair before any timing gate, and again on the timed runs
themselves.  All numbers land in ``.artifacts/results/BENCH_kernels.json``
(sections merge across tests, so the JSON is always emitted even when a
speedup gate skips) and the file is uploaded as a CI artifact.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver
from repro.engines.base import get_engine_spec
from repro.kernels import ThreadedBackend
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import EnsembleSimulation
from repro.vlasov.ensemble import VlasovEnsemble

BATCH = 16
THREAD_WORKERS = 4

# Heavy enough that a step is dominated by the routed kernels (gather,
# push, deposit), light enough for ~3s of reference wall clock.
PIC = SimulationConfig(
    n_cells=64, particles_per_cell=100, n_steps=150, vth=0.01, v0=0.2, seed=0
)
# The Vlasov float32 gate is a memory-bandwidth + FFT-width win, so the
# grid is sized to live well outside L2.
VLASOV = SimulationConfig(
    solver="vlasov", scenario="two_stream", n_cells=128, n_steps=20,
    vth=0.25, v0=1.0, seed=1, extra={"n_v": 256, "v_min": -6.0, "v_max": 6.0},
)
VLASOV_BATCH = 8


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _merge_result(results_dir, section: str, payload: dict) -> None:
    """Merge one section into BENCH_kernels.json (tests run in file order)."""
    path = results_dir / "BENCH_kernels.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2))


def _dl_solver(config):
    grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
    model = build_mlp(
        input_size=grid.size, output_size=config.n_cells, hidden_size=24, rng=0
    )
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
    return DLFieldSolver(model, grid, normalizer, input_kind="flat")


def _force_backend(family, ens, backend) -> None:
    """Inject a concrete backend instance so worker counts are pinned
    regardless of the host (a 1-core box would otherwise fall through)."""
    ens._backend = backend
    if family == "traditional":
        ens.field_solver.backend = backend


def _run_family(family, backend_name, backend=None, dtype="float64", steps=None):
    """Build + run one family; return (elapsed_s, state dict)."""
    if family == "vlasov":
        steps = steps if steps is not None else VLASOV.n_steps
        config = VLASOV.with_updates(dtype=dtype, backend=backend_name, n_steps=steps)
        ens = VlasovEnsemble(
            [config.with_updates(seed=b) for b in range(VLASOV_BATCH)]
        )
    else:
        steps = steps if steps is not None else PIC.n_steps
        config = PIC.with_updates(dtype=dtype, backend=backend_name, n_steps=steps)
        if family == "dl":
            ens = DLEnsemble.from_config(config, BATCH, _dl_solver(config))
        else:
            ens = EnsembleSimulation.from_config(config, BATCH)
    if backend is not None:
        _force_backend(family, ens, backend)
    start = time.perf_counter()
    ens.run(steps)
    elapsed = time.perf_counter() - start
    if family == "vlasov":
        state = {"f": ens.f, "efield": ens.efield}
    else:
        state = {"x": ens.particles.x, "v": ens.particles.v, "efield": ens.efield}
    return elapsed, state


def _assert_bitwise(reference, candidate, label):
    for key, want in reference.items():
        assert np.array_equal(candidate[key], want), (
            f"{label}: diverged from the float64 numpy reference on {key!r}"
        )


def test_parity_every_backend_family_pair(results_dir):
    """Short runs of every registered backend x family pair vs the oracle."""
    checked = {}
    for family in ("traditional", "dl", "vlasov"):
        _, reference = _run_family(family, "numpy", steps=8)
        for backend_name in get_engine_spec(family).backends:
            if backend_name == "numpy":
                continue
            backend = ThreadedBackend(max_workers=THREAD_WORKERS)
            _, candidate = _run_family(family, backend_name, backend=backend, steps=8)
            _assert_bitwise(reference, candidate, f"{family}/{backend_name}")
            checked[f"{family}/{backend_name}"] = True
    _merge_result(
        results_dir,
        "parity",
        {
            "oracle": "float64 numpy reference, bitwise",
            "pairs": checked,
        },
    )


def test_threaded_row_parallel_speedup(results_dir):
    cores = _usable_cores()
    numpy_s, reference = _run_family("traditional", "numpy")
    threaded_s, candidate = _run_family(
        "traditional", "threaded", backend=ThreadedBackend(max_workers=THREAD_WORKERS)
    )
    _assert_bitwise(reference, candidate, "traditional/threaded")
    speedup = numpy_s / threaded_s if threaded_s > 0 else float("inf")
    _merge_result(
        results_dir,
        "threaded",
        {
            "family": "traditional",
            "batch": BATCH,
            "n_steps": PIC.n_steps,
            "workers": THREAD_WORKERS,
            "usable_cores": cores,
            "numpy_s": numpy_s,
            "threaded_s": threaded_s,
            "speedup": speedup,
            "bitwise_parity": True,
            "gate": f">=1.5x at batch {BATCH} (enforced with >=4 cores)",
        },
    )
    if cores < 4:
        pytest.skip(
            f"threaded gate needs >= 4 usable cores, have {cores} "
            f"(measured {speedup:.2f}x; parity held)"
        )
    assert speedup >= 1.5, (
        f"expected >= 1.5x from row chunking at batch {BATCH} on {cores} cores, "
        f"got {speedup:.2f}x (numpy {numpy_s:.2f}s, threaded {threaded_s:.2f}s)"
    )


def test_vlasov_float32_speedup(results_dir):
    f64_s, reference = _run_family("vlasov", "numpy", dtype="float64")
    f32_s, candidate = _run_family("vlasov", "numpy", dtype="float32")
    speedup = f64_s / f32_s if f32_s > 0 else float("inf")
    # The tier is dtype-preserving end to end and must stay within a
    # single-precision band of the double trajectory.
    assert candidate["f"].dtype == np.float32
    assert candidate["efield"].dtype == np.float32
    field_err = float(
        np.max(np.abs(candidate["efield"].astype(np.float64) - reference["efield"]))
    )
    scale = max(1.0, float(np.max(np.abs(reference["efield"]))))
    assert np.all(np.isfinite(candidate["f"]))
    assert field_err <= 1e-4 * scale
    _merge_result(
        results_dir,
        "vlasov_float32",
        {
            "batch": VLASOV_BATCH,
            "grid": [int(VLASOV.extra["n_v"]), VLASOV.n_cells],
            "n_steps": VLASOV.n_steps,
            "float64_s": f64_s,
            "float32_s": f32_s,
            "speedup": speedup,
            "max_field_error": field_err,
            "gate": ">=1.3x over float64 (enforced everywhere)",
        },
    )
    assert speedup >= 1.3, (
        f"expected the Vlasov float32 tier >= 1.3x over float64, got "
        f"{speedup:.2f}x (float64 {f64_s:.2f}s, float32 {f32_s:.2f}s)"
    )
