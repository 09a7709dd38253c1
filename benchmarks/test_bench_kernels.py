"""Kernel backends — the chunked parity oracle and the Vlasov float32 gate.

Parity comes first: for every family that routes its kernels through a
backend (``traditional``, ``dl``, ``vlasov``), short runs with
``ThreadedBackend`` injected into the engine class, which chunks every
kernel call, must equal the one-slab float64 runs bit for bit.  Then
the Vlasov float32 tier must reach >= 1.3x over float64 (pure
bandwidth/FFT win, no parallel hardware needed, enforced everywhere).
All numbers land in ``.artifacts/results/BENCH_kernels.json`` (sections
merge across tests) and the file is uploaded as a CI artifact.
"""

import json
import time

import numpy as np

from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver
from repro.kernels import ThreadedBackend
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import EnsembleSimulation
from repro.vlasov.ensemble import VlasovEnsemble

BATCH = 16
THREAD_WORKERS = 4

# A step dominated by the routed kernels (gather, push, deposit).
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


def _run_family(family, dtype="float64", steps=None):
    """Build + run one family; return (elapsed_s, state dict)."""
    if family == "vlasov":
        steps = steps if steps is not None else VLASOV.n_steps
        config = VLASOV.with_updates(dtype=dtype, n_steps=steps)
        ens = VlasovEnsemble(
            [config.with_updates(seed=b) for b in range(VLASOV_BATCH)]
        )
    else:
        steps = steps if steps is not None else PIC.n_steps
        config = PIC.with_updates(dtype=dtype, n_steps=steps)
        if family == "dl":
            ens = DLEnsemble.from_config(config, BATCH, _dl_solver(config))
        else:
            ens = EnsembleSimulation.from_config(config, BATCH)
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


def test_parity_every_backend_family_pair(results_dir, monkeypatch):
    """Short runs of every kernel-routing family, every kernel call chunked
    (``ThreadedBackend`` on the engine class), against one slab."""
    checked = {}
    backend = ThreadedBackend(max_workers=THREAD_WORKERS)
    for family, engine in (("traditional", EnsembleSimulation), ("dl", DLEnsemble),
                           ("vlasov", VlasovEnsemble)):
        _, reference = _run_family(family, steps=8)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_backend", backend)
            _, candidate = _run_family(family, steps=8)
        _assert_bitwise(reference, candidate, f"{family}/chunked")
        checked[f"{family}/chunked"] = True
    _merge_result(
        results_dir,
        "parity",
        {
            "oracle": "float64 one-slab reference, bitwise",
            "pairs": checked,
        },
    )


def test_vlasov_float32_speedup(results_dir):
    f64_s, reference = _run_family("vlasov", dtype="float64")
    f32_s, candidate = _run_family("vlasov", dtype="float32")
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
