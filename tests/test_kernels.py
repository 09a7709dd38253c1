"""Kernel backend tier: registry, chunking, and the engine parity matrix.

The contract under test is the one the backends are built on: every
batch row of an engine is independent, so a backend that executes rows
in contiguous chunks (``threaded``) must reproduce the ``numpy``
reference **bit for bit** in every dtype tier.  The matrix below runs
scenario x family x backend x dtype and asserts exactly that, plus the
float32-vs-float64 tolerance band and threaded determinism.

The container running CI's fast leg may expose a single core, in which
case ``ThreadedBackend()`` defaults to one worker and falls through to
the reference slab — so the matrix injects ``ThreadedBackend(max_workers=3)``
explicitly to force real chunking regardless of the host.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver
from repro.kernels import (
    KERNEL_BACKEND_NAMES,
    KernelBackend,
    ThreadedBackend,
    get_backend,
    resolve_backend,
)
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import EnsembleSimulation
from repro.vlasov.ensemble import VlasovEnsemble

BATCH = 4
STEPS = 6


# -- registry and config agreement --------------------------------------


class TestRegistry:
    def test_backend_names_are_the_config_literals(self):
        # config.py validates against a literal pair (it cannot import
        # repro.kernels without a cycle); this pins the two in sync.
        assert KERNEL_BACKEND_NAMES == ("numpy", "threaded")
        for name in KERNEL_BACKEND_NAMES:
            SimulationConfig(backend=name)  # accepted
        for rejected in ("cuda", "numba"):
            with pytest.raises(ValueError, match="expected 'numpy' or 'threaded'"):
                SimulationConfig(backend=rejected)

    def test_get_backend_returns_singletons(self):
        for name in KERNEL_BACKEND_NAMES:
            assert get_backend(name) is get_backend(name)
            assert get_backend(name).name == name

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_resolve_backend(self):
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("threaded") is get_backend("threaded")
        inst = ThreadedBackend(max_workers=2)
        assert resolve_backend(inst) is inst


# -- ThreadedBackend chunking --------------------------------------------


class TestThreadedBackend:
    def _bounds(self, backend, n_rows):
        seen = []
        backend.run_rows(n_rows, lambda lo, hi: seen.append((lo, hi)))
        return sorted(seen)

    def test_chunks_cover_every_row_exactly_once(self):
        bounds = self._bounds(ThreadedBackend(max_workers=3), 10)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        assert len(bounds) > 1  # actually chunked

    def test_single_unit_falls_through_inline(self):
        # One row cannot be split: the backend must run it as the plain
        # reference slab.
        assert self._bounds(ThreadedBackend(max_workers=3), 1) == [(0, 1)]
        assert self._bounds(ThreadedBackend(max_workers=1), 8) == [(0, 8)]

    def test_worker_exceptions_propagate(self):
        def boom(lo, hi):
            raise RuntimeError("kernel failed")

        with pytest.raises(RuntimeError, match="kernel failed"):
            ThreadedBackend(max_workers=3).run_rows(8, boom)

    def test_parallel_flags(self):
        assert not KernelBackend().parallel
        assert ThreadedBackend(max_workers=2).parallel


# -- engine parity matrix ------------------------------------------------


def _dl_solver(config):
    grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
    model = build_mlp(
        input_size=grid.size, output_size=config.n_cells, hidden_size=24, rng=0
    )
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
    return DLFieldSolver(model, grid, normalizer, input_kind="flat")


def _traditional_config(scenario):
    return SimulationConfig(
        scenario=scenario, n_cells=32, particles_per_cell=30, n_steps=STEPS,
        vth=0.01, v0=0.2, seed=3,
    )


def _vlasov_config(scenario):
    return SimulationConfig(
        solver="vlasov", scenario=scenario, n_cells=32, n_steps=STEPS,
        vth=0.25, v0=1.0, seed=1, extra={"n_v": 48, "v_min": -6.0, "v_max": 6.0},
    )


def _build(family, scenario, dtype, backend_name):
    """Build + run one matrix cell; return its observable state arrays."""
    if family == "traditional":
        config = _traditional_config(scenario).with_updates(
            dtype=dtype, backend=backend_name
        )
        ens = EnsembleSimulation.from_config(config, BATCH)
    elif family == "vlasov":
        config = _vlasov_config(scenario).with_updates(dtype=dtype, backend=backend_name)
        ens = VlasovEnsemble([config.with_updates(seed=config.seed + b) for b in range(BATCH)])
    else:  # dl
        config = _traditional_config(scenario).with_updates(
            dtype=dtype, backend=backend_name
        )
        ens = DLEnsemble.from_config(config, BATCH, _dl_solver(config))
    if backend_name == "threaded":
        # Force real chunking even on a single-core host (where the
        # default worker count is 1 and the backend falls through).
        forced = ThreadedBackend(max_workers=3)
        ens._backend = forced
        if family == "traditional":
            ens.field_solver.backend = forced
    ens.run(STEPS)
    if family == "vlasov":
        return {"f": ens.f.copy(), "efield": ens.efield.copy()}
    return {
        "x": ens.particles.x.copy(),
        "v": ens.particles.v.copy(),
        "efield": ens.efield.copy(),
    }


FAMILIES = ("traditional", "vlasov", "dl")
SCENARIOS = ("two_stream", "landau_damping")
ALT_BACKENDS = ("threaded",)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("family", FAMILIES)
class TestParityMatrix:
    @pytest.mark.parametrize("backend_name", ALT_BACKENDS)
    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_backend_matches_numpy_reference_bitwise(
        self, family, scenario, backend_name, dtype
    ):
        reference = _build(family, scenario, dtype, "numpy")
        candidate = _build(family, scenario, dtype, backend_name)
        for key, ref in reference.items():
            assert candidate[key].dtype == ref.dtype
            assert np.array_equal(candidate[key], ref), (
                f"{family}/{scenario}/{dtype}: {backend_name} diverged from "
                f"the numpy reference on {key!r}"
            )

    def test_float32_tracks_float64_within_tolerance(self, family, scenario):
        ref64 = _build(family, scenario, "float64", "numpy")
        ref32 = _build(family, scenario, "float32", "numpy")
        for key, lo in ref32.items():
            assert lo.dtype == np.float32
            hi = ref64[key]
            assert hi.dtype == np.float64
            assert np.all(np.isfinite(lo))
            scale = max(1.0, float(np.max(np.abs(hi))))
            diff = float(np.max(np.abs(lo.astype(np.float64) - hi)))
            # Short runs in single precision stay within a loose
            # single-precision band of the double trajectory.
            assert diff <= 1e-3 * scale, (
                f"{family}/{scenario}: float32 {key!r} drifted {diff:g} "
                f"from float64 (scale {scale:g})"
            )

    def test_threaded_is_deterministic(self, family, scenario):
        first = _build(family, scenario, "float32", "threaded")
        second = _build(family, scenario, "float32", "threaded")
        for key, ref in first.items():
            assert np.array_equal(second[key], ref)
