"""Kernel backends: chunking, and the engine parity matrix.

The contract under test is the one the backends are built on: every
batch row of an engine is independent, so executing rows in contiguous
chunks must reproduce one slab **bit for bit** in every dtype tier.
The matrix below runs scenario x family x dtype with every kernel call
chunked and asserts exactly that, plus the float32-vs-float64 tolerance
band and chunked determinism.

Every matrix call is far below ``FLOOR``, where the engines' own
backend runs one slab, so the chunked side injects
``ThreadedBackend(max_workers=3)`` into the engine classes
(``chunked_kernels`` in ``conftest.py``) to force real chunking
regardless of the host.  The engines' own backend's size rule is
checked with the usable core count pinned at two: its bounds, and a
paper-size ensemble split into chunks against each member's solo run.
"""

import contextlib
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver
from repro.kernels import KernelBackend, ThreadedBackend
from repro.kernels import backends
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import EnsembleSimulation, TraditionalPIC
from repro.vlasov.ensemble import VlasovEnsemble

BATCH = 4
STEPS = 6


# -- ThreadedBackend chunking --------------------------------------------


def _bounds(backend, n_rows, *size):
    """The sorted ``(lo, hi)`` chunks ``backend.run_rows`` runs."""
    seen = []
    backend.run_rows(n_rows, lambda lo, hi: seen.append((lo, hi)), *size)
    return sorted(seen)


class TestThreadedBackend:
    def test_chunks_cover_every_row_exactly_once(self):
        bounds = _bounds(ThreadedBackend(max_workers=3), 10)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        assert len(bounds) > 1  # actually chunked

    def test_single_unit_falls_through_inline(self):
        # One row cannot be split: the backend must run it as the plain
        # reference slab.
        assert _bounds(ThreadedBackend(max_workers=3), 1) == [(0, 1)]
        assert _bounds(ThreadedBackend(max_workers=1), 8) == [(0, 8)]

    def test_worker_exceptions_propagate(self):
        def boom(lo, hi):
            raise RuntimeError("kernel failed")

        with pytest.raises(RuntimeError, match="kernel failed"):
            ThreadedBackend(max_workers=3).run_rows(8, boom)

    def test_every_chunk_finishes_before_an_exception_propagates(self):
        # A chunk still writing its rows after the caller has seen the
        # error would race whatever the caller does next.
        finished = []

        def slab(lo, hi):
            if lo == 0:
                raise RuntimeError("kernel failed")
            time.sleep(0.05)
            finished.append((lo, hi))

        with pytest.raises(RuntimeError, match="kernel failed"):
            ThreadedBackend(max_workers=2).run_rows(2, slab)
        assert finished == [(1, 2)]

    @pytest.mark.parametrize("max_workers", (0, -1))
    def test_max_workers_must_be_positive(self, max_workers):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            ThreadedBackend(max_workers=max_workers)


# -- the numpy backend's size rule ---------------------------------------


@pytest.fixture
def pool_chunks(monkeypatch):
    """Pin the usable cores at 2 and record the row bounds of every
    chunk submitted to the shared pool (the first chunk of a split call
    runs on the calling thread)."""
    monkeypatch.setattr(backends, "_CORES", 2)
    pool = backends._shared_pool(2)
    submitted = []

    class Recorder:
        def submit(self, fn, lo, hi):
            submitted.append((lo, hi))
            return pool.submit(fn, lo, hi)

    monkeypatch.setattr(backends, "_shared_pool", lambda workers: Recorder())
    return submitted


class TestNumpyRunRows:
    def test_a_paper_size_call_splits_into_two_chunks(self, pool_chunks):
        assert _bounds(KernelBackend(), 8, 8 * 64_000) == [(0, 4), (4, 8)]
        assert pool_chunks == [(4, 8)]

    def test_chunks_never_outnumber_cores_rows_or_floors(self, monkeypatch, pool_chunks):
        monkeypatch.setattr(backends, "_CORES", 8)
        assert len(_bounds(KernelBackend(), 8, 3 * backends.FLOOR)) == 3
        assert len(_bounds(KernelBackend(), 3, 100 * backends.FLOOR)) == 3

    @pytest.mark.parametrize(
        "n_rows, size",
        [
            (4, (4 * 6_400,)),  # campaign_stream: below the floor
            (2, (2 * backends.FLOOR - 1,)),  # one particle short of two chunks
            (1, (100 * backends.FLOOR,)),  # one row cannot split
            (8, ()),  # no size: the Vlasov advections
        ],
    )
    def test_small_calls_run_one_slab_inline(self, pool_chunks, n_rows, size):
        assert _bounds(KernelBackend(), n_rows, *size) == [(0, n_rows)]
        assert pool_chunks == []

    def test_one_core_runs_one_slab(self, monkeypatch, pool_chunks):
        monkeypatch.setattr(backends, "_CORES", 1)
        assert _bounds(KernelBackend(), 8, 8 * 64_000) == [(0, 8)]
        assert pool_chunks == []

    def test_a_threaded_backend_chunks_whatever_the_size(self, pool_chunks):
        assert _bounds(ThreadedBackend(max_workers=2), 4, 4) == [(0, 2), (2, 4)]
        assert pool_chunks == [(2, 4)]


# 64 cells x 1,024 ppc: each of the 4 rows holds 65,536 particles, so
# every kernel call of the step splits in two on two cores.
LARGE = SimulationConfig(
    n_cells=64, particles_per_cell=1024, n_steps=3, vth=0.01, v0=0.2, seed=5
)


class TestChunkedNumpyEngines:
    def test_traditional_chunks_match_each_members_solo_run(self, pool_chunks):
        ens = EnsembleSimulation.from_config(LARGE, 4)
        hist = ens.run()
        assert (2, 4) in pool_chunks
        for b in range(4):
            solo = TraditionalPIC(LARGE.with_updates(seed=LARGE.seed + b))
            solo_hist = solo.run()
            np.testing.assert_array_equal(ens.particles.x[b], solo.particles.x[0])
            np.testing.assert_array_equal(ens.particles.v[b], solo.particles.v[0])
            np.testing.assert_array_equal(ens.efield[b], solo.efield[0])
            for name, series in solo_hist.as_arrays().items():
                np.testing.assert_array_equal(hist.member(b)[name], series)

    def test_dl_on_numpy_submits_nothing_to_the_pool(self, pool_chunks):
        # A field-aligned phase-space grid, so the solve builds its
        # stencil through the engine's backend too.
        grid = PhaseSpaceGrid(n_x=LARGE.n_cells, n_v=8, box_length=LARGE.box_length)
        model = build_mlp(input_size=grid.size, output_size=LARGE.n_cells,
                          hidden_size=24, rng=0)
        normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
        solver = DLFieldSolver(model, grid, normalizer, input_kind="flat")
        DLEnsemble.from_config(LARGE, 4, solver).run(2)
        assert pool_chunks == []


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


def _build(family, scenario, dtype, kernels=contextlib.nullcontext):
    """Build + run one matrix cell inside ``kernels()``; return its
    observable state arrays."""
    with kernels():
        if family == "traditional":
            config = _traditional_config(scenario).with_updates(dtype=dtype)
            ens = EnsembleSimulation.from_config(config, BATCH)
        elif family == "vlasov":
            config = _vlasov_config(scenario).with_updates(dtype=dtype)
            ens = VlasovEnsemble(
                [config.with_updates(seed=config.seed + b) for b in range(BATCH)]
            )
        else:  # dl
            config = _traditional_config(scenario).with_updates(dtype=dtype)
            ens = DLEnsemble.from_config(config, BATCH, _dl_solver(config))
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


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("family", FAMILIES)
class TestParityMatrix:
    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_chunked_matches_one_slab_bitwise(
        self, family, scenario, dtype, chunked_kernels
    ):
        reference = _build(family, scenario, dtype)
        candidate = _build(family, scenario, dtype, chunked_kernels)
        for key, ref in reference.items():
            assert candidate[key].dtype == ref.dtype
            assert np.array_equal(candidate[key], ref), (
                f"{family}/{scenario}/{dtype}: chunked kernels diverged from "
                f"one slab on {key!r}"
            )

    def test_float32_tracks_float64_within_tolerance(self, family, scenario):
        ref64 = _build(family, scenario, "float64")
        ref32 = _build(family, scenario, "float32")
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

    def test_chunked_is_deterministic(self, family, scenario, chunked_kernels):
        first = _build(family, scenario, "float32", chunked_kernels)
        second = _build(family, scenario, "float32", chunked_kernels)
        for key, ref in first.items():
            assert np.array_equal(second[key], ref)
