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
import threading
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver
from repro.kernels import KernelBackend, ThreadedBackend
from repro.kernels import backends, blas
from repro.models.architectures import build_mlp
from repro.nn import layers
from repro.nn.layers import Dense, blocked_gemm
from repro.nn.losses import MSELoss
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import EnsembleSimulation, TraditionalPIC
from repro.vlasov.ensemble import VlasovEnsemble

BATCH = 4
STEPS = 6

needs_blas_setter = pytest.mark.skipif(
    not blas.blas_threads_settable(), reason="numpy's BLAS has no thread setter"
)


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

    @needs_blas_setter
    def test_dl_on_numpy_splits_its_kernels_across_the_pool(self, pool_chunks):
        # A field-aligned phase-space grid, so the solve builds its
        # stencil through the engine's backend too.
        grid = PhaseSpaceGrid(n_x=LARGE.n_cells, n_v=8, box_length=LARGE.box_length)
        model = build_mlp(input_size=grid.size, output_size=LARGE.n_cells,
                          hidden_size=24, rng=0)
        normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
        solver = DLFieldSolver(model, grid, normalizer, input_kind="flat")
        DLEnsemble.from_config(LARGE, 4, solver).run(2)
        assert (2, 4) in pool_chunks


# -- the DL step on the kernel pool --------------------------------------

# The paper MLP's layer shapes, (inputs, outputs).
PAPER_LAYERS = ((4096, 1024), (1024, 1024), (1024, 64))


def _wide_dl_solver(config, n_v=16, hidden=1024):
    """A field-aligned solver whose 1024 -> 1024 layers split their columns."""
    grid = PhaseSpaceGrid(n_x=config.n_cells, n_v=n_v, box_length=config.box_length)
    model = build_mlp(input_size=grid.size, output_size=config.n_cells,
                      hidden_size=hidden, n_hidden=2, rng=0)
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
    return DLFieldSolver(model, grid, normalizer, input_kind="flat")


def _dl_state(config, solver, steps=2):
    engine = DLEnsemble.from_config(config, 4, solver)
    engine.run(steps)
    return engine, [engine.particles.x, engine.particles.v, engine.efield,
                    engine.v_at_integer_time, engine.last_histograms]


class TestSplitGemm:
    @pytest.mark.parametrize("cores", (2, 3, 4))
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_split_gemm_equals_the_unsplit_block_product(
        self, monkeypatch, pool_chunks, cores, dtype
    ):
        monkeypatch.setattr(backends, "_CORES", cores)
        rng = np.random.default_rng(0)
        for inputs, outputs in PAPER_LAYERS:
            w = rng.standard_normal((inputs, outputs)).astype(dtype)
            for rows in (1, 8, 16, 17):
                x = rng.standard_normal((rows, inputs)).astype(dtype)
                whole = blocked_gemm(x, w)
                before = len(pool_chunks)
                with blas.one_blas_thread():
                    split = blocked_gemm(x, w)
                assert split.dtype == whole.dtype == dtype
                assert np.array_equal(split, whole), (inputs, outputs, rows)
                parts = 1 + len(pool_chunks) - before
                if not blas.blas_threads_settable():
                    assert parts == 1
                elif outputs == 64:
                    assert parts == 1  # 2**16 weights: below the floor
                else:
                    assert parts == min(cores, inputs * outputs // blas.GEMM_FLOOR)

    @needs_blas_setter
    def test_parts_hold_the_floor_on_aligned_columns(self, monkeypatch, pool_chunks):
        monkeypatch.setattr(backends, "_CORES", 4)
        bounds = []
        with blas.one_blas_thread():
            # 130 columns of 2**13 weights: two parts would leave the
            # second two columns, so the product runs as one.
            blas.run_columns(lambda lo, hi: bounds.append((lo, hi)), 130, 1 << 13)
            blas.run_columns(lambda lo, hi: bounds.append((lo, hi)), 1024, 4096)
        assert sorted(bounds) == [(0, 130), (0, 256), (256, 512), (512, 768), (768, 1024)]

    def test_outside_the_scope_a_gemm_never_splits(self, monkeypatch, pool_chunks):
        monkeypatch.setattr(backends, "_CORES", 4)
        bounds = []
        blas.run_columns(lambda lo, hi: bounds.append((lo, hi)), 1024, 4096)
        assert bounds == [(0, 1024)] and pool_chunks == []


class TestDLEngineOnThePool:
    @needs_blas_setter
    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_a_dl_engine_above_the_floor_equals_its_one_slab_run(
        self, monkeypatch, pool_chunks, dtype
    ):
        config = LARGE.with_updates(dtype=dtype)
        solver = _wide_dl_solver(config)
        routed = []
        original = KernelBackend.run_rows

        def named(self, n_rows, fn, size=0):
            routed.append(fn.__qualname__.split(".")[0])
            return original(self, n_rows, fn, size)

        monkeypatch.setattr(KernelBackend, "run_rows", named)
        _, split = _dl_state(config, solver)
        assert (2, 4) in pool_chunks  # the kernels split
        assert (8, 16) in pool_chunks  # and so did the 1024 -> 1024 GEMMs
        assert "_ngp_count_batch" in routed  # the binning ran on the backend
        monkeypatch.setattr(DLEnsemble, "_backend", None)
        monkeypatch.setattr(backends, "_CORES", 1)
        del pool_chunks[:]
        _, one_slab = _dl_state(config, solver)
        assert pool_chunks == []
        for got, want in zip(split, one_slab):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_without_a_blas_thread_setter_a_dl_run_keeps_one_slab(
        self, monkeypatch, pool_chunks
    ):
        solver = _wide_dl_solver(LARGE)
        _, default = _dl_state(LARGE, solver)
        monkeypatch.setattr(blas, "_thread_calls", lambda: None)
        del pool_chunks[:]
        engine, hidden = _dl_state(LARGE, solver)
        assert engine._backend is None
        assert pool_chunks == []
        for got, want in zip(hidden, default):
            assert np.array_equal(got, want)


@pytest.fixture
def blas_threads():
    """numpy's BLAS set to two threads for the test (restored after it);
    yields the getter of its thread count."""
    get, set_ = blas._thread_calls()
    before = get()
    set_(2)
    yield get
    set_(before)


@needs_blas_setter
class TestBlasThreadCount:
    """Only a DL-solve forward runs on one BLAS thread; everything outside
    it keeps the count it had."""

    @pytest.fixture
    def forward_counts(self, monkeypatch, blas_threads):
        """The BLAS thread count each evaluation GEMM ran with."""
        seen = []
        original = layers.blocked_gemm

        def spy(x, w):
            seen.append(blas_threads())
            return original(x, w)

        monkeypatch.setattr(layers, "blocked_gemm", spy)
        return seen

    def test_a_dl_step_holds_blas_to_one_thread_only_inside_its_forward(
        self, blas_threads, forward_counts
    ):
        engine = DLEnsemble.from_config(_traditional_config("two_stream"), 2,
                                        _wide_dl_solver(_traditional_config("two_stream")))
        engine.step()
        assert forward_counts and set(forward_counts) == {1}
        assert blas_threads() == 2

    def test_a_forward_that_raises_restores_the_count(
        self, monkeypatch, blas_threads
    ):
        config = _traditional_config("two_stream")
        solver = _wide_dl_solver(config)

        def boom(x, w):
            raise RuntimeError("forward failed")

        monkeypatch.setattr(layers, "blocked_gemm", boom)
        with pytest.raises(RuntimeError, match="forward failed"):
            solver.predict_from_histograms(np.zeros((2, *solver.ps_grid.shape)))
        assert blas_threads() == 2
        assert blas._open == 0

    def test_two_dl_engines_stepping_at_once_restore_the_count(
        self, blas_threads, forward_counts
    ):
        config = _traditional_config("two_stream")
        solver = _wide_dl_solver(config)
        configs = (config, config.with_updates(scenario="landau_damping", seed=4))
        barrier = threading.Barrier(2)

        def run(engine):
            barrier.wait()
            for _ in range(STEPS):
                engine.step()

        together = [DLEnsemble.from_config(c, 2, solver) for c in configs]
        threads = [threading.Thread(target=run, args=(e,)) for e in together]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(forward_counts) == {1}
        assert blas_threads() == 2
        for c, engine in zip(configs, together):
            alone = DLEnsemble.from_config(c, 2, solver)
            alone.run(STEPS)
            assert np.array_equal(engine.particles.x, alone.particles.x)
            assert np.array_equal(engine.efield, alone.efield)

    def test_training_after_a_dl_step_keeps_blas_threads(
        self, monkeypatch, blas_threads
    ):
        config = _traditional_config("two_stream")
        solver = _wide_dl_solver(config, hidden=64)
        DLEnsemble.from_config(config, 2, solver).step()
        seen = []
        for name in ("forward", "backward"):
            original = getattr(Dense, name)

            def spy(self, *args, _original=original, **kwargs):
                seen.append(blas_threads())
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Dense, name, spy)
        rng = np.random.default_rng(0)
        inputs = rng.random((32, solver.ps_grid.size))
        targets = rng.random((32, config.n_cells))
        Trainer(solver.model, MSELoss(), Adam(lr=1e-3)).fit(
            inputs, targets, epochs=1, batch_size=16, rng=0
        )
        assert seen and set(seen) == {2}


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
