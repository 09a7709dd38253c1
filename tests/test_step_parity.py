"""The PIC step's bitwise parity oracle, pinned as data.

Every served PIC family shares one step kernel set (gather, the
leapfrog pushers, deposit).  The hashes below are the sha256 digests of
the served ``series`` and ``efield`` of a 38-run matrix — interpolation
order x dtype x kernel backend x scenario for the ``traditional``
family, plus one ``energy`` and one ``mpi`` run — recorded before the
step learned to reuse its sync gather and to keep its temporaries in a
kernel workspace.  Any change to the step that moves a single bit of
any of these runs fails here, whatever the change was meant to do.

The rest checks the mechanism directly: a steady-state step of the
traditional and the DL engines does exactly one ``gather`` and builds
one particle→grid stencil, and it allocates no fresh particle-sized
scratch.  The stencil a deposit or a DL field solve hands its
workspace's next gather is never served stale.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from repro.api import Client
from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver
from repro.dlpic import solver as dl_solver_module
from repro.kernels import ThreadedBackend
from repro.models.architectures import build_mlp
from repro.phasespace import binning
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic import interpolation, simulation
from repro.pic.grid import Grid1D
from repro.pic.interpolation import Workspace, deposit, gather
from repro.pic.energy_conserving import EnergyConservingEnsemble
from repro.pic.mover import push_positions, push_velocities
from repro.pic.simulation import ChargeDepositionFieldSolver, EnsembleSimulation

ORDERS = ("ngp", "cic", "tsc")
DTYPES = ("float64", "float32")
SCENARIOS = ("two_stream", "cold_beam", "landau_damping")
BACKENDS = ("numpy", "threaded")

BASE = SimulationConfig(
    n_cells=64, particles_per_cell=200, n_steps=100, v0=0.2, vth=0.025, seed=7
)


def _digest(series: "dict[str, np.ndarray]", efield: np.ndarray) -> str:
    """sha256 over every served series (sorted by name) and the field."""
    h = hashlib.sha256()
    for name in sorted(series):
        arr = np.ascontiguousarray(series[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    arr = np.ascontiguousarray(efield)
    h.update(f"efield:{arr.dtype.str}:{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _case_key(config: SimulationConfig) -> str:
    if config.solver != "traditional":
        return config.solver
    return f"{config.interpolation}/{config.dtype}/{config.scenario}"


def _matrix(backends: "tuple[str, ...]") -> "list[SimulationConfig]":
    configs = [
        BASE.with_updates(interpolation=order, dtype=dtype, backend=backend, scenario=scenario)
        for order in ORDERS
        for dtype in DTYPES
        for backend in backends
        for scenario in SCENARIOS
    ]
    configs.append(BASE.with_updates(solver="energy"))
    configs.append(BASE.with_updates(solver="mpi", extra={"n_ranks": 2}))
    return configs


# Recorded with the numpy kernels; every backend must reproduce them.
PINNED = {
    "ngp/float64/two_stream": "12ef69de90ecf1244a7a83b8214c42270826d043bc8fd6ad214856dd28fe9aa4",
    "ngp/float64/cold_beam": "ab46d62df681ee47483c6de8a3ae3f9c084b106ba1ab4a47f5832ea2862654f6",
    "ngp/float64/landau_damping": "46a023701db595f0d967df0bcb05428c47f1157ec964714fd56d7d0d3837195d",
    "ngp/float32/two_stream": "f3bcd2227e0dba10f725208a0ae36fc931bc7e86b3aec73cc261cb4e1cacf22e",
    "ngp/float32/cold_beam": "e3f44423c5474db9e613db9eaf9ecb792b7067c7ffddfe7f24c9752ec52f8093",
    "ngp/float32/landau_damping": "aa5345a71f3ecb3fcfdc2ca4321f7fa0d1eb0d80696afcc07c385c2ac4bf80a9",
    "cic/float64/two_stream": "0118cf3f730c02eb39450b66ba956e2732e1380b0dad2986ba0361465107fd2f",
    "cic/float64/cold_beam": "dfad58bb4199d58214008191de46c108d8143a03e94cecc96621c57847eb4bd6",
    "cic/float64/landau_damping": "b5f35c6b831282a9f378e289ae082a8d55d3625f8093fd806ff4bc62361cc345",
    "cic/float32/two_stream": "8254bdf4ac183ba4b7913c737581ec07f40505eb37362f8ade0a06dd6f26de25",
    "cic/float32/cold_beam": "c477f8d8ea1bf708f9c539b075af6464276c8ecdb2532e8ccb81c3b39338a129",
    "cic/float32/landau_damping": "73ca69513a7d0121f1057327b4d988dbf6620492ff3ab859464f754067101f30",
    "tsc/float64/two_stream": "cbbdeb9ad1c827c30b73b058300872535e9b1db302a061e9e26b0dc5ce12af6b",
    "tsc/float64/cold_beam": "de0a9d0a4b48d3e7eb7c21412e8516974d27ee0a60c7a8dda3653bfaa373b537",
    "tsc/float64/landau_damping": "594cae67aa40e62c95ca6307f845af9473ab06fe90fc4b0e2f789cf50b09960d",
    "tsc/float32/two_stream": "9ba65dfbfb6ec3cbf4900a340e8f791208913aeaa28caf568f5e015c5bace661",
    "tsc/float32/cold_beam": "3a732b616bcd51ca8a013b9dd8e40cfc74e9ab301021758a0aec0551d1178ed5",
    "tsc/float32/landau_damping": "3e10f89d39063111322cf69bf67b18ca986c5d36ec80b619bcce7480db98256f",
    "energy": "064c210b3cd311cfe026a0ddd384851af3cf221af0e2fd61bdd5e14f155884fe",
    "mpi": "ac28f2e68b44493cf03c7a9c81615e833c5f919565187d4d2b5aea389fe4a395",
}


@pytest.fixture(scope="module")
def served() -> "list[tuple[SimulationConfig, str]]":
    with Client(background=False, max_batch_size=8) as client:
        results = client.map(_matrix(BACKENDS))
    return [(r.config, _digest(r.series, r.efield)) for r in results]


def test_matrix_covers_38_served_runs():
    assert len(_matrix(BACKENDS)) == 38


@pytest.mark.parametrize("backend", BACKENDS)
def test_served_results_match_pinned_hashes(served, backend):
    cases = [(config, digest) for config, digest in served if config.backend == backend]
    assert cases
    moved = [_case_key(c) for c, digest in cases if PINNED[_case_key(c)] != digest]
    assert not moved, f"{backend}: served results moved off the pinned hashes: {moved}"


# -- one gather per steady-state step ------------------------------------


def _dl_solver(config: SimulationConfig) -> DLFieldSolver:
    grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
    model = build_mlp(input_size=grid.size, output_size=config.n_cells, hidden_size=24, rng=0)
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
    return DLFieldSolver(model, grid, normalizer, input_kind="flat")


@pytest.fixture
def gather_calls(monkeypatch) -> "list[int]":
    """Count every ``gather`` the step module makes."""
    calls = [0]
    original = interpolation.gather

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(simulation, "gather", counted)
    return calls


SMALL = SimulationConfig(n_cells=32, particles_per_cell=40, n_steps=6, vth=0.01, seed=2)


@pytest.mark.parametrize("family", ["traditional", "dl"])
def test_one_gather_per_steady_state_step(gather_calls, family):
    if family == "dl":
        engine = DLEnsemble.from_config(SMALL, 3, _dl_solver(SMALL))
    else:
        engine = EnsembleSimulation.from_config(SMALL, 3)
    engine.step()  # the first step reuses the rewind gather
    before = gather_calls[0]
    for _ in range(5):
        engine.step()
    assert gather_calls[0] - before == 5


@pytest.fixture
def stencil_fills(monkeypatch) -> "list[int]":
    """Count every particle→grid stencil the kernels build."""
    calls = [0]
    original = interpolation._fill_stencil

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(interpolation, "_fill_stencil", counted)
    return calls


@pytest.mark.parametrize("family", ["traditional", "dl"])
def test_one_stencil_build_per_steady_state_step(stencil_fills, family):
    """The traditional sync gather reads the stencil its step's deposit
    built.  The DL solve builds it only where its binning can share it
    (not on this 16 x 8 phase-space grid); elsewhere the sync gather
    builds the one."""
    if family == "dl":
        engine = DLEnsemble.from_config(SMALL, 3, _dl_solver(SMALL))
    else:
        engine = EnsembleSimulation.from_config(SMALL, 3)
    engine.step()
    before = stencil_fills[0]
    for _ in range(5):
        engine.step()
    assert stencil_fills[0] - before == 5


def test_energy_step_builds_one_stencil_per_midpoint_solve(stencil_fills, monkeypatch):
    """Each Picard midpoint solve deposits and gathers at one ``x_half``."""
    solves = [0]
    original = EnergyConservingEnsemble._midpoint_fields

    def counted(self, *args):
        solves[0] += 1
        return original(self, *args)

    monkeypatch.setattr(EnergyConservingEnsemble, "_midpoint_fields", counted)
    engine = EnergyConservingEnsemble(SMALL.with_updates(solver="energy"))
    before = stencil_fills[0]
    for _ in range(3):
        engine.step()
    assert solves[0] >= 6  # a Picard iteration and the final solve per step
    assert stencil_fills[0] - before == solves[0]


# -- the deposit -> gather stencil is never served stale ------------------


def _assert_bitwise(got: np.ndarray, expected: np.ndarray) -> None:
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(params=["numpy", "threaded"])
def handoff_backend(request) -> "ThreadedBackend | None":
    return ThreadedBackend(max_workers=2) if request.param == "threaded" else None


@pytest.fixture
def handoff_state() -> "tuple[Grid1D, np.ndarray, np.ndarray, np.ndarray]":
    rng = np.random.default_rng(11)
    grid = Grid1D(32, BASE.box_length)
    x = rng.uniform(0.0, grid.length, size=(5, 3000))
    v = rng.normal(0.0, 0.2, size=x.shape)
    field = rng.normal(size=(5, grid.n_cells))
    return grid, x, v, field


def _edit_in_place(x: np.ndarray, length: float) -> None:
    x[:, ::3] = np.mod(x[:, ::3] + 0.37, length)


def test_solver_redeposits_positions_edited_in_place(handoff_backend, handoff_state):
    grid, x, v, _ = handoff_state
    solver = ChargeDepositionFieldSolver(grid, -0.01, backend=handoff_backend)
    solver.field(x, v)
    _edit_in_place(x, grid.length)
    e = solver.field(x, v)
    fresh = ChargeDepositionFieldSolver(grid, -0.01)
    _assert_bitwise(e, fresh.field(x, v))
    _assert_bitwise(solver.last_rho, fresh.last_rho)


@pytest.mark.parametrize("order", ORDERS)
def test_second_gather_rebuilds_positions_edited_in_place(
    handoff_backend, handoff_state, order
):
    grid, x, v, field = handoff_state
    work = Workspace()
    deposit(grid, x, v, order=order, backend=handoff_backend, work=work)
    _assert_bitwise(
        gather(grid, field, x, order=order, backend=handoff_backend, work=work),
        gather(grid, field, x, order=order),
    )
    _edit_in_place(x, grid.length)
    _assert_bitwise(
        gather(grid, field, x, order=order, backend=handoff_backend, work=work),
        gather(grid, field, x, order=order),
    )


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("change", ["copy", "order", "n_cells", "length"])
def test_gather_with_other_arguments_builds_its_own_stencil(
    handoff_backend, handoff_state, order, change
):
    grid, x, v, field = handoff_state
    x_g, order_g, grid_g = x, order, grid
    if change == "copy":
        x_g = x.copy()
    elif change == "order":
        order_g = ORDERS[(ORDERS.index(order) + 1) % len(ORDERS)]
    elif change == "n_cells":
        grid_g = Grid1D(24, grid.length)
    else:
        grid_g = Grid1D(grid.n_cells, 0.75 * grid.length)
    field_g = field[:, : grid_g.n_cells] if change == "n_cells" else field
    work = Workspace()
    deposit(grid, x, v, order=order, backend=handoff_backend, work=work)
    _assert_bitwise(
        gather(grid_g, field_g, x_g, order=order_g, backend=handoff_backend, work=work),
        gather(grid_g, field_g, x_g, order=order_g),
    )


# -- the DL solve leaves its stencil for the sync gather ------------------


def _field_grid_dl_solver(
    grid: Grid1D, binning_order: str = "ngp", long_box: bool = False
) -> DLFieldSolver:
    """A DL solver whose phase-space x axis is ``grid`` (one ulp longer with ``long_box``)."""
    box_length = float(np.nextafter(grid.length, np.inf)) if long_box else grid.length
    ps_grid = PhaseSpaceGrid(n_x=grid.n_cells, n_v=16, box_length=box_length)
    model = build_mlp(input_size=ps_grid.size, output_size=grid.n_cells, hidden_size=24, rng=0)
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
    return DLFieldSolver(model, ps_grid, normalizer, binning=binning_order)


# name: (config updates, binning order, phase-space box one ulp long).
# Only the first shares; each other case differs from it in one respect.
SHARING_CASES = {
    "shared": ({}, "ngp", False),
    "float32": ({"dtype": "float32"}, "ngp", False),
    "cic_binning": ({}, "cic", False),
    "ngp_gather": ({"interpolation": "ngp"}, "ngp", False),
    "tsc_gather": ({"interpolation": "tsc"}, "ngp", False),
    "box+1ulp": ({}, "ngp", True),
}


@pytest.fixture
def stencil_rows(monkeypatch) -> "list[int]":
    """Count the rows of every particle→grid stencil the kernels build.

    A threaded build fills its rows in several slabs, so rows, not
    fills, count the builds under every backend: one build is a batch.
    """
    rows = [0]
    original = interpolation._fill_stencil

    def counted(x, *args):
        rows[0] += x.shape[0]
        return original(x, *args)

    monkeypatch.setattr(interpolation, "_fill_stencil", counted)
    return rows


@pytest.fixture
def handed_x_bins(monkeypatch) -> "list[bool]":
    """Per DL binning call: whether the solve handed the binning its x bins."""
    handed = []
    original = dl_solver_module.bin_phase_space_batch

    def spy(*args, x_index=None, **kwargs):
        handed.append(x_index is not None)
        return original(*args, x_index=x_index, **kwargs)

    monkeypatch.setattr(dl_solver_module, "bin_phase_space_batch", spy)
    return handed


@pytest.fixture
def own_x_bins(monkeypatch) -> "list[int]":
    """Count the x indices the NGP binning computes itself."""
    calls = [0]
    original = binning._x_index_batch

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(binning, "_x_index_batch", counted)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", list(SHARING_CASES))
def test_dl_binning_takes_its_x_bins_from_the_stencil_only_when_shared(
    stencil_rows, handed_x_bins, own_x_bins, case, backend
):
    """Where the stencil can be shared, the DL solve builds it, the binning
    computes no x index and the t=0 rewind gather and every sync gather
    build nothing; every neighbour bins as before and its gathers build
    the stencil."""
    updates, binning_order, long_box = SHARING_CASES[case]
    config = SMALL.with_updates(backend=backend, **updates)
    solver = _field_grid_dl_solver(Grid1D(config.n_cells, config.box_length),
                                   binning_order, long_box)
    engine = DLEnsemble.from_config(config, 3, solver)
    shared = case == "shared"
    assert handed_x_bins == [shared]
    assert stencil_rows[0] == engine.batch
    engine.step()
    rows, own, handed = stencil_rows[0], own_x_bins[0], len(handed_x_bins)
    for _ in range(5):
        engine.step()
    assert handed_x_bins[handed:] == [shared] * 5
    assert own_x_bins[0] - own == (0 if shared or binning_order == "cic" else 5)
    assert stencil_rows[0] - rows == 5 * engine.batch


@pytest.mark.parametrize("backend", BACKENDS)
def test_dl_step_sharing_its_stencil_keeps_every_bit(backend):
    """The shared stencil's step equals the plain ensemble's, whose solve
    (``DLFieldSolver.field``) has no workspace and shares nothing."""
    config = SMALL.with_updates(backend=backend)
    grid = Grid1D(config.n_cells, config.box_length)
    shared = DLEnsemble.from_config(config, 3, _field_grid_dl_solver(grid))
    plain = EnsembleSimulation.from_config(config, 3, field_solver=_field_grid_dl_solver(grid))
    for _ in range(6):
        shared.step()
        plain.step()
    for got, want in [
        (shared.particles.x, plain.particles.x),
        (shared.particles.v, plain.particles.v),
        (shared.v_at_integer_time, plain.v_at_integer_time),
        (shared.efield, plain.efield),
    ]:
        _assert_bitwise(got, want)


@pytest.mark.parametrize("change", ["none", "copy", "ngp", "tsc", "n_cells", "length"])
def test_gather_after_a_dl_solve_builds_its_own_stencil_unless_it_matches(
    handoff_backend, handoff_state, stencil_rows, change
):
    """A gather at the DL solve's positions array, grid and CIC order reads
    the solve's stencil; at a copy of the positions, in another order or
    on another grid it builds its own.  Both equal a fresh gather."""
    grid, x, v, field = handoff_state
    x_g, order_g, grid_g = x, "cic", grid
    if change == "copy":
        x_g = x.copy()
    elif change in ("ngp", "tsc"):
        order_g = change
    elif change == "n_cells":
        grid_g = Grid1D(24, grid.length)
    elif change == "length":
        grid_g = Grid1D(grid.n_cells, 0.75 * grid.length)
    field_g = field[:, : grid_g.n_cells]
    solver = _field_grid_dl_solver(grid)
    work = Workspace()
    solver.fields(x, v, work=work, grid=grid, gather_order="cic", backend=handoff_backend)
    rows = stencil_rows[0]
    _assert_bitwise(
        gather(grid_g, field_g, x_g, order=order_g, backend=handoff_backend, work=work),
        gather(grid_g, field_g, x_g, order=order_g),
    )
    # The fresh reference gather builds one stencil of its own.
    assert stencil_rows[0] - rows == (1 if change == "none" else 2) * len(x)


def test_threaded_slabs_share_one_workspace_race_free():
    """More workers than cores and a tiny switch interval: threaded slabs
    writing row slices of one shared workspace still give the reference bits."""
    rng = np.random.default_rng(8)
    grid = Grid1D(64, BASE.box_length)
    x = rng.uniform(0.0, grid.length, size=(12, 4000))
    v = rng.normal(0.0, 0.2, size=x.shape)
    field = rng.normal(size=(12, grid.n_cells))
    reference = {
        order: (gather(grid, field, x, order=order), deposit(grid, x, v, order=order))
        for order in ORDERS
    }
    pushed = (push_velocities(v, x, -1.0, 0.2), push_positions(x, v, 0.2, grid.length))
    backend, work = ThreadedBackend(max_workers=6), Workspace()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for order, (e_ref, rho_ref) in reference.items():
                e = gather(grid, field, x, order=order, backend=backend, work=work)
                np.testing.assert_array_equal(e, e_ref)
                rho = deposit(grid, x, v, order=order, backend=backend, work=work)
                np.testing.assert_array_equal(rho, rho_ref)
            np.testing.assert_array_equal(
                push_velocities(v, x, -1.0, 0.2, backend=backend, work=work), pushed[0]
            )
            np.testing.assert_array_equal(
                push_positions(x, v, 0.2, grid.length, backend=backend, work=work), pushed[1]
            )
    finally:
        sys.setswitchinterval(interval)


# -- no fresh particle-sized scratch per step ----------------------------


@pytest.mark.skipif(sys.platform != "linux", reason="minor-fault accounting is Linux-specific")
def test_steady_state_step_page_faults():
    """Minor page faults per steady-state step, 8 x 64,000 particles.

    Each fresh particle-sized temporary here is a 4 MB array, which
    the allocator serves with newly mapped pages: about 1,000 minor
    faults and a zero-fill apiece.  Measured on Linux/glibc (2 cores,
    numpy 2.4): 15,800 faults per step when every kernel allocated its
    intermediates and gathered twice per step, 787 with the engine-owned
    workspace (in three fresh processes).  Those 787 come from the fresh
    arrays the step hands out: the gathered field 400, ``push_positions``
    194 and ``synchronize_velocities`` 194.  The bound sits between.
    """
    import resource  # Unix-only

    engine = EnsembleSimulation.from_config(
        SimulationConfig(n_cells=64, particles_per_cell=1000, seed=0), 8
    )
    for _ in range(3):
        engine.step()
    steps = 5
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        engine.step()
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps
    assert faults < 7_900, f"{faults:.0f} minor page faults per step"
