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
traditional and the DL engines does exactly one ``gather``, and it
allocates no fresh particle-sized scratch.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from repro.api import Client
from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver
from repro.kernels import ThreadedBackend
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic import interpolation, simulation
from repro.pic.grid import Grid1D
from repro.pic.interpolation import Workspace, deposit, gather
from repro.pic.mover import push_positions, push_velocities
from repro.pic.simulation import EnsembleSimulation

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
    intermediates and gathered twice per step, 0 with the engine-owned
    workspace.  The bound sits halfway between.
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
