"""The DL field solve and the training harvest, pinned as data.

The hashes below are sha256 digests, in the ``tests/test_step_parity.py``
form, of served runs recorded before the phase-space binning wrote its
indices in place:

* ``dl`` batches of three rows mixing seeds and scenarios, for each
  binning order x dtype tier x phase-space grid (a power-of-two 16 x 8
  grid and a 24 x 12 one), served through ``Client(dl_solver=...)``
  with a fixed untrained MLP;
* ``training_pairs`` harvests of the same three rows on the 24 x 12
  grid, one per binning order;
* ``dl`` batches of the same rows on a 32 x 16 grid, whose x axis is the
  32-cell field grid (the table at the end, recorded later, before the
  DL step shared a stencil between its binning and its gather).

Each digest covers a run's series, final field and final particle state
(``final_x`` and the integer-time ``final_v``), so any change to the
binning that moves a single bit of any row fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Client, RunRequest
from repro.config import SimulationConfig
from repro.dlpic.solver import DLFieldSolver
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer

BASE = SimulationConfig(
    n_cells=32, particles_per_cell=40, n_steps=15, v0=0.2, vth=0.02, solver="dl"
)
ROWS = (
    {"scenario": "two_stream", "seed": 1},
    {"scenario": "landau_damping", "seed": 2},
    {"scenario": "cold_beam", "seed": 3},
)
GRIDS = {"16x8": (16, 8), "24x12": (24, 12)}
ORDERS = ("ngp", "cic")
DTYPES = ("float64", "float32")

DL_PINNED = {
    "16x8/ngp/float64": (
        "a7628bc154438c144b01014b1aaf63da58d8c032badfd335278ddf8127ccc4ed",
        "bf80bbf09f8f6dd1b90489448bc31376b9914d9e77c61009fbc68906f53f8a8a",
        "eacf98ba8583f0eff4154f023794c596b3afcb73b568187333aa1bf305ad1d8e",
    ),
    "16x8/ngp/float32": (
        "0bd94f984ccba21e40979d0e64993f2bdd6b82457959a31b9be3b4f70594c006",
        "96b30f5ca2b5ccbadd3d6c96861f3335b0c8ce605f62fc96cf9f43a66fbb5f07",
        "901a94752e5760696279de9200b9883b2d11bbece44b99504c61108757f730c4",
    ),
    "16x8/cic/float64": (
        "4b73585228b887654ccb77ad445142f4557be13549aca6fa19d782fcc4a23fdc",
        "e47f97b82b9c90ce90b53bf6c89643598a5c45b5138804a6276d97e4fa67626c",
        "6258e903468c1bafb81fedad636cb1fe52648dba4c9de4906ae1074ac5b459ec",
    ),
    "16x8/cic/float32": (
        "c4fb810d94289f5daa6641873a50b7d20fde1f2443d6cdfe0c45f3492009a304",
        "9614598b60404195fb9b44bf34b549be4515c0d0675d19b0d265c2c003430fbe",
        "bd27716cc3e13fae13ea7b0e93e12db5f30e05fd6440732d813db4a472b4a1c5",
    ),
    "24x12/ngp/float64": (
        "293f0291d3c3e989a399877dbad864c0386af5b08e051f3dcad359c322b63e1f",
        "242de4cb8e391eddde625bae191616e5f77515ab314da39d1a1c6c0cc70ae1f3",
        "f78879f289b9a972e87eae70c6ad4144a3a28a47d2403e44fee99be4881ec512",
    ),
    "24x12/ngp/float32": (
        "9164b85977006fb57d3a2c8086f0f2ebe1c9520b2d2802c93ca2298abf2a6d4c",
        "0a4e96f346caff6df697d195c5a5cda4752747baa58d405e339157db0ff198c4",
        "b32f3609a135939e20feb4af0adbb16f7815c34b7178fea6e8d622acca4909f4",
    ),
    "24x12/cic/float64": (
        "afcca2139badc3a1ed4dde959588490898b7b3dd349ed15548ad7ef335401b79",
        "7f95d7f4f546d179bb0454b7a36ac6001d8f96194f007ff4d1aab6d9214c80d1",
        "86d154f1b16f8487651b21c4e0fdbf4678f7bece4d7b6fa00fb621d824a60a33",
    ),
    "24x12/cic/float32": (
        "7b36eb951eb7170c6c3b634f72af15f4577e078aefb2d7a0943e544be5bb23e3",
        "5ef84ac9ae4fec330bda22cd8e3c283baeddcde9db29ddf5db4124c144f9e7e8",
        "72e6df63bc56365bffd12cf7d3aceac8b6a4de32e611956f1f66072ba16b82c5",
    ),
}

HARVEST_PINNED = {
    "ngp": (
        "16f02a2490b37d10d55c6109074b707702bddf6337fc47c57c3f464c6b07f436",
        "707a2058cf8874defea024ac3f33286454d0062a60b732063ec8bf6b4d9b5c92",
        "3894901a38c75ac93b365f297bfa60ded2b945f04c21dc965856c1a8b7a7ec7f",
    ),
    "cic": (
        "4d93da81813f7d3c9386abacb54fd2749e8661725d67667cf6cb7f1954443c27",
        "7de87b58c7cec31f2ad46b10739bf1957884a5192aac4ccbb70367e6d7443c84",
        "c0359b1337c358e43dbdb904fd15637d1165dc6b5f94b96347e7b61eb1f940a7",
    ),
}


def _digest(
    series: "dict[str, np.ndarray]",
    efield: np.ndarray,
    final_x: np.ndarray,
    final_v: np.ndarray,
) -> str:
    """sha256 over every series (sorted by name), the field and the state."""
    h = hashlib.sha256()
    named = [(name, series[name]) for name in sorted(series)]
    named += [("efield", efield), ("final_x", final_x), ("final_v", final_v)]
    for name, values in named:
        arr = np.ascontiguousarray(values)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _result_digests(results) -> "tuple[str, ...]":
    for result in results:
        assert result.ok, result.error
    return tuple(_digest(r.series, r.efield, r.final_x, r.final_v) for r in results)


def _ps_grid(name: str) -> PhaseSpaceGrid:
    n_x, n_v = GRIDS[name]
    # A narrow velocity window, so every run clips tails into the edge rows.
    return PhaseSpaceGrid(
        n_x=n_x, n_v=n_v, box_length=BASE.box_length, v_min=-0.35, v_max=0.35
    )


def _dl_solver(grid: str, order: str) -> DLFieldSolver:
    ps_grid = _ps_grid(grid)
    model = build_mlp(input_size=ps_grid.size, output_size=BASE.n_cells, hidden_size=24, rng=0)
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 30.0})
    return DLFieldSolver(model, ps_grid, normalizer, input_kind="flat", binning=order)


def _requests(dtype: str, **updates) -> "list[RunRequest]":
    return [
        RunRequest(config=BASE.with_updates(dtype=dtype, **row, **updates), phase_space=True)
        for row in ROWS
    ]


@pytest.fixture(scope="module")
def served_dl() -> "dict[str, tuple[str, ...]]":
    digests = {}
    for grid in GRIDS:
        for order in ORDERS:
            with Client(
                background=False, max_batch_size=8, dl_solver=_dl_solver(grid, order)
            ) as client:
                for dtype in DTYPES:
                    batches = dict(client.service.batch_size_histogram)
                    results = client.map(_requests(dtype))
                    after = client.service.batch_size_histogram
                    assert after.get(3, 0) == batches.get(3, 0) + 1, "not one 3-row batch"
                    digests[f"{grid}/{order}/{dtype}"] = _result_digests(results)
    return digests


def test_pins_cover_every_combination():
    assert len(DL_PINNED) == len(GRIDS) * len(ORDERS) * len(DTYPES) == 8
    assert sorted(HARVEST_PINNED) == sorted(ORDERS)


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_served_dl_batch_matches_pinned(served_dl, grid, order, dtype):
    key = f"{grid}/{order}/{dtype}"
    assert served_dl[key] == DL_PINNED[key]


@pytest.mark.parametrize("order", ORDERS)
def test_training_pairs_harvest_matches_pinned(order):
    ps_grid = _ps_grid("24x12")
    selection = [
        {
            "name": "training_pairs", "n_x": ps_grid.n_x, "n_v": ps_grid.n_v,
            "v_min": ps_grid.v_min, "v_max": ps_grid.v_max,
            "box_length": ps_grid.box_length, "order": order,
        },
        "fields",
    ]
    requests = [
        RunRequest(config=r.config, observables=selection, phase_space=True)
        for r in _requests("float64", solver="traditional")
    ]
    with Client(background=False, max_batch_size=8) as client:
        results = client.map(requests)
    assert results[0].series["histograms"].shape == (BASE.n_steps + 1, 12, 24)
    assert _result_digests(results) == HARVEST_PINNED[order]


# -- phase-space grids whose x axis is the field grid ---------------------
#
# ``dl`` batches of the same three rows on a 32 x 16 phase-space grid,
# whose x axis equals the 32-cell field grid, recorded the same way.
# The first case bins NGP in float64 and gathers CIC, where one
# particle→grid stencil can serve both the binning and the gather; each
# other case differs from it in one respect that rules that out.  Every
# kernel backend must reproduce the numpy recording.

FIELD_GRID_CASES = {
    # name: (binning order, dtype, gather order, phase-space box one ulp long)
    "ngp/float64/cic": ("ngp", "float64", "cic", False),
    "ngp/float32/cic": ("ngp", "float32", "cic", False),
    "cic/float64/cic": ("cic", "float64", "cic", False),
    "ngp/float64/ngp": ("ngp", "float64", "ngp", False),
    "ngp/float64/tsc": ("ngp", "float64", "tsc", False),
    "ngp/float64/cic/box+1ulp": ("ngp", "float64", "cic", True),
}

FIELD_GRID_PINNED = {
    "ngp/float64/cic": (
        "5f712375ba1e99865b9f252c72adbce962e9dba448b87907aa0f4e9924e0be7f",
        "d4018cd3838e58f067a44717b7be2dd5e6c20c34eb282c87e6ea74cd3c3f6e34",
        "e7dc403340037698a524296782b34c206daa4a1a703670ae92e1992bd024f9a3",
    ),
    "ngp/float32/cic": (
        "d933d7bb5a53cf523eb5a2facee418d67e8d7e4ec28e5f3be33699c50cfe3f17",
        "5cd36cac36ee997fd2e4001d0610b9b6ce5b1eadf0365537b098ae1ce99eb9bc",
        "1af92cb109d4eb67f850ee88d7277af18f44c130b32c16f2fac0d0c15b82823c",
    ),
    "cic/float64/cic": (
        "ed504fc684e423fe47000e3ca568839e0c8521e59e6328332df3c0260cc24cc2",
        "50f425a04c7504e1a5d80ccb0ab4b86634e85499a342ba4823296950a215f9b3",
        "e1ae4f9f09a08878c8542864d7ed284372259f38adcd0ca868f4a5fdc3899abe",
    ),
    "ngp/float64/ngp": (
        "611cdbb5bd60259796c78fc3a926d5f066dd22c3563f0a81933ea9baecec2880",
        "d9abb35c6b2d7e0d86118f14211ad85f6d5bbbfcedc3be71dc72cfc109fb941f",
        "70e5fb14c4d59bf22a76ced8b497cf54d14a92d0df9450aec6ed789fd8a6d2d0",
    ),
    "ngp/float64/tsc": (
        "bd03763685a5c0c14bf3c6569d6d490e1f49e6695be16b2a4a9e8fc0813c642b",
        "64b469026298796f836792075675ea77910aeb9bdce581dc1ff30918c6b74755",
        "a17262e4b859b79814b1a5255512dd48e773c2b5e6c0e4234dbbe43286a60188",
    ),
    "ngp/float64/cic/box+1ulp": (
        "5f712375ba1e99865b9f252c72adbce962e9dba448b87907aa0f4e9924e0be7f",
        "d4018cd3838e58f067a44717b7be2dd5e6c20c34eb282c87e6ea74cd3c3f6e34",
        "e7dc403340037698a524296782b34c206daa4a1a703670ae92e1992bd024f9a3",
    ),
}


def _field_grid_solver(order: str, long_box: bool) -> DLFieldSolver:
    box_length = float(np.nextafter(BASE.box_length, np.inf)) if long_box else BASE.box_length
    ps_grid = PhaseSpaceGrid(
        n_x=BASE.n_cells, n_v=16, box_length=box_length, v_min=-0.35, v_max=0.35
    )
    model = build_mlp(input_size=ps_grid.size, output_size=BASE.n_cells, hidden_size=24, rng=0)
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 30.0})
    return DLFieldSolver(model, ps_grid, normalizer, input_kind="flat", binning=order)


@pytest.fixture(scope="module")
def served_field_grid() -> "dict[tuple[str, str], tuple[str, ...]]":
    digests = {}
    for name, (order, dtype, interpolation, long_box) in FIELD_GRID_CASES.items():
        for backend in ("numpy", "threaded"):
            with Client(
                background=False, max_batch_size=8, dl_solver=_field_grid_solver(order, long_box)
            ) as client:
                results = client.map(
                    _requests(dtype, interpolation=interpolation, backend=backend)
                )
                assert client.service.batch_size_histogram == {3: 1}, "not one 3-row batch"
            digests[name, backend] = _result_digests(results)
    return digests


def test_field_grid_pins_cover_every_case():
    assert sorted(FIELD_GRID_PINNED) == sorted(FIELD_GRID_CASES)
    assert _field_grid_solver("ngp", True).ps_grid.box_length != BASE.box_length


@pytest.mark.parametrize("backend", ["numpy", "threaded"])
@pytest.mark.parametrize("case", sorted(FIELD_GRID_CASES))
def test_served_dl_batch_on_the_field_grid_matches_pinned(served_field_grid, case, backend):
    assert served_field_grid[case, backend] == FIELD_GRID_PINNED[case]
