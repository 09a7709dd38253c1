"""The harvest and Vlasov parity oracles, pinned as data.

The hashes below are sha256 digests of what the per-run PIC harvest and
the solo Vlasov solver produced, recorded before both were deleted in
favour of the batched paths:

* the ``inputs``/``targets``/``params`` of a 4-run Sec. IV-A1-shaped
  campaign for each binning order, with and without the initial-state
  pair;
* the final ``f`` and ``efield`` and every recorded series of a
  20-step Vlasov run of each registered noise-free distribution;
* the pairs of a stride-2 Vlasov harvest.

Every surviving path must reproduce them bit for bit: the campaign run
serially and over a spawned worker pool, the in-memory client harvest,
batch-1 and batched Vlasov engines, and the batched Vlasov harvest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.datagen.campaign import CampaignConfig, harvest_via_client, run_campaign
from repro.datagen.dataset import FieldDataset
from repro.engines import make_engine
from repro.phasespace.binning import PhaseSpaceGrid
from repro.pic.scenarios import available_distributions
from repro.vlasov.harvest import harvest_vlasov_ensemble

PIC_PINNED = {
    "ngp/with_initial": {
        "inputs": "921baa8f23931aa67c75eebace0b9d02a8e5b415463b09f84842e9436d8eb3a3",
        "targets": "322c1d0f533f0c0b6b2756ecd47882754fb4159944ea3cd3c6c222aedc5696c4",
        "params": "e92970230acfb12bea7d6d47a67adcd9499bfe68032fcc489684c757661c1172",
    },
    "ngp/without_initial": {
        "inputs": "79220c0663ce18d7bb5d91a4c9f596ef72ced5cf40c239401783be7b39a87fa4",
        "targets": "692042281b950e795d8b2116054e7c74fc54e1a0a301fc019d8aa432e2db0c33",
        "params": "eab23c96d2c0b1739b78458a6c5a69e371c68a702f0b256f4910d3b429c6790d",
    },
    "cic/with_initial": {
        "inputs": "f2596c060d72df4f4eee88de7ed4e638a6594d8e4bf07925844f9ac6118d4c2e",
        "targets": "322c1d0f533f0c0b6b2756ecd47882754fb4159944ea3cd3c6c222aedc5696c4",
        "params": "e92970230acfb12bea7d6d47a67adcd9499bfe68032fcc489684c757661c1172",
    },
    "cic/without_initial": {
        "inputs": "f6effa26dd4502073a5d526d573e13dfedc329a5daf018fbf5c60aa5a842a493",
        "targets": "692042281b950e795d8b2116054e7c74fc54e1a0a301fc019d8aa432e2db0c33",
        "params": "eab23c96d2c0b1739b78458a6c5a69e371c68a702f0b256f4910d3b429c6790d",
    },
}

VLASOV_PINNED = {
    "bump_on_tail": {
        "f": "8d3e45c617565058d9fb087b4d3ec71481b8d83753e21aa94158d68d5ee32e89",
        "efield": "e0038a2860af3d2667df7cf8a7b49a127ec61a184d2b55f03d9b63a6882f35cb",
        "series": "ce321f9b3baa8852a6048cc6416262f8f2fac79b4b39bf69f14e862cf59ff833",
    },
    "cold_beam": {
        "f": "e80582298e3a1d6e05f0804eb161973caa843e939eb8990ac77fb9e95b6be0dc",
        "efield": "a6ecb91427d9c686a143fea3ecd3ffed810dab51247c3742a7c492d2d6b002a7",
        "series": "6400c6820429f574346d34edb146a1e5983933a5e4accae4b0a74b04a3e7bf0d",
    },
    "landau_damping": {
        "f": "5563a8784df955cef5a1a0b12670a14c3d6fa21cfa4e9e65ea45365e9414cfcf",
        "efield": "fd1e97c4d19e69f75cddf492a684e50d741bdaef028d505c25bfe14e86a4741b",
        "series": "4b55ac29af2dbc876bbba9b0ef5807b417266187bde2f97bd84cee411661a226",
    },
    "random_perturbation": {
        "f": "2ff487d62b1344137f67fa3eee9f0ee151e2bda06869847a4eccfe1fdf57a369",
        "efield": "a047abdf654c7b0021b927927c64e52c36994ad2ea928cd3307d011be8eb0870",
        "series": "0a20fc81f40d37f64b1c488bee8223fc99bc0ec94a087c5ec896c9a8b10981af",
    },
    "two_stream": {
        "f": "02fdb33fa49fbf093f98c6da8ceefe683c8daa379ef8308eed97f3de5f14a411",
        "efield": "e745359904b3d6e72348bfa063165480b8811393943d8128137ee0c00d0c24a6",
        "series": "54a1dfc22bf5d6d7fc8510b1f2988ed534c08c9db9eba836e56533ac183ad66c",
    },
}

VLASOV_HARVEST_PINNED = {
    "inputs": "f6315748e488d614bb2c1cfbe9bdf9b4f15374d4f3ebca6671020d4fc4087c26",
    "targets": "7f04b1ce93d8e3b490866c5a69979b501c8e740fc94192e24bacf90540f87aaa",
    "params": "fc53242fcdfb0a7c04ad2ede156d39e5443f91c54bc9210bce4c6f14cc7ea5cf",
}

VLASOV_BASE = SimulationConfig(
    solver="vlasov", n_cells=32, n_steps=20, v0=0.2, vth=0.03,
    perturbation=1e-3, extra={"n_v": 64},
)


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}:{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _series_digest(series: "dict[str, np.ndarray]") -> str:
    """sha256 over every series (sorted by name) of one run."""
    h = hashlib.sha256()
    for name in sorted(series):
        arr = np.ascontiguousarray(series[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _data_digests(data: FieldDataset) -> "dict[str, str]":
    return {
        "inputs": _digest(data.inputs),
        "targets": _digest(data.targets),
        "params": _digest(data.params),
    }


def _campaign(binning: str, include_initial_state: bool) -> CampaignConfig:
    return CampaignConfig(
        v0_values=(0.1, 0.2),
        vth_values=(0.0, 0.01),
        experiments_per_combo=1,
        base_config=SimulationConfig(n_cells=16, particles_per_cell=20, n_steps=6),
        ps_grid=PhaseSpaceGrid(n_x=8, n_v=4),
        binning=binning,
        include_initial_state=include_initial_state,
        master_seed=99,
    )


PIC_CASES = [
    (binning, include_initial_state)
    for binning in ("ngp", "cic")
    for include_initial_state in (True, False)
]


def _pic_key(binning: str, include_initial_state: bool) -> str:
    return f"{binning}/{'with' if include_initial_state else 'without'}_initial"


def _harvest(path: str, campaign: CampaignConfig) -> FieldDataset:
    if path == "run_campaign/1":
        return run_campaign(campaign, n_workers=1)
    if path == "run_campaign/2":
        return run_campaign(campaign, n_workers=2)
    return harvest_via_client(
        campaign.run_configs(), campaign.ps_grid, campaign.binning,
        campaign.include_initial_state,
    )


@pytest.mark.parametrize("path", ["run_campaign/1", "run_campaign/2", "harvest_via_client"])
@pytest.mark.parametrize("binning,include_initial_state", PIC_CASES)
def test_pic_harvest_matches_pinned(path, binning, include_initial_state):
    campaign = _campaign(binning, include_initial_state)
    assert campaign.n_simulations == 4
    got = _data_digests(_harvest(path, campaign))
    assert got == PIC_PINNED[_pic_key(binning, include_initial_state)]


def _member_series(series: "dict[str, np.ndarray]", b: int) -> "dict[str, np.ndarray]":
    """Member ``b``'s series of a batched recorder (``time`` is shared)."""
    return {
        name: arr if np.ndim(arr) == 1 else np.asarray(arr)[:, b]
        for name, arr in series.items()
    }


def test_pinned_cases_cover_every_distribution():
    assert sorted(VLASOV_PINNED) == sorted(available_distributions())


@pytest.mark.parametrize("name", sorted(VLASOV_PINNED))
def test_batch1_vlasov_engine_matches_pinned(name):
    engine = make_engine([VLASOV_BASE.with_updates(scenario=name)])
    series = engine.run(20).as_arrays()
    assert {
        "f": _digest(engine.f[0]),
        "efield": _digest(engine.efield[0]),
        "series": _series_digest(_member_series(series, 0)),
    } == VLASOV_PINNED[name]


def test_batched_vlasov_rows_match_pinned():
    """One engine over every distribution reproduces each pinned run."""
    names = sorted(VLASOV_PINNED)
    engine = make_engine([VLASOV_BASE.with_updates(scenario=n) for n in names])
    series = engine.run(20).as_arrays()
    for b, name in enumerate(names):
        assert {
            "f": _digest(engine.f[b]),
            "efield": _digest(engine.efield[b]),
            "series": _series_digest(_member_series(series, b)),
        } == VLASOV_PINNED[name], name


def _vlasov_grid() -> PhaseSpaceGrid:
    return PhaseSpaceGrid(
        n_x=32, n_v=64, box_length=VLASOV_BASE.box_length, v_min=-0.5, v_max=0.5
    )


def test_vlasov_harvest_matches_pinned():
    data = harvest_vlasov_ensemble([VLASOV_BASE], _vlasov_grid(), n_particles=5000, stride=2)
    assert _data_digests(data) == VLASOV_HARVEST_PINNED

