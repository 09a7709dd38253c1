"""Campaign shards store NGP counts narrowed, and still read older shards."""

import json

import numpy as np

from repro.config import SimulationConfig
from repro.datagen import CampaignConfig, CampaignStream, FieldDataset, run_campaign
from repro.phasespace.binning import PhaseSpaceGrid
from repro.utils.io import sha256_file


def _campaign(**overrides) -> CampaignConfig:
    base = SimulationConfig(n_cells=32, particles_per_cell=20, n_steps=6, dt=0.2)
    kwargs = dict(
        base_config=base,
        v0_values=(0.18, 0.2),
        vth_values=(0.02,),
        experiments_per_combo=2,
        ps_grid=PhaseSpaceGrid(n_x=16, n_v=8, box_length=base.box_length),
    )
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


def _stored_dtype(path) -> np.dtype:
    with np.load(path, allow_pickle=False) as archive:
        return archive["inputs"].dtype


def _assert_bitwise_equal(a: FieldDataset, b: FieldDataset) -> None:
    for name in ("inputs", "targets", "params"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def _rewrite_as_float64_savez(path) -> None:
    """Write a shard the way the writer did before counts were narrowed:
    ``np.savez_compressed`` of float64 arrays under the same keys."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["inputs"] = arrays["inputs"].astype(np.float64)
    np.savez_compressed(path, **arrays)


class TestShardEncoding:
    def test_ngp_shards_store_counts_narrowed(self, tmp_path):
        campaign = _campaign()
        shards = list(CampaignStream(campaign, tmp_path / "c", shard_size=2))
        assert all(_stored_dtype(shard.path) == np.uint8 for shard in shards)
        loaded = FieldDataset.concatenate([FieldDataset.load(s.path) for s in shards])
        _assert_bitwise_equal(loaded, run_campaign(campaign))

    def test_cic_shards_stay_float64(self, tmp_path):
        campaign = _campaign(binning="cic")
        stream = CampaignStream(campaign, tmp_path / "c", shard_size=2)
        shards = list(stream)
        assert all(_stored_dtype(shard.path) == np.float64 for shard in shards)
        loaded = FieldDataset.concatenate([FieldDataset.load(s.path) for s in shards])
        _assert_bitwise_equal(loaded, run_campaign(campaign))

    def test_campaign_written_before_narrowing_resumes(self, tmp_path):
        campaign = _campaign()
        out = tmp_path / "c"
        CampaignStream(campaign, out, shard_size=2).run()
        old, damaged = sorted(out.glob("shard-*.npz"))
        _rewrite_as_float64_savez(old)
        assert _stored_dtype(old) == np.float64
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"]["0"]["sha256"] = sha256_file(old)
        manifest_path.write_text(json.dumps(manifest))
        with open(damaged, "r+b") as fh:
            fh.truncate(64)

        stream = CampaignStream(campaign, out, shard_size=2)
        shards = list(stream)
        assert [s.status for s in shards] == ["verified", "repaired"]
        assert shards[0].sha256 == manifest["shards"]["0"]["sha256"]
        assert _stored_dtype(shards[0].path) == np.float64
        assert _stored_dtype(shards[1].path) == np.uint8
        reference = run_campaign(campaign)
        first = shards[0].load()
        _assert_bitwise_equal(first, reference.subset(np.arange(len(first))))
        _assert_bitwise_equal(CampaignStream(campaign, out, shard_size=2).dataset(), reference)
