"""Streaming campaign pipeline: parity, resume, repair, memory bound."""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.datagen import (
    CampaignConfig,
    CampaignStream,
    FieldDataset,
    campaign_hash,
    run_campaign,
)
from repro.obs import PROCESS_METRICS, total
from repro.phasespace.binning import PhaseSpaceGrid


def tiny_campaign(**overrides) -> CampaignConfig:
    base = SimulationConfig(n_cells=32, particles_per_cell=20, n_steps=6, dt=0.2)
    grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=base.box_length)
    kwargs = dict(
        base_config=base,
        v0_values=(0.18, 0.2),
        vth_values=(0.02,),
        experiments_per_combo=2,
        ps_grid=grid,
    )
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


@pytest.fixture
def campaign():
    return tiny_campaign()


@pytest.fixture
def reference(campaign):
    """The materializing harvest the stream must match bitwise."""
    return run_campaign(campaign)


def assert_bitwise_equal(a: FieldDataset, b: FieldDataset) -> None:
    assert a.inputs.dtype == b.inputs.dtype
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.params, b.params)


class TestStreamingParity:
    def test_bitwise_identical_to_materializing_harvest(
        self, campaign, reference, tmp_path
    ):
        stream = CampaignStream(campaign, tmp_path / "c", shard_size=3)
        assert_bitwise_equal(stream.dataset(), reference)
        assert stream.stats["shards_executed"] == 2
        assert stream.stats["runs_executed"] == campaign.n_simulations

    def test_parity_independent_of_shard_size(self, campaign, reference, tmp_path):
        for shard_size in (1, 2, 4):
            stream = CampaignStream(
                campaign, tmp_path / f"s{shard_size}", shard_size=shard_size
            )
            assert_bitwise_equal(stream.dataset(), reference)

    def test_shards_yielded_in_plan_order_with_durable_files(
        self, campaign, tmp_path
    ):
        stream = CampaignStream(campaign, tmp_path / "c", shard_size=3)
        shards = list(stream)
        assert [s.index for s in shards] == [0, 1]
        assert [s.n_runs for s in shards] == [3, 1]
        for shard in shards:
            assert shard.path.exists()
            assert shard.status == "executed"
            assert_bitwise_equal(shard.load(), FieldDataset.load(shard.path))

    def test_manifest_records_every_shard(self, campaign, tmp_path):
        stream = CampaignStream(campaign, tmp_path / "c", shard_size=3)
        stream.run()
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["campaign_hash"] == stream.campaign_hash
        assert manifest["n_shards"] == 2
        assert set(manifest["shards"]) == {"0", "1"}
        for entry in manifest["shards"].values():
            assert set(entry) == {"file", "sha256", "n_runs", "n_samples"}


class TestResume:
    def test_completed_campaign_resumes_without_executing(
        self, campaign, reference, tmp_path
    ):
        CampaignStream(campaign, tmp_path / "c", shard_size=3).run()
        stream = CampaignStream(campaign, tmp_path / "c", shard_size=3)
        data = stream.dataset()
        assert stream.stats["runs_executed"] == 0
        assert stream.stats["shards_verified"] == 2
        assert stream.stats["runs_skipped"] == campaign.n_simulations
        assert_bitwise_equal(data, reference)

    def test_truncated_shard_is_repaired_bitwise(
        self, campaign, reference, tmp_path
    ):
        CampaignStream(campaign, tmp_path / "c", shard_size=2).run()
        shards = sorted((tmp_path / "c").glob("shard-*.npz"))
        with open(shards[-1], "r+b") as fh:  # simulate a mid-write crash
            fh.truncate(64)
        stream = CampaignStream(campaign, tmp_path / "c", shard_size=2)
        data = stream.dataset()
        # Only the damaged shard re-executed; the intact ones verified.
        assert stream.stats["shards_repaired"] == 1
        assert stream.stats["shards_verified"] == 1
        assert stream.stats["runs_executed"] == 2
        assert stream.stats["runs_skipped"] == 2
        assert_bitwise_equal(data, reference)

    def test_deleted_shard_is_re_requested(self, campaign, reference, tmp_path):
        CampaignStream(campaign, tmp_path / "c", shard_size=2).run()
        sorted((tmp_path / "c").glob("shard-*.npz"))[0].unlink()
        stream = CampaignStream(campaign, tmp_path / "c", shard_size=2)
        assert_bitwise_equal(stream.dataset(), reference)
        assert stream.stats["shards_repaired"] == 1

    def test_status_reports_partial_progress(self, campaign, tmp_path):
        stream = CampaignStream(campaign, tmp_path / "c", shard_size=2)
        status = stream.status()
        assert status["shards_intact"] == 0 and not status["complete"]
        stream.run()
        status = stream.status()
        assert status["shards_intact"] == status["n_shards"] == 2
        assert status["complete"]

    def test_different_campaign_rejected(self, campaign, tmp_path):
        CampaignStream(campaign, tmp_path / "c", shard_size=2).run()
        other = tiny_campaign(v0_values=(0.19, 0.21))
        stream = CampaignStream(other, tmp_path / "c", shard_size=2)
        with pytest.raises(ValueError, match="different campaign"):
            stream.run()

    def test_shard_size_is_part_of_campaign_identity(self, campaign, tmp_path):
        assert campaign_hash(campaign, 2) != campaign_hash(campaign, 3)
        CampaignStream(campaign, tmp_path / "c", shard_size=2).run()
        with pytest.raises(ValueError, match="different campaign"):
            CampaignStream(campaign, tmp_path / "c", shard_size=3).run()

    def test_resume_false_overwrites(self, campaign, reference, tmp_path):
        CampaignStream(campaign, tmp_path / "c", shard_size=2).run()
        stream = CampaignStream(
            campaign, tmp_path / "c", shard_size=2, resume=False
        )
        data = stream.dataset()
        assert stream.stats["shards_executed"] == 2
        assert stream.stats["shards_verified"] == 0
        assert_bitwise_equal(data, reference)


class TestMemoryBound:
    def test_inflight_runs_bounded_by_shard_size_times_prefetch(
        self, campaign, tmp_path
    ):
        stream = CampaignStream(
            campaign, tmp_path / "c", shard_size=1, prefetch_depth=2
        )
        stream.run()
        assert stream.stats["max_inflight_runs"] <= 1 * 2
        assert stream.stats["shards_executed"] == campaign.n_simulations

    def test_validates_bounds(self, campaign, tmp_path):
        with pytest.raises(ValueError, match="shard_size"):
            CampaignStream(campaign, tmp_path / "c", shard_size=0)
        with pytest.raises(ValueError, match="prefetch_depth"):
            CampaignStream(campaign, tmp_path / "c", prefetch_depth=0)


class TestMetrics:
    def test_shard_statuses_reach_the_global_counters(self, campaign, tmp_path):
        def shards_by_status():
            snapshot = PROCESS_METRICS.snapshot()
            counts = {
                status: total(snapshot, "repro_campaign_shards_total", status=status)
                for status in ("executed", "repaired", "verified")
            }
            counts["total"] = total(snapshot, "repro_campaign_shards_total")
            return counts

        before = shards_by_status()
        CampaignStream(campaign, tmp_path / "c", shard_size=2).run()
        shards = sorted((tmp_path / "c").glob("shard-*.npz"))
        with open(shards[0], "r+b") as fh:
            fh.truncate(64)
        CampaignStream(campaign, tmp_path / "c", shard_size=2).run()
        after = shards_by_status()
        assert {status: after[status] - before[status] for status in after} == {
            "executed": 2, "repaired": 1, "verified": 1, "total": 4,
        }


class TestDatasetDtype:
    def test_float32_pairs_preserved(self):
        grid = PhaseSpaceGrid(n_x=4, n_v=3, box_length=1.0)
        data = FieldDataset(
            inputs=np.zeros((2, 3, 4), dtype=np.float32),
            targets=np.zeros((2, 8), dtype=np.float32),
            params=np.zeros((2, 4), dtype=np.float32),
            ps_grid=grid,
        )
        assert data.inputs.dtype == np.float32
        assert data.targets.dtype == np.float32
        assert data.params.dtype == np.float64  # provenance stays float64

    def test_float64_and_integer_inputs_unchanged(self):
        grid = PhaseSpaceGrid(n_x=4, n_v=3, box_length=1.0)
        counts = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
        data = FieldDataset(
            inputs=counts,
            targets=np.ones((2, 8)),
            params=np.zeros((2, 4)),
            ps_grid=grid,
        )
        assert data.inputs.dtype == np.float64
        assert np.array_equal(data.inputs, counts.astype(np.float64))
        assert data.targets.dtype == np.float64

    def test_float32_survives_save_load(self, tmp_path):
        grid = PhaseSpaceGrid(n_x=4, n_v=3, box_length=1.0)
        data = FieldDataset(
            inputs=np.random.default_rng(0).random((2, 3, 4)).astype(np.float32),
            targets=np.random.default_rng(1).random((2, 8)).astype(np.float32),
            params=np.zeros((2, 4)),
            ps_grid=grid,
        )
        loaded = FieldDataset.load(data.save(tmp_path / "d.npz"))
        assert loaded.inputs.dtype == np.float32
        assert np.array_equal(loaded.inputs, data.inputs)
        assert np.array_equal(loaded.targets, data.targets)
