"""Experiment harness at the fast preset (full pipeline, tiny scale)."""

import hashlib
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    fast_preset,
    format_table1,
    run_fig4,
    run_fig5,
    run_fig6,
    run_table1,
    train_solvers,
)
from repro.experiments.pipeline import _stream, medium_preset
from repro.experiments.runs import run_pair, run_traditional
from repro.obs.metrics import PROCESS_METRICS, total
from repro.registry import ModelRegistry


@pytest.fixture(scope="module")
def fast_solvers():
    """Train the fast preset once for the whole module (seconds)."""
    return train_solvers(fast_preset(), cache_dir=None, include_cnn=True)


class TestPreset:
    def test_validation_config_inherits_campaign_resolution(self):
        p = fast_preset()
        cfg = p.validation_config()
        assert cfg.particles_per_cell == p.campaign.base_config.particles_per_cell
        assert cfg.v0 == 0.2
        assert cfg.vth == 0.025

    def test_coldbeam_config(self):
        cfg = fast_preset().coldbeam_config()
        assert cfg.v0 == 0.4
        assert cfg.vth == 0.0

    def test_test2_parameters_unseen(self):
        p = fast_preset()
        assert not set(p.test2_v0) & set(p.campaign.v0_values)


class TestPipeline:
    def test_solvers_trained(self, fast_solvers):
        assert fast_solvers.mlp_solver is not None
        assert fast_solvers.cnn_solver is not None
        assert fast_solvers.mlp_history.n_epochs == fast_preset().mlp_epochs

    def test_split_sizes(self, fast_solvers):
        p = fast_preset()
        assert len(fast_solvers.val) == p.n_val
        assert len(fast_solvers.test) == p.n_test
        assert len(fast_solvers.test2) == p.n_test2

    def test_normalizer_fitted_on_training_inputs(self, fast_solvers):
        norm = fast_solvers.mlp_solver.normalizer
        assert norm.minimum == 0.0  # histograms always contain empty bins
        assert norm.maximum >= fast_solvers.train.inputs.max()

    def test_caching_roundtrip(self, tmp_path):
        p = fast_preset()
        first = train_solvers(p, cache_dir=tmp_path, include_cnn=False)
        second = train_solvers(p, cache_dir=tmp_path, include_cnn=False)
        x = first.test.flat_inputs()[:4]
        xn = first.mlp_solver.normalizer.transform(x)
        np.testing.assert_allclose(
            second.mlp_solver.model.predict(xn), first.mlp_solver.model.predict(xn)
        )
        np.testing.assert_array_equal(second.test.inputs, first.test.inputs)


# The fast preset's networks and datasets, recorded before the pipeline
# moved onto the campaign stream and the model registry.  Each dataset
# digest is sha256 over its inputs, targets and params bytes, in order.
PINNED_FINGERPRINTS = {
    "mlp": "41143bc7dc8a0daf3f4f21b20cf4a99155445ea97efaa95d3a2fe12de07e8416",
    "cnn": "63010e378a8a2512b7158e8b79c8a01dcaf4cd6ee1d5b4ee3d942d6a6c49b9b6",
}
PINNED_DATASETS = {
    "train": "a393dbe4fe31fde8e4f947e19f780fa2df91497ec8a6931473260151308021d0",
    "val": "f2d40ed8abf59efb3cf72845f8761b9184fd6e6c7c2f65b0177f8b9a2170620b",
    "test": "0629eea5bcd652afaa450e0821a3d2331b0d3006172cd3f72eaa94136d3bb4fd",
    "test2": "4befb0b68a1cc6b05d0a08f0a7047e9742fbbbcf14080cd445b1bc5cc3931d6b",
}


def _dataset_digest(dataset):
    h = hashlib.sha256()
    for values in (dataset.inputs, dataset.targets, dataset.params):
        h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def _assert_pinned(solvers):
    assert solvers.mlp_solver.fingerprint() == PINNED_FINGERPRINTS["mlp"]
    assert solvers.cnn_solver.fingerprint() == PINNED_FINGERPRINTS["cnn"]
    for name, digest in PINNED_DATASETS.items():
        assert _dataset_digest(getattr(solvers, name)) == digest, name


class TestPipelinePins:
    def test_in_memory(self, fast_solvers):
        _assert_pinned(fast_solvers)

    def test_cold_and_warm_cache(self, tmp_path):
        _assert_pinned(train_solvers(fast_preset(), cache_dir=tmp_path))
        _assert_pinned(train_solvers(fast_preset(), cache_dir=tmp_path))


def _executed_shards():
    return total(
        PROCESS_METRICS.snapshot(), "repro_campaign_shards_total", status="executed"
    )


class TestCacheContract:
    """The pipeline keys its networks by every preset field but the name."""

    def test_any_knob_change_retrains(self, tmp_path):
        default = train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        tweaked = train_solvers(
            replace(fast_preset(), mlp_epochs=1, learning_rate=0.5),
            cache_dir=tmp_path, include_cnn=False,
        )
        assert tweaked.mlp_history is not None
        assert tweaked.mlp_history.n_epochs == 1
        assert tweaked.mlp_solver.fingerprint() != default.mlp_solver.fingerprint()

    def test_width_change_trains_instead_of_raising(self, tmp_path):
        train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        wide = train_solvers(
            replace(fast_preset(), mlp_hidden=32), cache_dir=tmp_path, include_cnn=False
        )
        assert wide.mlp_history is not None
        assert wide.mlp_solver.model.state_dict()["0.W"].shape == (512, 32)

    def test_cnn_after_mlp_only_reuses_the_mlp(self, tmp_path):
        train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        both = train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=True)
        assert both.mlp_history is None  # loaded from the registry
        assert both.cnn_history is not None
        _assert_pinned(both)

    def test_repeat_call_trains_and_simulates_nothing(self, tmp_path):
        before = _executed_shards()
        first = train_solvers(fast_preset(), cache_dir=tmp_path)
        cold = _executed_shards()
        second = train_solvers(fast_preset(), cache_dir=tmp_path)
        assert cold > before  # the cold call streams its campaigns
        assert _executed_shards() == cold
        assert second.mlp_history is None and second.cnn_history is None
        assert first.mlp_history is not None and first.cnn_history is not None
        assert second.campaign_hash == first.campaign_hash

    def test_presets_with_equal_weights_share_one_entry(self, tmp_path):
        a = fast_preset()
        b = replace(a, n_test2=30)
        first_a = train_solvers(a, cache_dir=tmp_path, include_cnn=False)
        first_b = train_solvers(b, cache_dir=tmp_path, include_cnn=False)
        assert first_a.mlp_history is not None and first_b.mlp_history is not None
        assert first_a.mlp_solver.fingerprint() == first_b.mlp_solver.fingerprint()
        assert len(ModelRegistry(tmp_path / "registry")) == 1
        for preset in (a, b):
            again = train_solvers(preset, cache_dir=tmp_path, include_cnn=False)
            assert again.mlp_history is None
            assert len(again.test2) == preset.n_test2

    def test_pointer_to_a_deleted_entry_retrains(self, tmp_path):
        first = train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        registry = ModelRegistry(tmp_path / "registry")
        shutil.rmtree(registry.get(first.mlp_solver.fingerprint()).path)
        again = train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        assert again.mlp_history is not None
        assert again.mlp_solver.fingerprint() == PINNED_FINGERPRINTS["mlp"]
        assert first.mlp_solver.fingerprint() in registry

    def test_truncated_entry_is_retrained_and_replaced(self, tmp_path):
        train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        registry = ModelRegistry(tmp_path / "registry")
        weights = registry.get(PINNED_FINGERPRINTS["mlp"]).path / "model.npz"
        weights.write_bytes(weights.read_bytes()[:100])
        again = train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        assert again.mlp_history is not None
        assert again.mlp_solver.fingerprint() == PINNED_FINGERPRINTS["mlp"]
        assert registry.verify(PINNED_FINGERPRINTS["mlp"])
        third = train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        assert third.mlp_history is None

    def test_entry_whose_weights_changed_is_retrained(self, tmp_path):
        train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        registry = ModelRegistry(tmp_path / "registry")
        weights = registry.get(PINNED_FINGERPRINTS["mlp"]).path / "model.npz"
        with np.load(weights) as archive:
            arrays = dict(archive)
        arrays["0.W"] = arrays["0.W"] + 1.0  # still loads, hashes elsewhere
        np.savez_compressed(weights, **arrays)
        again = train_solvers(fast_preset(), cache_dir=tmp_path, include_cnn=False)
        assert again.mlp_history is not None
        assert again.mlp_solver.fingerprint() == PINNED_FINGERPRINTS["mlp"]
        assert registry.verify(PINNED_FINGERPRINTS["mlp"])

    def test_workers_each_get_one_ensemble_in_flight(self, tmp_path):
        # harvest_via_client's grouping: the medium sweep's 20 runs form
        # one ensemble per worker, and every run is in flight at once.
        campaign = medium_preset().campaign
        for n_workers, size in ((2, 10), (4, 5)):
            stream = _stream(campaign, tmp_path, n_workers)
            assert stream._max_batch_size == size
            assert stream.prefetch_depth * stream.shard_size >= campaign.n_simulations

    def test_registry_lineage_names_the_campaign(self, tmp_path):
        solvers = train_solvers(fast_preset(), cache_dir=tmp_path)
        manifest = tmp_path / "campaigns" / solvers.campaign_hash / "manifest.json"
        assert json.loads(manifest.read_text())["campaign_hash"] == solvers.campaign_hash
        registry = ModelRegistry(tmp_path / "registry")
        for kind, solver in (("mlp", solvers.mlp_solver), ("cnn", solvers.cnn_solver)):
            lineage = registry.get(solver.fingerprint()).lineage
            assert lineage["campaign_manifest_hash"] == solvers.campaign_hash
            assert lineage["training"]["network"] == kind
            history = lineage["training"]["history"]
            assert history["loss"] == (
                solvers.mlp_history if kind == "mlp" else solvers.cnn_history
            ).loss


class TestTable1:
    def test_rows_cover_both_networks_and_sets(self, fast_solvers):
        rows = run_table1(fast_solvers)
        keys = {(r.network, r.test_set) for r in rows}
        assert keys == {("MLP", "I"), ("MLP", "II"), ("CNN", "I"), ("CNN", "II")}

    def test_metrics_sane(self, fast_solvers):
        for row in run_table1(fast_solvers):
            assert 0 < row.mae < 1.0
            assert row.max_error >= row.mae

    def test_formatting(self, fast_solvers):
        text = format_table1(run_table1(fast_solvers))
        assert "MLP" in text and "CNN" in text
        assert "Mean Absolute Error" in text
        assert "Max Error" in text

    def test_mlp_only_formatting(self, fast_solvers):
        from repro.experiments.table1 import Table1Row

        rows = [Table1Row("MLP", "I", 0.001, 0.01)]
        text = format_table1(rows)
        assert "-" in text  # CNN column shows placeholder


class TestRunHelpers:
    def test_run_traditional_outputs(self, fast_solvers):
        cfg = fast_preset().validation_config().with_updates(n_steps=10)
        run = run_traditional(cfg, n_steps=10)
        assert run.series["time"].shape == (11,)
        assert run.final_x.shape == (cfg.n_particles,)

    def test_run_pair_shares_config(self, fast_solvers):
        cfg = fast_preset().validation_config().with_updates(n_steps=5)
        trad, dl = run_pair(cfg, fast_solvers.mlp_solver, n_steps=5)
        assert trad.config == dl.config
        assert trad.label != dl.label


class TestFigures:
    def test_fig4_structure(self, fast_solvers):
        cfg = fast_preset().validation_config().with_updates(n_steps=60)
        r = run_fig4(fast_solvers.mlp_solver, cfg, n_steps=60)
        assert r.gamma_theory == pytest.approx(0.3536, rel=1e-3)
        assert r.time.shape == r.e1_traditional.shape == r.e1_dl.shape
        assert np.isfinite(r.fit_traditional.gamma)
        assert np.isfinite(r.fit_dl.gamma)
        assert "gamma" in r.summary()

    def test_fig4_explicit_window(self, fast_solvers):
        cfg = fast_preset().validation_config().with_updates(n_steps=40)
        r = run_fig4(fast_solvers.mlp_solver, cfg, n_steps=40, fit_window=(1.0, 7.0))
        assert r.fit_traditional.t_start == 1.0
        assert r.fit_dl.t_end == 7.0

    def test_fig5_structure(self, fast_solvers):
        cfg = fast_preset().validation_config().with_updates(n_steps=40)
        r = run_fig5(fast_solvers.mlp_solver, cfg, n_steps=40)
        assert r.energy_variation_traditional < 0.05
        # Traditional PIC conserves momentum to round-off; DL does not.
        assert abs(r.momentum_drift_traditional) < 1e-10
        assert r.total_energy_traditional.shape == r.time.shape
        assert "momentum" in r.summary()

    def test_fig6_structure(self, fast_solvers):
        cfg = fast_preset().coldbeam_config().with_updates(n_steps=40)
        r = run_fig6(fast_solvers.mlp_solver, cfg, n_steps=40)
        assert r.metrics_traditional.max_spread >= 0
        assert r.metrics_dl.max_spread >= 0
        assert "cold-beam" in r.summary()

    def test_fig6_rejects_warm_beams(self, fast_solvers):
        cfg = fast_preset().validation_config()
        with pytest.raises(ValueError, match="cold"):
            run_fig6(fast_solvers.mlp_solver, cfg)
