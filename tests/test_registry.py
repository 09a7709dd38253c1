"""Content-addressed model registry + registry: references end to end."""

import json

import numpy as np
import pytest

from repro.api import Client, RunRequest
from repro.config import SimulationConfig
from repro.dlpic import DLFieldSolver
from repro.models.architectures import build_mlp
from repro.obs import PROCESS_METRICS, total
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.registry import (
    REGISTRY_ENV,
    ModelRegistry,
    resolve_model_dir,
)


def small_config(**overrides) -> SimulationConfig:
    kwargs = dict(n_cells=32, particles_per_cell=20, n_steps=6, dt=0.2)
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


def tiny_solver(rng: int = 0) -> DLFieldSolver:
    config = small_config()
    grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
    model = build_mlp(
        input_size=grid.size, output_size=config.n_cells, hidden_size=8, rng=rng
    )
    return DLFieldSolver(
        model, grid, MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 50.0})
    )


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestRegister:
    def test_register_and_get_by_prefix(self, registry):
        solver = tiny_solver()
        entry = registry.register(solver)
        assert entry.fingerprint == solver.fingerprint()
        assert (entry.path / "model.npz").exists()
        assert (entry.path / "solver.json").exists()
        assert registry.get(entry.fingerprint[:8]).fingerprint == entry.fingerprint
        assert entry.fingerprint[:8] in registry

    def test_register_is_idempotent(self, registry):
        solver = tiny_solver()
        first = registry.register(solver, training={"lr": 1e-3})
        again = registry.register(solver)
        assert again.fingerprint == first.fingerprint
        assert len(registry) == 1
        # The original lineage survives the no-op re-registration.
        assert again.lineage["training"] == {"lr": 1e-3}

    def test_lineage_recorded(self, registry):
        entry = registry.register(
            tiny_solver(),
            campaign_manifest_hash="deadbeef" * 8,
            training={"epochs": 40, "loss": "mse"},
            metrics={"val_mae": 0.01},
        )
        meta = json.loads((entry.path / "meta.json").read_text())
        assert meta["lineage"]["campaign_manifest_hash"] == "deadbeef" * 8
        assert meta["lineage"]["training"]["epochs"] == 40
        assert meta["lineage"]["metrics"]["val_mae"] == 0.01
        assert meta["fingerprint"] == entry.fingerprint

    def test_ambiguous_prefix_rejected(self, registry):
        import shutil

        entry = registry.register(tiny_solver())
        twin = entry.fingerprint[:8] + "f" * (len(entry.fingerprint) - 8)
        if twin == entry.fingerprint:  # pragma: no cover — 2^-224 odds
            twin = entry.fingerprint[:8] + "0" * (len(entry.fingerprint) - 8)
        shutil.copytree(entry.path, registry.models_dir / twin)
        with pytest.raises(ValueError, match="ambiguous"):
            registry.get(entry.fingerprint[:8])
        with pytest.raises(KeyError, match="no model"):
            registry.get("zzzz")
        with pytest.raises(ValueError, match="empty"):
            registry.get("")

    def test_registered_solver_round_trips(self, registry):
        solver = tiny_solver()
        loaded = registry.register(solver).load()
        assert loaded.fingerprint() == solver.fingerprint()

    def test_gauge_tracks_model_count(self, registry):
        registry.register(tiny_solver(rng=0))
        registry.register(tiny_solver(rng=1))
        registry.list()
        assert total(PROCESS_METRICS.snapshot(), "repro_registry_models") == 2


class TestVerifyAndGc:
    def test_intact_model_verifies(self, registry):
        entry = registry.register(tiny_solver())
        assert registry.verify(entry.fingerprint[:8]) is True

    def test_corrupt_weights_fail_verification(self, registry):
        entry = registry.register(tiny_solver())
        weights = entry.path / "model.npz"
        weights.write_bytes(weights.read_bytes()[:-20])
        assert registry.verify(entry.fingerprint) is False

    def test_gc_removes_corrupt_and_keeps_intact(self, registry):
        keep = registry.register(tiny_solver(rng=0))
        drop = registry.register(tiny_solver(rng=1))
        (drop.path / "solver.json").unlink()
        removed = registry.gc()
        assert removed == [drop.fingerprint]
        assert [m.fingerprint for m in registry.list()] == [keep.fingerprint]
        assert registry.verify(keep.fingerprint)

    def test_gc_sweeps_stray_temp_dirs(self, registry):
        registry.models_dir.mkdir(parents=True)
        (registry.models_dir / ".tmp-123-0").mkdir()
        assert registry.gc() == [".tmp-123-0"]


class TestReferences:
    def test_plain_paths_pass_through(self):
        assert resolve_model_dir("checkpoints/mlp") == "checkpoints/mlp"

    def test_explicit_root_form(self, registry):
        entry = registry.register(tiny_solver())
        ref = f"registry:{registry.root}:{entry.fingerprint[:10]}"
        assert resolve_model_dir(ref) == str(entry.path)

    def test_bare_prefix_uses_env_root(self, registry, monkeypatch):
        entry = registry.register(tiny_solver())
        monkeypatch.setenv(REGISTRY_ENV, str(registry.root))
        assert resolve_model_dir(f"registry:{entry.fingerprint[:10]}") == str(
            entry.path
        )

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty registry reference"):
            resolve_model_dir("registry:")

    def test_load_auto_accepts_refs(self, registry):
        solver = tiny_solver()
        entry = registry.register(solver)
        ref = f"registry:{registry.root}:{entry.fingerprint[:10]}"
        assert DLFieldSolver.load_auto(ref).fingerprint() == solver.fingerprint()


class TestEndToEnd:
    """A registered model served through every execution path.

    The acceptance loop: register a checkpoint, reference it as
    ``registry:<root>:<prefix>`` in ``model_dir=``, and assert the
    served :class:`RunResult` carries the model fingerprint in its
    metadata — inline, across the spawned worker pool, and over HTTP.
    """

    def test_inline_client_resolves_ref_and_stamps_fingerprint(self, registry):
        solver = tiny_solver()
        fingerprint = registry.register(solver).fingerprint
        ref = f"registry:{registry.root}:{fingerprint[:10]}"
        config = small_config(solver="dl")
        with Client(background=False, model_dir=ref) as client:
            result = client.run(RunRequest(config=config, id="reg-inline"))
        assert result.ok
        assert result.metadata["model_fingerprint"] == fingerprint
        # The prediction matches the solver loaded directly.
        with Client(background=False, dl_solver=solver) as client:
            direct = client.run(RunRequest(config=config, id="reg-direct"))
        assert np.array_equal(result.series["mode1"], direct.series["mode1"])

    def test_non_dl_results_carry_no_fingerprint(self, registry):
        fingerprint = registry.register(tiny_solver()).fingerprint
        ref = f"registry:{registry.root}:{fingerprint[:10]}"
        with Client(background=False, model_dir=ref) as client:
            result = client.run(
                RunRequest(config=small_config(), id="reg-trad")
            )
        assert result.ok
        assert "model_fingerprint" not in result.metadata

    def test_ref_crosses_spawned_worker_pool(self, registry):
        fingerprint = registry.register(tiny_solver()).fingerprint
        # Explicit-root form: spawned workers resolve it with no env.
        ref = f"registry:{registry.root}:{fingerprint[:10]}"
        config = small_config(solver="dl")
        with Client(background=False, model_dir=ref, workers=2) as client:
            result = client.run(RunRequest(config=config, id="reg-pool"))
        assert result.ok
        assert result.metadata["model_fingerprint"] == fingerprint

    def test_campaign_trained_model_carries_lineage(self, registry, tmp_path):
        """The full loop: stream a campaign, train on it, register with
        the campaign hash, serve through the ref, trace the result back."""
        from repro.datagen import CampaignConfig, CampaignStream

        config = small_config()
        grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
        campaign = CampaignConfig(
            base_config=config, v0_values=(0.2,), vth_values=(0.02,),
            experiments_per_combo=1, ps_grid=grid,
        )
        stream = CampaignStream(campaign, tmp_path / "camp", shard_size=2)
        data = stream.dataset()
        # "Training" here is fitting the preprocessing to the streamed
        # data — enough to make the checkpoint campaign-derived.
        normalizer = MinMaxNormalizer().fit(data.flat_inputs())
        model = build_mlp(
            input_size=grid.size, output_size=config.n_cells,
            hidden_size=8, rng=0,
        )
        solver = DLFieldSolver(model, grid, normalizer)
        entry = registry.register(
            solver, campaign_manifest_hash=stream.campaign_hash,
            training={"epochs": 0},
        )
        assert entry.lineage["campaign_manifest_hash"] == stream.campaign_hash
        ref = f"registry:{registry.root}:{entry.fingerprint[:10]}"
        with Client(background=False, model_dir=ref) as client:
            result = client.run(
                RunRequest(config=small_config(solver="dl"), id="lineage")
            )
        assert result.ok
        # Result -> fingerprint -> registry entry -> campaign hash.
        traced = registry.get(result.metadata["model_fingerprint"])
        assert traced.lineage["campaign_manifest_hash"] == stream.campaign_hash

    def test_ref_served_over_http(self, registry):
        from repro.server.app import serve_in_thread

        fingerprint = registry.register(tiny_solver()).fingerprint
        ref = f"registry:{registry.root}:{fingerprint[:10]}"
        config = small_config(solver="dl")
        with serve_in_thread(model_dir=ref) as server:
            with Client.connect(server.url) as client:
                result = client.run(RunRequest(config=config, id="reg-http"))
        assert result.ok
        assert result.metadata["model_fingerprint"] == fingerprint
