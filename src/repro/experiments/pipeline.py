"""The shared Sec. IV pipeline, kept in the repo's content-addressed stores.

All paper experiments need the same expensive prerequisite: a training
campaign and two trained networks.  :func:`train_solvers` runs the full
Sec. IV pipeline (sweep -> shuffle/split -> Eq. 5 normalization -> Adam
training of the MLP and CNN) and keeps its artifacts under one root::

    <root>/campaigns/<campaign hash>/     # CampaignStream shards + manifest.json
    <root>/registry/models/<fingerprint>/ # ModelRegistry checkpoints + lineage
    <root>/presets/<preset hash>.json     # the fingerprints a preset trained

A repeat call verifies the shards instead of running them.  The preset
hash covers every :class:`ExperimentPreset` field except ``name``, so
any knob change retrains.  The pointer file is needed because the
registry stores identical weights once, whichever preset trained them.

Three presets scale the identical pipeline: ``paper`` (full 40k-sample
sweep, 1024-wide networks, 150/100 epochs — hours on CPU), ``medium``
(the benchmark default — minutes) and ``fast`` (seconds, for tests).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro import constants
from repro.config import SimulationConfig
from repro.datagen.campaign import CampaignConfig, _ensemble_size
from repro.datagen.dataset import FieldDataset
from repro.datagen.presets import fast_campaign, medium_campaign, paper_campaign
from repro.datagen.stream import CampaignStream, campaign_hash
from repro.dlpic.solver import DLFieldSolver
from repro.models.architectures import build_cnn, build_mlp
from repro.nn.losses import MSELoss
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer, TrainingHistory
from repro.phasespace.normalization import MinMaxNormalizer
from repro.registry import ModelRegistry
from repro.utils.io import atomic_write

#: Default artifact cache location (created on demand).
DEFAULT_CACHE = Path(__file__).resolve().parents[3] / ".artifacts"

# Runs per campaign shard; part of the campaign hash, so fixed.
_SHARD_SIZE = 8


@dataclass(frozen=True)
class ExperimentPreset:
    """Scale knobs of the shared pipeline (physics is never changed)."""

    name: str
    campaign: CampaignConfig
    mlp_hidden: int
    mlp_epochs: int
    cnn_channels: tuple[int, int]
    cnn_hidden: int
    cnn_epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-4
    n_val: int = 1000
    n_test: int = 1000
    test2_v0: tuple[float, ...] = (0.2, 0.25)
    test2_vth: tuple[float, ...] = (0.0025, 0.025)
    n_test2: int = 1000
    train_seed: int = 2021

    def validation_config(self, seed: int = 9001) -> SimulationConfig:
        """Figs. 4-5 run derived from the campaign's base config.

        Must share ``particles_per_cell`` with the campaign: histogram
        counts scale with particle number and the normalizer is frozen
        on training statistics.
        """
        return self.campaign.base_config.with_updates(
            v0=constants.PAPER_VALIDATION_V0,
            vth=constants.PAPER_VALIDATION_VTH,
            seed=seed,
        )

    def coldbeam_config(self, seed: int = 9002) -> SimulationConfig:
        """Fig. 6 cold-beam run derived from the campaign's base config."""
        return self.campaign.base_config.with_updates(
            v0=constants.PAPER_COLDBEAM_V0,
            vth=constants.PAPER_COLDBEAM_VTH,
            seed=seed,
        )


def paper_preset() -> ExperimentPreset:
    """The paper's exact configuration (expensive on CPU)."""
    return ExperimentPreset(
        name="paper",
        campaign=paper_campaign(),
        mlp_hidden=1024,
        mlp_epochs=150,
        cnn_channels=(16, 32),
        cnn_hidden=1024,
        cnn_epochs=100,
    )


def medium_preset() -> ExperimentPreset:
    """Benchmark-scale preset: same pipeline, minutes of CPU."""
    return ExperimentPreset(
        name="medium",
        campaign=medium_campaign(),
        mlp_hidden=512,
        mlp_epochs=120,
        cnn_channels=(8, 16),
        cnn_hidden=256,
        cnn_epochs=15,
        learning_rate=2e-4,
        n_val=250,
        n_test=250,
        test2_v0=(0.2, 0.12),
        test2_vth=(0.0025,),
        n_test2=400,
    )


def fast_preset() -> ExperimentPreset:
    """Test-scale preset: seconds of CPU."""
    return ExperimentPreset(
        name="fast",
        campaign=fast_campaign(),
        mlp_hidden=64,
        mlp_epochs=8,
        cnn_channels=(2, 4),
        cnn_hidden=32,
        cnn_epochs=3,
        learning_rate=1e-3,
        n_val=20,
        n_test=20,
        test2_v0=(0.2,),
        test2_vth=(0.0025,),
        n_test2=60,
    )


@dataclass
class TrainedSolvers:
    """Everything downstream experiments need, post-training.

    ``campaign_hash`` is the training campaign's manifest hash.  A
    history is ``None`` when its network came from the registry.
    """

    preset: ExperimentPreset
    mlp_solver: DLFieldSolver
    cnn_solver: "DLFieldSolver | None"
    train: FieldDataset
    val: FieldDataset
    test: FieldDataset
    test2: FieldDataset
    campaign_hash: str
    mlp_history: "TrainingHistory | None" = None
    cnn_history: "TrainingHistory | None" = None


def _preset_hash(preset: ExperimentPreset) -> str:
    """sha256 over every preset field except ``name``."""
    payload = {f.name: getattr(preset, f.name) for f in fields(preset) if f.name != "name"}
    payload["campaign"] = preset.campaign.to_canonical_dict()
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _stream(campaign: CampaignConfig, root: Path, n_workers: int = 1) -> CampaignStream:
    """The campaign's stream into its content-addressed shard directory.

    One worker streams shard-sized ensembles, two shards in flight,
    which measured faster than one sweep-sized ensemble.  With
    ``n_workers > 1`` the runs form ``harvest_via_client``'s ensembles,
    all in flight at once, so every worker gets one.
    """
    out_dir = root / "campaigns" / campaign_hash(campaign, _SHARD_SIZE)
    if n_workers == 1:
        return CampaignStream(campaign, out_dir, shard_size=_SHARD_SIZE)
    size = _ensemble_size(campaign.base_config.n_particles, campaign.n_simulations, n_workers)
    return CampaignStream(
        campaign, out_dir, shard_size=_SHARD_SIZE, workers=n_workers, max_batch_size=size,
        prefetch_depth=math.ceil(n_workers * size / _SHARD_SIZE),
    )


def _train_network(
    kind: str,
    preset: ExperimentPreset,
    train: FieldDataset,
    val: FieldDataset,
    normalizer: MinMaxNormalizer,
    verbose: bool,
) -> "tuple[DLFieldSolver, TrainingHistory]":
    """Train the preset's ``"mlp"`` or ``"cnn"`` on the normalized split."""
    grid = preset.campaign.ps_grid
    n_cells = preset.campaign.base_config.n_cells
    if kind == "mlp":
        model = build_mlp(
            input_size=grid.size, output_size=n_cells,
            hidden_size=preset.mlp_hidden, rng=preset.train_seed,
        )
        epochs, input_kind = preset.mlp_epochs, "flat"
        x_train, x_val = train.flat_inputs(), val.flat_inputs()
    else:
        model = build_cnn(
            input_shape=(1, grid.n_v, grid.n_x), output_size=n_cells,
            channels=preset.cnn_channels, hidden_size=preset.cnn_hidden,
            rng=preset.train_seed + 1,
        )
        epochs, input_kind = preset.cnn_epochs, "image"
        x_train, x_val = train.image_inputs(), val.image_inputs()
    trainer = Trainer(model, MSELoss(), Adam(lr=preset.learning_rate))
    history = trainer.fit(
        normalizer.transform(x_train), train.targets, epochs=epochs,
        batch_size=preset.batch_size, validation=(normalizer.transform(x_val), val.targets),
        rng=preset.train_seed, verbose=verbose,
    )
    solver = DLFieldSolver(
        model, grid, normalizer, input_kind=input_kind, binning=preset.campaign.binning
    )
    return solver, history


def train_solvers(
    preset: ExperimentPreset,
    cache_dir: "str | Path | None" = DEFAULT_CACHE,
    include_cnn: bool = True,
    n_workers: int = 1,
    verbose: bool = False,
) -> TrainedSolvers:
    """Run the full Sec. IV pipeline for ``preset``, reusing ``cache_dir``.

    Datasets stream through :class:`CampaignStream` directories and
    networks live in ``ModelRegistry(cache_dir / "registry")`` (see the
    module docstring): a repeat call trains nothing and re-runs no
    simulation, and an ``include_cnn=True`` call after an MLP-only one
    trains only the CNN; a corrupt registry entry is replaced by a
    retrained one.  ``cache_dir=None`` runs the same pipeline on a
    temporary root.  ``n_workers`` spreads the training campaign's runs
    over spawned worker processes; the results do not depend on it.
    """
    if cache_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return train_solvers(preset, tmp, include_cnn, n_workers, verbose)
    root = Path(cache_dir)

    # 1. Data generation (Sec. IV-A1): the sweep, and Test Set II from
    #    unseen parameters.
    stream = _stream(preset.campaign, root, n_workers)
    full = stream.dataset()
    unseen = preset.campaign.test_set_ii(preset.test2_v0, preset.test2_vth)
    test2 = _stream(unseen, root).dataset().subsample(preset.n_test2, unseen.master_seed)
    train, val, test = full.split(preset.n_val, preset.n_test, rng=preset.train_seed)

    # 2. Input normalization (Eq. 5), fitted on the training inputs only.
    normalizer = MinMaxNormalizer().fit(train.inputs)

    # 3. The MLP (Sec. IV-A: 3x1024 ReLU + 64 linear) and the CNN
    #    (2 x [conv, conv, maxpool] + MLP head): each is loaded from the
    #    registry entry the preset's pointer names, or trained and
    #    registered.
    registry = ModelRegistry(root / "registry")
    pointer_path = root / "presets" / f"{_preset_hash(preset)}.json"
    try:
        pointer = json.loads(pointer_path.read_text())
    except (OSError, ValueError):
        pointer = {}
    solvers: "dict[str, DLFieldSolver | None]" = {"cnn": None}
    histories: "dict[str, TrainingHistory | None]" = {"mlp": None, "cnn": None}
    for kind in ("mlp", "cnn") if include_cnn else ("mlp",):
        fingerprint = pointer.get(kind, "")
        if fingerprint in registry:  # else never trained, or its entry is gone
            if registry.verify(fingerprint):
                solvers[kind] = registry.get(fingerprint).load()
                continue
            # Corrupt (it fails verify): retrain it and register it afresh.
            shutil.rmtree(registry.models_dir / fingerprint, ignore_errors=True)
        solver, history = _train_network(kind, preset, train, val, normalizer, verbose)
        registry.register(
            solver,
            campaign_manifest_hash=stream.campaign_hash,
            training={"network": kind, "history": asdict(history)},
        )
        solvers[kind], histories[kind] = solver, history
        pointer[kind] = solver.fingerprint()
        pointer_path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(pointer, indent=2, sort_keys=True)
        atomic_write(pointer_path, lambda tmp: tmp.write_text(text))

    return TrainedSolvers(
        preset=preset, mlp_solver=solvers["mlp"], cnn_solver=solvers["cnn"],
        train=train, val=val, test=test, test2=test2, campaign_hash=stream.campaign_hash,
        mlp_history=histories["mlp"], cnn_history=histories["cnn"],
    )
