"""Benchmark fixtures.

The benches regenerate the paper's tables/figures at the ``medium``
preset.  Training is expensive (~15 min CPU), so the campaign and the
trained solvers are kept under ``.artifacts`` (the campaign stream and
the model registry) — the first benchmark session pays the cost, later
sessions load in seconds.

Numeric results are also dumped to ``.artifacts/results/*.json`` so the
EXPERIMENTS.md paper-vs-measured tables can cite exact values.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.pipeline import (
    DEFAULT_CACHE,
    TrainedSolvers,
    medium_preset,
    train_solvers,
)

RESULTS_DIR = Path(DEFAULT_CACHE) / "results"


@pytest.fixture(scope="session")
def solvers() -> TrainedSolvers:
    """Medium-preset trained MLP + CNN (cached on disk)."""
    return train_solvers(medium_preset(), cache_dir=DEFAULT_CACHE, include_cnn=True)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def dump_result(results_dir: Path, name: str, payload: dict) -> None:
    """Persist a benchmark's numeric outcome for EXPERIMENTS.md."""
    (results_dir / f"{name}.json").write_text(json.dumps(payload, indent=2))
