"""Shared fixtures: tiny simulation configs and a cheaply trained solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.datagen.campaign import harvest_via_client
from repro.dlpic.solver import DLFieldSolver
from repro.models.architectures import build_mlp
from repro.nn.losses import MSELoss
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config() -> SimulationConfig:
    """A very small but physically valid two-stream setup."""
    return SimulationConfig(
        n_cells=32,
        particles_per_cell=40,
        n_steps=10,
        v0=0.2,
        vth=0.01,
        seed=7,
    )


@pytest.fixture(scope="session")
def tiny_ps_grid() -> PhaseSpaceGrid:
    """Small phase-space grid compatible with the CNN (divisible by 4)."""
    return PhaseSpaceGrid(n_x=16, n_v=8)


@pytest.fixture(scope="session")
def tiny_trained_solver(tiny_ps_grid: PhaseSpaceGrid) -> DLFieldSolver:
    """A real (if weak) DL field solver trained in ~2 seconds.

    Session-scoped: several integration tests reuse it.  Trained on one
    short traditional simulation so predictions have the right scale.
    """
    config = SimulationConfig(
        n_cells=32, particles_per_cell=60, n_steps=40, v0=0.2, vth=0.01, seed=3
    )
    data = harvest_via_client([config], tiny_ps_grid, binning="ngp")
    normalizer = MinMaxNormalizer().fit(data.inputs)
    model = build_mlp(
        input_size=tiny_ps_grid.size, output_size=config.n_cells, hidden_size=48,
        n_hidden=2, rng=0,
    )
    trainer = Trainer(model, MSELoss(), Adam(lr=1e-3))
    trainer.fit(
        normalizer.transform(data.flat_inputs()), data.targets,
        epochs=30, batch_size=16, rng=0,
    )
    return DLFieldSolver(model, tiny_ps_grid, normalizer, input_kind="flat", binning="ngp")


@pytest.fixture(scope="session")
def tiny_solver_config() -> SimulationConfig:
    """The simulation configuration matching ``tiny_trained_solver``."""
    return SimulationConfig(
        n_cells=32, particles_per_cell=60, n_steps=40, v0=0.2, vth=0.01, seed=11
    )
