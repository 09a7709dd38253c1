"""Shared fixtures: tiny simulation configs, a cheaply trained solver and
the forced chunking of every kernel call."""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.datagen.campaign import harvest_via_client
from repro.dlpic import DLEnsemble
from repro.dlpic.solver import DLFieldSolver
from repro.kernels import ThreadedBackend
from repro.models.architectures import build_mlp
from repro.nn.losses import MSELoss
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import EnsembleSimulation
from repro.vlasov.ensemble import VlasovEnsemble


class _CountingBackend(ThreadedBackend):
    """``ThreadedBackend`` that counts the multi-row calls it splits, so a
    test that serves its runs can tell that the engines ran on it."""

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers=max_workers)
        self.split_calls = 0

    def run_rows(self, n_rows, fn, size=0) -> None:
        self.split_calls += n_rows > 1
        super().run_rows(n_rows, fn, size)


@contextlib.contextmanager
def _chunked_kernels(max_workers: int = 3) -> "Iterator[ThreadedBackend]":
    backend = _CountingBackend(max_workers)
    with pytest.MonkeyPatch.context() as patch:
        for cls in (EnsembleSimulation, DLEnsemble, VlasovEnsemble):
            patch.setattr(cls, "_backend", backend)
        yield backend


@pytest.fixture(scope="session")
def chunked_kernels():
    """A context manager that runs the kernels of every engine built inside
    it on ``ThreadedBackend(max_workers=3)``, which it yields; the
    backend's ``split_calls`` counts the multi-row calls it split.

    Every pinned run is far below ``repro.kernels.backends.FLOOR``, where
    the engines' own backend runs one slab, so this is how a test checks
    that chunk boundaries keep every bit.  It sets the ``_backend`` class
    attribute of the engine classes that route kernels (``MPIEnsemble``
    inherits ``EnsembleSimulation``'s), in this process only: build and
    run the engines inside the block, in process.  An engine hands its
    backend to its default field solver at construction, so that one
    chunks too.
    """
    return _chunked_kernels


@pytest.fixture(params=["default", "chunked"])
def kernels(request) -> "Iterator[str]":
    """Run a test on the engines' own backends, then under ``chunked_kernels``."""
    with _chunked_kernels() if request.param == "chunked" else contextlib.nullcontext():
        yield request.param


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
