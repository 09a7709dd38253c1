"""Sec. VII performance discussion — field-solve cost.

The paper defers a full performance study but argues the DL field
solver is "a simple prediction/inference step involving a series of
matrix-vector multiplications" versus the traditional solve of a
linear system.  These benches time the two field-solve stages on
identical particle states (plus the individual Poisson backends), using
pytest-benchmark's statistics.
"""

import numpy as np
import pytest

from repro.kernels.workspace import Workspace
from repro.pic.grid import Grid1D
from repro.pic.poisson import (
    solve_poisson_direct,
    solve_poisson_fd,
    solve_poisson_spectral,
)
from repro.pic.simulation import ChargeDepositionFieldSolver, TraditionalPIC

pytestmark = pytest.mark.slow  # needs the medium-preset trained solvers (~15 min cold)


@pytest.fixture(scope="module")
def particle_state(solvers):
    """A mid-instability particle state at the medium resolution, ``(1, n)``."""
    config = solvers.preset.validation_config()
    sim = TraditionalPIC(config)
    sim.run(100)
    return config, sim.particles.x.copy(), sim.particles.v.copy()


def test_traditional_field_solve(particle_state, benchmark):
    config, x, v = particle_state
    grid = Grid1D(config.n_cells, config.box_length)
    solver = ChargeDepositionFieldSolver(
        grid, particle_charge=config.particle_charge,
        interpolation=config.interpolation,
    )
    e = benchmark(solver.field, x, v)
    assert e.shape == (1, config.n_cells)


def test_dl_field_solve(particle_state, solvers, benchmark):
    config, x, v = particle_state
    e = benchmark(solvers.mlp_solver.field, x, v)
    assert e.shape == (1, config.n_cells)


def test_dl_inference_only(particle_state, solvers, benchmark):
    """Network inference alone (excluding the phase-space binning)."""
    config, x, v = particle_state
    work = Workspace()
    solvers.mlp_solver.fields(x, v, work=work)
    hists = work.histograms
    e = benchmark(solvers.mlp_solver.predict_from_histograms, hists)
    assert e.shape == (1, config.n_cells)


@pytest.mark.parametrize(
    "solver",
    [solve_poisson_spectral, solve_poisson_fd, solve_poisson_direct],
    ids=["spectral", "fd", "direct"],
)
def test_poisson_backends(solver, benchmark):
    grid = Grid1D(64, 2.0)
    rho = np.sin(grid.nodes * 3.06)
    phi = benchmark(solver, grid, rho)
    assert phi.shape == (64,)


def test_full_step_traditional(solvers, benchmark):
    config = solvers.preset.validation_config().with_updates(n_steps=1)
    sim = TraditionalPIC(config)
    benchmark(sim.step)


def test_full_step_dl(solvers, benchmark):
    from repro.dlpic.simulation import DLPIC

    config = solvers.preset.validation_config().with_updates(n_steps=1)
    sim = DLPIC(config, solvers.mlp_solver)
    benchmark(sim.step)
