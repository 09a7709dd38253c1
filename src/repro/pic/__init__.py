"""Traditional explicit electrostatic Particle-in-Cell substrate.

Implements the computational cycle of the paper's Fig. 1: field gather
at particle positions, leapfrog particle push, charge deposition, and a
grid Poisson solve.
"""

from repro.pic.grid import Grid1D
from repro.pic.particles import ParticleSet, load_two_stream
from repro.pic.interpolation import deposit, gather
from repro.pic.poisson import PoissonSolver, electric_field_from_potential
from repro.pic.mover import push_positions, push_velocities
from repro.pic.diagnostics import (
    field_energy,
    kinetic_energy,
    mode_amplitude,
    total_momentum,
)
from repro.pic.scenarios import (
    available_distributions,
    available_scenarios,
    get_distribution,
    get_scenario,
    has_distribution,
    load_distribution,
    load_ensemble,
    load_scenario,
    register_distribution,
    register_scenario,
)
from repro.pic.simulation import EnsembleSimulation, TraditionalPIC
from repro.pic.energy_conserving import EnergyConservingEnsemble

__all__ = [
    "Grid1D",
    "ParticleSet",
    "load_two_stream",
    "deposit",
    "gather",
    "PoissonSolver",
    "electric_field_from_potential",
    "push_positions",
    "push_velocities",
    "field_energy",
    "kinetic_energy",
    "mode_amplitude",
    "total_momentum",
    "available_distributions",
    "available_scenarios",
    "get_distribution",
    "get_scenario",
    "has_distribution",
    "load_distribution",
    "load_ensemble",
    "load_scenario",
    "register_distribution",
    "register_scenario",
    "EnsembleSimulation",
    "TraditionalPIC",
    "EnergyConservingEnsemble",
]
