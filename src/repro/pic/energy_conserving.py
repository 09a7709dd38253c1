"""Energy-conserving semi-implicit electrostatic PIC.

The paper's Sec. II contrasts the explicit momentum-conserving method
with implicit schemes that "are numerically stable and can conserve the
total energy of the system" (its reference [4], Markidis & Lapenta,
JCP 2011) and Sec. VII names explicit conservation as the bar a
competitive DL-based PIC must clear.  This module implements that
comparison point: the 1D electrostatic energy-conserving PIC.

Scheme (implicit midpoint, Picard-iterated):

.. math::
    x^{n+1/2} = x^n + v^{n+1/2} \\Delta t / 2 \\\\
    v^{n+1/2} = v^n + (q/m) E^{n+1/2}(x^{n+1/2}) \\Delta t / 2 \\\\
    E^{n+1/2} = E^n - \\frac{\\Delta t}{2 \\epsilon_0}
                \\left(J^{n+1/2} - \\langle J \\rangle\\right)

with the current ``J`` deposited at the midpoint positions using the
*same* shape function as the field gather.  After convergence the step
is completed by reflection: ``v^{n+1} = 2 v^{n+1/2} - v^n`` etc.  With
this pairing the discrete kinetic-energy change ``q dt sum_p v E(x_p)``
telescopes exactly against the field-energy change — total energy is
conserved to the Picard tolerance at ANY time step (no CFL-like
constraint), while momentum is not exactly conserved: the mirror image
of the explicit method's trade-off (Birdsall & Langdon Ch. 10).

The electric field is advanced through Ampere's law, so the Poisson
solve happens only once, at initialization.

The ``energy`` engine family is :class:`EnergyConservingEnsemble`: one
batched implicit step over every member, whose Picard loop stops each
row on its own convergence, so each row is bitwise identical to its
batch of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import constants
from repro.config import SimulationConfig
from repro.engines.base import Engine, energy_picard_params
from repro.pic.grid import Grid1D, wrap_into_box
from repro.kernels.workspace import Workspace
from repro.pic.interpolation import charge_density, deposit, gather
from repro.pic.particles import ParticleSet
from repro.pic.poisson import PoissonSolver
from repro.pic.scenarios import load_ensemble


class EnergyConservingEnsemble(Engine):
    """Batched 1D electrostatic energy-conserving (implicit midpoint) PIC.

    Registered in the engine registry as ``solver="energy"``.  Members
    may differ in scenario, seed, beam parameters and Picard knobs
    (``extra['picard_max_iterations']``, ``extra['picard_tolerance']``,
    read by :func:`repro.engines.base.energy_picard_params`), but must
    agree on the structural fields shared with the explicit PIC
    families.  ``config.interpolation`` is used for both the current
    deposit and the field gather (required for exact conservation).

    Each Picard iteration deposits and gathers every row at once.  A
    row whose max velocity update fell below its tolerance, or that
    reached its iteration cap, stops updating while the others iterate
    on, so every row repeats the iteration sequence it runs alone.
    ``last_iterations`` holds each row's count for the latest step.

    The midpoint and full-step positions wrap in place with
    :func:`repro.pic.grid.wrap_into_box`, the leapfrog pusher's wrap:
    ``np.mod`` bit for bit, at the cost of a shift on the few particles
    that crossed the box edge instead of a division per particle.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        rngs: "Sequence[int | np.random.Generator | None] | None" = None,
    ) -> None:
        super().__init__(configs)
        ref = self.config
        picard = [energy_picard_params(cfg) for cfg in self.configs]
        self._max_iterations = np.array([max_it for max_it, _ in picard])
        self._tolerance = np.array([tol for _, tol in picard])
        self.grid = Grid1D(ref.n_cells, ref.box_length)
        # Scratch for the many small deposits/gathers of the Picard loop.
        self._work = Workspace()
        self.particles: ParticleSet = load_ensemble(self.configs, rngs)
        # Initial field from Gauss's law; afterwards E evolves via Ampere.
        rho = charge_density(
            self.grid, self.particles.x, ref.particle_charge,
            order=ref.interpolation, work=self._work,
        )
        _, self.efield = PoissonSolver(
            self.grid, method=ref.poisson_solver, gradient=ref.gradient
        ).solve(rho)
        self.time = 0.0
        self.step_index = 0
        self.last_iterations = np.zeros(self.batch, dtype=np.int64)

    @property
    def v_at_integer_time(self) -> np.ndarray:
        """Velocities are already synchronized (no staggering)."""
        return self.particles.v

    def _wrap(self, x: np.ndarray) -> np.ndarray:
        """``np.mod(x, L)`` in place, bit for bit (:func:`wrap_into_box`)."""
        wrap_into_box(x, self.config.box_length, self._work.get("wrap_mask", x.shape, np.bool_))
        return x

    def _midpoint_fields(
        self, x_n: np.ndarray, v_half: np.ndarray, e_n: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``E^{n+1/2}`` on the grid and at the midpoint positions of ``v_half``."""
        cfg = self.config
        dt = cfg.dt
        x_half = self._wrap(x_n + 0.5 * dt * v_half)
        # Zero-mean electron current density at the midpoint positions;
        # ``np.add.reduce(...) / n`` is what ``ndarray.mean`` computes.
        j_half = deposit(
            self.grid, x_half, cfg.particle_charge * v_half,
            order=cfg.interpolation, work=self._work,
        )
        j_half = j_half - np.add.reduce(j_half, axis=-1, keepdims=True) / j_half.shape[-1]
        e_half = e_n - 0.5 * dt * j_half / constants.EPSILON_0
        e_at_p = gather(self.grid, e_half, x_half, order=cfg.interpolation, work=self._work)
        return e_half, e_at_p

    def step(self) -> None:
        """One implicit midpoint cycle of every row (Picard-iterated)."""
        cfg = self.config
        dt = cfg.dt
        x_n = self.particles.x
        v_n = self.particles.v
        e_n = self.efield

        v_half = v_n.copy()
        active = np.ones(self.batch, dtype=bool)
        iterations = np.zeros(self.batch, dtype=np.int64)
        while active.any():
            _, e_at_p = self._midpoint_fields(x_n, v_half, e_n)
            v_half_new = v_n + 0.5 * dt * cfg.qm * e_at_p
            delta = np.maximum.reduce(np.abs(v_half_new - v_half), axis=-1)
            np.copyto(v_half, v_half_new, where=active[:, None])
            iterations += active
            # ``not <`` (not ``>=``): a NaN update never counts as converged.
            active &= ~(delta < self._tolerance) & (iterations < self._max_iterations)
        self.last_iterations = iterations

        # Recompute the midpoint fields consistently with the converged
        # velocities, then reflect to the full step.
        e_half, e_at_p = self._midpoint_fields(x_n, v_half, e_n)
        self.particles.v = v_n + dt * cfg.qm * e_at_p
        self.particles.x = self._wrap(x_n + dt * 0.5 * (v_n + self.particles.v))
        self.efield = 2.0 * e_half - e_n
        self.step_index += 1
        self.time += dt
