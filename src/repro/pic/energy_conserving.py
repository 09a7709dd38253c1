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
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro import constants
from repro.config import SimulationConfig
from repro.engines.base import STRUCTURAL_FIELDS
from repro.engines.observables import Frame, Observables, pic_observables
from repro.pic.grid import Grid1D
from repro.pic.interpolation import Workspace, charge_density, deposit, gather
from repro.pic.particles import ParticleSet
from repro.pic.poisson import PoissonSolver
from repro.pic.scenarios import load_scenario


class EnergyConservingPIC:
    """1D electrostatic energy-conserving (implicit midpoint) PIC.

    Parameters
    ----------
    config:
        The shared simulation configuration; ``config.interpolation``
        is used for both the current deposit and the field gather
        (required for exact conservation).
    max_iterations, tolerance:
        Picard iteration control: iterate the midpoint fixed-point
        until the max velocity update falls below ``tolerance`` (or
        ``max_iterations`` is hit — tracked in ``last_iterations``).
    """

    def __init__(
        self,
        config: SimulationConfig,
        rng: "int | np.random.Generator | None" = None,
        max_iterations: int = 12,
        tolerance: float = 1e-12,
    ) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self.config = config
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.grid = Grid1D(config.n_cells, config.box_length)
        # Scratch for the many small deposits/gathers of the Picard loop.
        self._work = Workspace()
        self.particles: ParticleSet = load_scenario(config, rng)
        # Initial field from Gauss's law; afterwards E evolves via Ampere.
        rho = charge_density(
            self.grid, self.particles.x, config.particle_charge,
            order=config.interpolation, work=self._work,
        )
        _, self.efield = PoissonSolver(
            self.grid, method=config.poisson_solver, gradient=config.gradient
        ).solve(rho)
        self.time = 0.0
        self.step_index = 0
        self.last_iterations = 0

    @property
    def v_at_integer_time(self) -> np.ndarray:
        """Velocities are already synchronized (no staggering)."""
        return self.particles.v

    def _current_density(self, x_half: np.ndarray, v_half: np.ndarray) -> np.ndarray:
        """Zero-mean electron current density at midpoint positions."""
        j = deposit(
            self.grid, x_half, self.config.particle_charge * v_half,
            order=self.config.interpolation, work=self._work,
        )
        return j - j.mean()

    def step(self) -> None:
        """One implicit midpoint cycle (Picard-iterated)."""
        cfg = self.config
        dt = cfg.dt
        x_n = self.particles.x
        v_n = self.particles.v
        e_n = self.efield

        v_half = v_n.copy()
        x_half = x_n
        e_half = e_n
        for iteration in range(1, self.max_iterations + 1):
            x_half = np.mod(x_n + 0.5 * dt * v_half, cfg.box_length)
            j_half = self._current_density(x_half, v_half)
            e_half = e_n - 0.5 * dt * j_half / constants.EPSILON_0
            e_at_p = gather(self.grid, e_half, x_half, order=cfg.interpolation, work=self._work)
            v_half_new = v_n + 0.5 * dt * cfg.qm * e_at_p
            delta = float(np.max(np.abs(v_half_new - v_half)))
            v_half = v_half_new
            if delta < self.tolerance:
                break
        self.last_iterations = iteration

        # Recompute the midpoint fields consistently with the converged
        # velocities, then reflect to the full step.
        x_half = np.mod(x_n + 0.5 * dt * v_half, cfg.box_length)
        j_half = self._current_density(x_half, v_half)
        e_half = e_n - 0.5 * dt * j_half / constants.EPSILON_0
        e_at_p = gather(self.grid, e_half, x_half, order=cfg.interpolation, work=self._work)

        self.particles.v = v_n + dt * cfg.qm * e_at_p
        self.particles.x = np.mod(x_n + dt * 0.5 * (v_n + self.particles.v), cfg.box_length)
        self.efield = 2.0 * e_half - e_n
        self.step_index += 1
        self.time += dt

    def observables(self, record_fields: bool = False) -> Observables:
        """A fresh default observables recorder for this single run."""
        return Observables(pic_observables(record_fields=record_fields), squeeze=True)

    def _record(self, hist: Observables) -> None:
        # Velocities are synchronized (no staggering), so no v_center.
        hist.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            particles=self.particles,
        ))

    def run(
        self, n_steps: "int | None" = None, history: "Observables | None" = None
    ) -> Observables:
        """Run ``n_steps`` cycles recording the standard diagnostics."""
        n = self.config.n_steps if n_steps is None else n_steps
        if n < 0:
            raise ValueError(f"n_steps must be non-negative, got {n}")
        hist = history if history is not None else self.observables()
        hist.reserve(len(hist) + n + 1)
        self._record(hist)
        for _ in range(n):
            self.step()
            self._record(hist)
        return hist


class EnergyConservingEnsemble:
    """Engine adapter serving batches of energy-conserving runs.

    Registered in the engine registry as ``solver="energy"``.  Unlike
    the explicit families there is no vectorized implicit solver (each
    member runs its own Picard iteration, whose trip count depends on
    that member's state), so the adapter advances one solo
    :class:`EnergyConservingPIC` per member in lockstep — row ``b`` is
    *trivially* bitwise identical to running ``configs[b]`` alone —
    while still giving the service layer everything batching buys it:
    grouped scheduling, request dedup and the shared result store.

    Members may differ in scenario, seed, beam parameters and Picard
    knobs (``extra['picard_max_iterations']``,
    ``extra['picard_tolerance']``), but must agree on the structural
    fields shared with the explicit PIC families.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        rngs: "Sequence[int | np.random.Generator | None] | None" = None,
    ) -> None:
        if isinstance(configs, SimulationConfig):
            configs = (configs,)
        self.configs: "tuple[SimulationConfig, ...]" = tuple(configs)
        if not self.configs:
            raise ValueError("ensemble needs at least one configuration")
        ref = self.configs[0]
        for i, cfg in enumerate(self.configs[1:], 1):
            for name in STRUCTURAL_FIELDS:
                if getattr(cfg, name) != getattr(ref, name):
                    raise ValueError(
                        f"ensemble member {i} differs from member 0 in structural "
                        f"field {name!r}: {getattr(cfg, name)!r} != {getattr(ref, name)!r}"
                    )
        self.config = ref  # structural reference member
        self.batch = len(self.configs)
        if rngs is None:
            rngs = [None] * self.batch
        if len(rngs) != self.batch:
            raise ValueError(f"got {len(rngs)} rngs for batch {self.batch}")
        self.members = [
            EnergyConservingPIC(
                cfg,
                rng,
                max_iterations=int(cfg.extra.get("picard_max_iterations", 12)),
                tolerance=float(cfg.extra.get("picard_tolerance", 1e-12)),
            )
            for cfg, rng in zip(self.configs, rngs)
        ]
        self.grid = self.members[0].grid

    @property
    def time(self) -> float:
        return self.members[0].time

    @property
    def step_index(self) -> int:
        return self.members[0].step_index

    @property
    def efield(self) -> np.ndarray:
        """Stacked ``(batch, n_cells)`` field across the members."""
        return np.stack([m.efield for m in self.members])

    @property
    def particles(self) -> ParticleSet:
        """Stacked ``(batch, n)`` particle view across the members."""
        ref = self.members[0].particles
        return ParticleSet(
            np.stack([m.particles.x for m in self.members]),
            np.stack([m.particles.v for m in self.members]),
            ref.charge,
            ref.mass,
        )

    @property
    def v_at_integer_time(self) -> np.ndarray:
        """Velocities are already synchronized, ``(batch, n)``."""
        return np.stack([m.particles.v for m in self.members])

    def observables(self, record_fields: bool = False) -> Observables:
        """A fresh default observables recorder for this engine."""
        return Observables(pic_observables(record_fields=record_fields))

    def step(self) -> None:
        """Advance every member one implicit midpoint cycle."""
        for m in self.members:
            m.step()

    def _record(self, hist: Observables) -> None:
        hist.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            particles=self.particles,
        ))

    def run(
        self,
        n_steps: "int | None" = None,
        history: "Observables | None" = None,
        callback: "Callable[[EnergyConservingEnsemble], None] | None" = None,
    ) -> Observables:
        """Run ``n_steps`` cycles, recording batched diagnostics."""
        if n_steps is None:
            if any(cfg.n_steps != self.config.n_steps for cfg in self.configs):
                raise ValueError(
                    "ensemble members disagree on config.n_steps; "
                    "pass n_steps to run() explicitly"
                )
            n = self.config.n_steps
        else:
            n = n_steps
        if n < 0:
            raise ValueError(f"n_steps must be non-negative, got {n}")
        hist = history if history is not None else self.observables()
        hist.reserve(len(hist) + n + 1)
        self._record(hist)
        for _ in range(n):
            self.step()
            self._record(hist)
            if callback is not None:
                callback(self)
        return hist
