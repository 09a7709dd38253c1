"""Electron macro-particle container and two-stream loading.

The paper initializes particle positions uniformly in space and
velocities as two counter-streaming beams at ``+/-v0`` with Gaussian
thermal spread ``vth`` (Sec. II-III).  Protons form a motionless
neutralizing background and are not represented by particles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig
from repro.pic.grid import wrap_positions
from repro.utils.rng import as_generator


@dataclass
class ParticleSet:
    """Positions/velocities of identical macro-particles.

    Attributes
    ----------
    x, v:
        Arrays of shape ``(n,)`` for a single run, or ``(batch, n)``
        for a stacked ensemble of independent runs sharing the same
        macro-particle charge and mass.
    charge, mass:
        Per-macro-particle charge and mass (all particles identical).
    """

    x: np.ndarray
    v: np.ndarray
    charge: float
    mass: float

    def __post_init__(self) -> None:
        # float32 state passes through unchanged (the reduced-precision
        # serving tier); everything else is coerced to float64.
        self.x = np.asarray(self.x)
        self.v = np.asarray(self.v)
        if self.x.dtype != np.float32:
            self.x = np.asarray(self.x, dtype=np.float64)
        if self.v.dtype != np.float32:
            self.v = np.asarray(self.v, dtype=np.float64)
        if self.x.shape != self.v.shape or self.x.ndim not in (1, 2):
            raise ValueError(
                "x and v must be equal-shape 1D (n,) or batched (batch, n) arrays, "
                f"got {self.x.shape} and {self.v.shape}"
            )
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")

    def __len__(self) -> int:
        """Number of macro-particles per run (the last-axis length)."""
        return self.x.shape[-1]

    @property
    def batch(self) -> int:
        """Number of stacked runs (1 for a plain single-run set)."""
        return 1 if self.x.ndim == 1 else self.x.shape[0]

    @property
    def qm(self) -> float:
        """Charge-to-mass ratio."""
        return self.charge / self.mass

    def copy(self) -> "ParticleSet":
        """Deep copy (positions and velocities are duplicated)."""
        return ParticleSet(self.x.copy(), self.v.copy(), self.charge, self.mass)

    def kinetic_energy(self) -> float:
        """``sum(m v^2 / 2)`` over the macro-particles."""
        return float(0.5 * self.mass * np.sum(self.v**2))

    def momentum(self) -> float:
        """``sum(m v)`` over the macro-particles."""
        return float(self.mass * np.sum(self.v))


def load_two_stream(
    config: SimulationConfig,
    rng: "int | np.random.Generator | None" = None,
) -> ParticleSet:
    """Load two symmetric counter-streaming electron beams.

    Half of the particles drift at ``+v0`` and half at ``-v0``; each
    receives an independent Gaussian thermal kick of standard deviation
    ``vth``.  Positions are uniform random (``loading="random"``, the
    paper's choice — the instability grows from particle noise) or
    evenly spaced per beam (``loading="quiet"``), optionally perturbed
    sinusoidally to seed mode ``perturbation_mode`` deterministically.
    """
    rng = as_generator(rng if rng is not None else config.seed)
    n = config.n_particles
    if n % 2 != 0:
        raise ValueError(f"two-stream loading needs an even particle count, got {n}")
    half = n // 2
    L = config.box_length

    if config.loading == "random":
        x = rng.uniform(0.0, L, size=n)
    else:  # quiet start: evenly spaced positions per beam
        x_beam = (np.arange(half) + 0.5) * (L / half)
        x = np.concatenate([x_beam, x_beam])

    if config.perturbation != 0.0:
        # Displace positions by a sinusoid: x -> x + a*sin(k x) seeds a
        # density perturbation of relative amplitude ~ a*k at mode m.
        k = 2.0 * np.pi * config.perturbation_mode / L
        x = x + (config.perturbation / k) * np.sin(k * x)
    x = wrap_positions(x, L)

    v = np.empty(n, dtype=np.float64)
    v[:half] = config.v0
    v[half:] = -config.v0
    if config.vth > 0.0:
        v += rng.normal(0.0, config.vth, size=n)

    return ParticleSet(x=x, v=v, charge=config.particle_charge, mass=config.particle_mass)
