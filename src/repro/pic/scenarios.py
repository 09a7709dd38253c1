"""Registry of named initial-condition scenarios.

Every entry is a factory ``(SimulationConfig, Generator) -> ParticleSet``
registered under a short name, selected through
``SimulationConfig.scenario`` and loadable one run at a time
(:func:`load_scenario`) or as a stacked ``(batch, n)`` ensemble
(:func:`load_ensemble`) for the batched engine in
``repro.pic.simulation``.

Built-in scenarios
------------------
``two_stream``
    The paper's counter-streaming beams at ``+/-v0`` with thermal
    spread ``vth`` (delegates to ``load_two_stream``, so the default
    configuration is bit-for-bit the seed reproduction's load).
``cold_beam``
    A single drifting beam at ``+v0`` — the free-streaming/stable
    configuration of the paper's Fig. 6 study.
``landau_damping``
    A resting Maxwellian with a seeded sinusoidal density perturbation
    whose field oscillation Landau-damps; uses ``config.perturbation``
    as the amplitude (default 0.05 when the config leaves it at 0,
    since an unperturbed Maxwellian is inert).
``bump_on_tail``
    A Maxwellian core plus a fast minority beam at ``v0`` (fraction
    ``config.extra["bump_fraction"]``, default 0.1) — the classic
    gentle-beam instability.
``random_perturbation``
    A resting Maxwellian with random-amplitude, random-phase density
    perturbations on the first few modes: a noise workload for
    training-data diversity.

All scenarios draw exactly ``config.n_particles`` electrons with the
config's macro-particle charge and mass, so together with the uniform
neutralizing ion background the initial charge density has zero mean —
a property the test-suite asserts for every registry entry.

Noise-free distribution counterparts
------------------------------------
Every built-in scenario also registers a *distribution factory*
``(SimulationConfig, x_centers, v_centers) -> f0(v, x)`` — the smooth
phase-space density a Vlasov engine starts from in place of sampled
macro-particles.  The density is normalized to mean 1 (total mass
``L``), mirroring the particle loads, and requires ``vth > 0`` (a cold
delta beam is not representable on a velocity grid).  Distributions
are selected through the same ``config.scenario`` name by the
``solver="vlasov"`` engine family (:mod:`repro.engines`).

Register additional scenarios with the decorators::

    from repro.pic.scenarios import register_distribution, register_scenario

    @register_scenario("my_setup")
    def _my_setup(config, rng):
        ...
        return ParticleSet(x, v, config.particle_charge, config.particle_mass)

    @register_distribution("my_setup")
    def _my_setup_f0(config, x, v):
        ...
        return f  # (n_v, n_x), mean density 1
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.pic.grid import wrap_positions
from repro.pic.particles import ParticleSet, load_two_stream
from repro.utils.rng import as_generator

ScenarioFactory = Callable[[SimulationConfig, np.random.Generator], ParticleSet]
# (config, x_centers, v_centers) -> (n_v, n_x) phase-space density.
DistributionFactory = Callable[[SimulationConfig, np.ndarray, np.ndarray], np.ndarray]

_REGISTRY: dict[str, ScenarioFactory] = {}
_DISTRIBUTIONS: dict[str, DistributionFactory] = {}


def register_scenario(name: str) -> Callable[[ScenarioFactory], ScenarioFactory]:
    """Decorator registering a scenario factory under ``name``."""

    def decorator(factory: ScenarioFactory) -> ScenarioFactory:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def register_distribution(
    name: str,
) -> Callable[[DistributionFactory], DistributionFactory]:
    """Decorator registering a noise-free ``f0(x, v)`` under ``name``.

    ``name`` should match a particle scenario so the Vlasov engine can
    be selected through the same ``config.scenario``, but standalone
    distribution-only scenarios are allowed too.
    """

    def decorator(factory: DistributionFactory) -> DistributionFactory:
        if name in _DISTRIBUTIONS:
            raise ValueError(f"distribution {name!r} is already registered")
        _DISTRIBUTIONS[name] = factory
        return factory

    return decorator


def available_scenarios() -> tuple[str, ...]:
    """Sorted names of every registered scenario."""
    return tuple(sorted(_REGISTRY))


def available_distributions() -> tuple[str, ...]:
    """Sorted names of every scenario with a noise-free ``f0``."""
    return tuple(sorted(_DISTRIBUTIONS))


def has_distribution(name: str) -> bool:
    """Whether ``name`` registered a noise-free distribution."""
    return name in _DISTRIBUTIONS


def _first_doc_line(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def scenario_summaries() -> dict[str, str]:
    """Name -> first docstring line of every registered scenario.

    The one-line descriptions backing ``repro scenarios``; factories
    without a docstring get an empty string.  Distribution-only
    scenarios (a registered ``f0`` with no particle counterpart) are
    included, described by their distribution factory's docstring.
    """
    out: dict[str, str] = {}
    for name in sorted(set(_REGISTRY) | set(_DISTRIBUTIONS)):
        factory = _REGISTRY.get(name, _DISTRIBUTIONS.get(name))
        out[name] = _first_doc_line(factory)
    return out


def get_scenario(name: str) -> ScenarioFactory:
    """Look up a registered factory; unknown names raise ``ValueError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        ) from None


def get_distribution(name: str) -> DistributionFactory:
    """Look up a registered distribution; unknown names raise ``ValueError``."""
    try:
        return _DISTRIBUTIONS[name]
    except KeyError:
        raise ValueError(
            f"scenario {name!r} has no noise-free distribution; "
            f"available: {', '.join(available_distributions())}"
        ) from None


def load_distribution(config: SimulationConfig) -> np.ndarray:
    """The ``(n_v, n_x)`` initial distribution named by ``config.scenario``.

    Cell-centered in both ``x`` (``config.n_cells`` cells over the box)
    and ``v`` (the velocity window from :func:`vlasov_grid_params`,
    i.e. ``config.extra``'s ``n_v``/``v_min``/``v_max`` knobs).
    """
    from repro.engines.base import vlasov_grid_params

    factory = get_distribution(config.scenario)
    n_v, v_min, v_max = vlasov_grid_params(config)
    dx = config.box_length / config.n_cells
    dv = (v_max - v_min) / n_v
    x = (np.arange(config.n_cells) + 0.5) * dx
    v = v_min + (np.arange(n_v) + 0.5) * dv
    f = np.asarray(factory(config, x, v), dtype=np.float64)
    if f.shape != (n_v, config.n_cells):
        raise ValueError(
            f"distribution {config.scenario!r} returned shape {f.shape}, "
            f"expected {(n_v, config.n_cells)}"
        )
    return f


def load_scenario(
    config: SimulationConfig,
    rng: "int | np.random.Generator | None" = None,
) -> ParticleSet:
    """Load the initial condition named by ``config.scenario`` (1-D)."""
    factory = get_scenario(config.scenario)
    return factory(config, as_generator(rng if rng is not None else config.seed))


def load_ensemble(
    configs: Sequence[SimulationConfig],
    rngs: "Iterable[int | np.random.Generator | None] | None" = None,
) -> ParticleSet:
    """Load one scenario per config and stack them as ``(batch, n)``.

    Each row is loaded with its own config (scenario, seed, beam
    parameters may all differ) and is bitwise identical to the
    corresponding :func:`load_scenario` call.  Macro-particle charge
    and mass must agree across the batch (they are shared).
    """
    configs = list(configs)
    if not configs:
        raise ValueError("ensemble loading needs at least one configuration")
    if rngs is None:
        rngs = [None] * len(configs)
    rngs = list(rngs)
    if len(rngs) != len(configs):
        raise ValueError(f"got {len(rngs)} rngs for {len(configs)} configs")
    rows = [load_scenario(cfg, rng) for cfg, rng in zip(configs, rngs)]
    ref = rows[0]
    for i, row in enumerate(rows[1:], 1):
        if len(row) != len(ref):
            raise ValueError(
                f"ensemble member {i} loads {len(row)} particles, member 0 loads {len(ref)}"
            )
        if row.charge != ref.charge or row.mass != ref.mass:
            raise ValueError(
                f"ensemble member {i} has charge/mass ({row.charge}, {row.mass}), "
                f"member 0 has ({ref.charge}, {ref.mass}); these must be uniform"
            )
    return ParticleSet(
        x=np.stack([row.x for row in rows]),
        v=np.stack([row.v for row in rows]),
        charge=ref.charge,
        mass=ref.mass,
    )


# ----------------------------------------------------------------------
# Shared loading helpers


def _positions(
    config: SimulationConfig,
    rng: np.random.Generator,
    n: int,
    perturbation: "float | None" = None,
) -> np.ndarray:
    """Spatial load shared by the non-two-stream scenarios.

    Uniform random (``loading="random"``) or evenly spaced
    (``loading="quiet"``) positions, optionally displaced sinusoidally
    to seed a density perturbation at ``config.perturbation_mode``.
    """
    L = config.box_length
    if config.loading == "random":
        x = rng.uniform(0.0, L, size=n)
    else:
        x = (np.arange(n) + 0.5) * (L / n)
    amp = config.perturbation if perturbation is None else perturbation
    if amp != 0.0:
        k = 2.0 * np.pi * config.perturbation_mode / L
        x = x + (amp / k) * np.sin(k * x)
    return wrap_positions(x, L)


def _thermalize(v: np.ndarray, vth: float, rng: np.random.Generator) -> np.ndarray:
    """Add a Gaussian thermal kick of spread ``vth`` (no-op when 0)."""
    if vth > 0.0:
        v = v + rng.normal(0.0, vth, size=v.shape)
    return v


def _particle_set(config: SimulationConfig, x: np.ndarray, v: np.ndarray) -> ParticleSet:
    return ParticleSet(x=x, v=v, charge=config.particle_charge, mass=config.particle_mass)


# ----------------------------------------------------------------------
# Built-in scenarios


@register_scenario("two_stream")
def _two_stream(config: SimulationConfig, rng: np.random.Generator) -> ParticleSet:
    """The paper's counter-streaming beams (Sec. II-III)."""
    return load_two_stream(config, rng)


@register_scenario("cold_beam")
def _cold_beam(config: SimulationConfig, rng: np.random.Generator) -> ParticleSet:
    """A single beam drifting at ``+v0`` with thermal spread ``vth``."""
    n = config.n_particles
    x = _positions(config, rng, n)
    v = _thermalize(np.full(n, config.v0), config.vth, rng)
    return _particle_set(config, x, v)


@register_scenario("landau_damping")
def _landau_damping(config: SimulationConfig, rng: np.random.Generator) -> ParticleSet:
    """Resting Maxwellian with a seeded density perturbation.

    ``config.perturbation`` sets the relative amplitude; when left at
    the default 0 a 5% perturbation is used so the scenario excites a
    damped Langmuir oscillation out of the box.
    """
    n = config.n_particles
    amp = config.perturbation if config.perturbation != 0.0 else 0.05
    x = _positions(config, rng, n, perturbation=amp)
    v = _thermalize(np.zeros(n), config.vth, rng)
    return _particle_set(config, x, v)


@register_scenario("bump_on_tail")
def _bump_on_tail(config: SimulationConfig, rng: np.random.Generator) -> ParticleSet:
    """Maxwellian core plus a minority beam at ``v0`` (gentle bump).

    The beam fraction comes from ``config.extra["bump_fraction"]``
    (default 0.1); the beam's spread is half the core's so the bump is
    a distinct maximum of the velocity distribution.
    """
    n = config.n_particles
    fraction = float(config.extra.get("bump_fraction", 0.1))
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"bump_fraction must be in (0, 1), got {fraction}")
    n_bump = max(1, int(round(fraction * n)))
    x = _positions(config, rng, n)
    v = np.zeros(n)
    v[n - n_bump:] = config.v0
    v[: n - n_bump] = _thermalize(v[: n - n_bump], config.vth, rng)
    v[n - n_bump:] = _thermalize(v[n - n_bump:], 0.5 * config.vth, rng)
    return _particle_set(config, x, v)


@register_scenario("random_perturbation")
def _random_perturbation(config: SimulationConfig, rng: np.random.Generator) -> ParticleSet:
    """Resting Maxwellian with random multi-mode density perturbations.

    Modes 1-4 each receive a uniformly random amplitude up to
    ``config.perturbation`` (default 0.05 when 0) and a random phase —
    a diverse noise workload for training-data generation.
    """
    n = config.n_particles
    L = config.box_length
    amp_max = config.perturbation if config.perturbation != 0.0 else 0.05
    x = _positions(config, rng, n, perturbation=0.0)
    for mode in range(1, 5):
        amp = rng.uniform(0.0, amp_max)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        k = 2.0 * np.pi * mode / L
        x = x + (amp / k) * np.sin(k * x + phase)
    x = wrap_positions(x, L)
    v = _thermalize(np.zeros(n), config.vth, rng)
    return _particle_set(config, x, v)


# ----------------------------------------------------------------------
# Noise-free distribution counterparts (the Vlasov engine's f0)


def _require_thermal(config: SimulationConfig) -> None:
    if config.vth <= 0:
        raise ValueError(
            f"the noise-free distribution of scenario {config.scenario!r} needs "
            f"vth > 0 (a cold delta beam is not representable on a velocity "
            f"grid), got {config.vth}"
        )


def _gauss(u: np.ndarray, vth: float) -> np.ndarray:
    """Unnormalized Maxwellian profile ``exp(-u^2 / 2 vth^2)``."""
    return np.exp(-0.5 * (u / vth) ** 2)


def _normalize_fv(config: SimulationConfig, fv: np.ndarray) -> np.ndarray:
    """Normalize a velocity profile to unit integral on the grid."""
    from repro.engines.base import vlasov_grid_params

    n_v, v_min, v_max = vlasov_grid_params(config)
    norm = np.sum(fv) * ((v_max - v_min) / n_v)
    if norm <= 0:
        raise ValueError("velocity window does not contain the distribution")
    return fv / norm


def _density_profile(config: SimulationConfig, x: np.ndarray, amp: float) -> np.ndarray:
    """Seeded sinusoidal density modulation ``1 + amp*cos(k_m x)``."""
    if amp == 0.0:
        return np.ones_like(x)
    k = 2.0 * np.pi * config.perturbation_mode / config.box_length
    return 1.0 + amp * np.cos(k * x)


@register_distribution("two_stream")
def _two_stream_f0(config: SimulationConfig, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Counter-streaming Maxwellian beams at ``+/-v0``.

    A noise-free run needs an explicit seed where the PIC load relies
    on shot noise, so a zero ``config.perturbation`` defaults to the
    classic ``1e-3`` density modulation; pass explicit ``f0s`` to a
    :class:`~repro.vlasov.ensemble.VlasovEnsemble` for an unperturbed
    start.
    """
    _require_thermal(config)
    fv = _normalize_fv(
        config, 0.5 * (_gauss(v - config.v0, config.vth) + _gauss(v + config.v0, config.vth))
    )
    amp = config.perturbation if config.perturbation != 0.0 else 1e-3
    return fv[:, None] * _density_profile(config, x, amp)[None, :]


@register_distribution("cold_beam")
def _cold_beam_f0(config: SimulationConfig, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A single Maxwellian beam drifting at ``+v0`` (stable)."""
    _require_thermal(config)
    fv = _normalize_fv(config, _gauss(v - config.v0, config.vth))
    return fv[:, None] * _density_profile(config, x, config.perturbation)[None, :]


@register_distribution("landau_damping")
def _landau_damping_f0(config: SimulationConfig, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Resting Maxwellian with a seeded density perturbation.

    Mirrors the particle scenario: a zero ``config.perturbation``
    defaults to a 5% modulation so the damped oscillation is excited.
    """
    _require_thermal(config)
    fv = _normalize_fv(config, _gauss(v, config.vth))
    amp = config.perturbation if config.perturbation != 0.0 else 0.05
    return fv[:, None] * _density_profile(config, x, amp)[None, :]


@register_distribution("bump_on_tail")
def _bump_on_tail_f0(config: SimulationConfig, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Maxwellian core plus a minority beam at ``v0`` (gentle bump).

    Same mixture as the particle scenario — fraction
    ``config.extra["bump_fraction"]`` (default 0.1) in a beam of half
    the core's thermal width — with a ``1e-3`` seed perturbation when
    the config leaves ``perturbation`` at 0.
    """
    _require_thermal(config)
    fraction = float(config.extra.get("bump_fraction", 0.1))
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"bump_fraction must be in (0, 1), got {fraction}")
    core = _normalize_fv(config, _gauss(v, config.vth))
    bump = _normalize_fv(config, _gauss(v - config.v0, 0.5 * config.vth))
    fv = (1.0 - fraction) * core + fraction * bump
    amp = config.perturbation if config.perturbation != 0.0 else 1e-3
    return fv[:, None] * _density_profile(config, x, amp)[None, :]


@register_distribution("random_perturbation")
def _random_perturbation_f0(
    config: SimulationConfig, x: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Resting Maxwellian with seeded random multi-mode perturbations.

    The same modes 1-4 with random amplitudes (up to
    ``config.perturbation``, default 0.05 when 0) and phases as the
    particle scenario, drawn deterministically from ``config.seed`` in
    the particle load's draw order — so the distribution is the smooth
    counterpart of the scenario a given seed would sample.
    """
    _require_thermal(config)
    rng = as_generator(config.seed)
    amp_max = config.perturbation if config.perturbation != 0.0 else 0.05
    fx = np.ones_like(x)
    for mode in range(1, 5):
        amp = rng.uniform(0.0, amp_max)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        k = 2.0 * np.pi * mode / config.box_length
        fx = fx + amp * np.cos(k * x + phase)
    fv = _normalize_fv(config, _gauss(v, config.vth))
    return fv[:, None] * fx[None, :]
