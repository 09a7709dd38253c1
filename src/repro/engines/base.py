"""The engine registry: one abstraction over every solver family.

An *engine* advances a batch of independent runs and records shared
:class:`~repro.engines.observables.Observables`.  The built-in
families, selected by ``SimulationConfig.solver``:

``traditional``
    The batched explicit PIC cycle
    (:class:`~repro.pic.simulation.EnsembleSimulation`).
``dl``
    The DL-based PIC cycle with one network forward per ensemble step
    (:class:`~repro.dlpic.simulation.DLEnsemble`); needs a
    ``dl_solver``.
``vlasov``
    The noise-free semi-Lagrangian Vlasov-Poisson ensemble
    (:class:`~repro.vlasov.ensemble.VlasovEnsemble`).
``energy``
    The energy-conserving implicit-midpoint PIC
    (:class:`~repro.pic.energy_conserving.EnergyConservingEnsemble`;
    Picard knobs via ``config.extra``, see :func:`energy_picard_params`).
``mpi``
    The simulated-MPI domain-decomposed traditional PIC
    (:class:`~repro.parallel.picparallel.MPIEnsemble`; ``n_ranks``
    via ``config.extra``, see :func:`mpi_rank_params`).

Every engine class inherits :class:`Engine`, which owns the one
member check (a single config is a batch of one; an empty batch or a
member off the structural key is rejected) and the one ``run`` loop —
the single place a per-step hook such as a phase timer attaches.  A
family supplies ``step`` and the state its observables read (see
:mod:`repro.engines.observables`).

Every consumer — the micro-batching service, the CLI, the experiment
pipeline, the data campaigns — builds engines exclusively through
:func:`make_engine`, so registering a new family here makes it
servable, sweepable and harvestable everywhere at once.  Each family
also publishes its *structural-compatibility key*: the config fields a
batched engine requires to agree across an ensemble, used both to
validate mixed-config batches and (plus ``n_steps``) to bucket service
requests — see :func:`engine_group_key`.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.engines.observables import Observables, resolve_observables

# Config fields that must agree across every member of a PIC ensemble
# (the batched kernels share one grid, one time step and one
# charge/mass).  The DL family inherits these; the Vlasov family has
# its own key below.
STRUCTURAL_FIELDS = (
    "box_length",
    "n_cells",
    "particles_per_cell",
    "dt",
    "qm",
    "interpolation",
    "poisson_solver",
    "gradient",
    "dtype",
)

# Phase-space grid knobs of the Vlasov family, read from
# ``config.extra`` (they have no meaning for particle engines, and
# ``extra`` already participates in equality and cache keys).
VLASOV_DEFAULT_N_V = 128
VLASOV_DEFAULT_V_MIN = -0.5
VLASOV_DEFAULT_V_MAX = 0.5

# Fields of the Vlasov structural key that are plain config attributes;
# the grid knobs from ``extra`` are appended by the key function.
VLASOV_STRUCTURAL_FIELDS = (
    "box_length",
    "n_cells",
    "dt",
    "qm",
    "poisson_solver",
    "gradient",
    "dtype",
)


# Rank count of the simulated-MPI family, read from ``config.extra``
# (``extra`` participates in equality and cache keys, so runs over
# different decompositions never share a store slot).
MPI_DEFAULT_N_RANKS = 4


def mpi_rank_params(config: SimulationConfig) -> int:
    """``n_ranks`` of a config's simulated-MPI decomposition.

    Read from ``config.extra["n_ranks"]`` (default
    :data:`MPI_DEFAULT_N_RANKS`); malformed or non-positive values, or
    more ranks than ``config.n_cells`` (each rank owns at least one
    cell), raise ``ValueError`` so every entry point rejects them at
    parse/submit time.
    """
    value = config.extra.get("n_ranks", MPI_DEFAULT_N_RANKS)
    try:
        as_number = float(value)
        n_ranks = int(as_number)
    except (TypeError, ValueError, OverflowError):  # NaN, infinities, huge integers
        raise ValueError(
            f"malformed n_ranks in config.extra (must be an integer), got {value!r}"
        ) from None
    if n_ranks != as_number:
        raise ValueError(
            f"malformed n_ranks in config.extra (must be an integer), got {value!r}"
        )
    if n_ranks < 1:
        raise ValueError(f"solver='mpi' needs n_ranks >= 1, got {n_ranks}")
    if n_ranks > config.n_cells:
        raise ValueError(
            f"solver='mpi' needs n_ranks <= n_cells, cannot split "
            f"{config.n_cells} cells over {n_ranks} ranks"
        )
    return n_ranks


def _is_finite_real(value: object) -> bool:
    """Whether ``value`` is a real number, not a bool, that converts to a
    finite float.  The comparisons never convert: NaN fails them, and an
    infinity or an integer too large for a float (``math.isfinite``
    raises ``OverflowError`` on it) falls outside the float range."""
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


# Picard iteration knobs of the energy-conserving family, read from
# ``config.extra`` like the rank count above.
ENERGY_DEFAULT_PICARD_MAX_ITERATIONS = 12
ENERGY_DEFAULT_PICARD_TOLERANCE = 1e-12


def energy_picard_params(config: SimulationConfig) -> "tuple[int, float]":
    """``(max_iterations, tolerance)`` of a config's Picard iteration.

    The one check of the ``energy`` knobs, read by submit-time
    validation and the engine alike: ``extra["picard_max_iterations"]``
    (default :data:`ENERGY_DEFAULT_PICARD_MAX_ITERATIONS`) must be an
    integer >= 1, not a bool, and ``extra["picard_tolerance"]``
    (default :data:`ENERGY_DEFAULT_PICARD_TOLERANCE`) a finite number
    > 0.  Anything else raises ``ValueError`` naming the knob.
    """
    max_iterations = config.extra.get(
        "picard_max_iterations", ENERGY_DEFAULT_PICARD_MAX_ITERATIONS
    )
    tolerance = config.extra.get("picard_tolerance", ENERGY_DEFAULT_PICARD_TOLERANCE)
    if (
        isinstance(max_iterations, bool)
        or not isinstance(max_iterations, numbers.Integral)
        or max_iterations < 1
    ):
        raise ValueError(
            "malformed picard_max_iterations in config.extra (must be an "
            f"integer >= 1), got {max_iterations!r}"
        )
    if not _is_finite_real(tolerance) or tolerance <= 0:
        raise ValueError(
            "malformed picard_tolerance in config.extra (must be a finite "
            f"number > 0), got {tolerance!r}"
        )
    return int(max_iterations), float(tolerance)


def vlasov_grid_params(config: SimulationConfig) -> "tuple[int, float, float]":
    """``(n_v, v_min, v_max)`` of a config's Vlasov velocity grid.

    The one check of the grid knobs: every entry point — request
    parsing, service submission, engine construction, the distribution
    loader — reads them here.  A non-numeric or non-integral ``n_v``,
    a window bound no float holds finitely, ``n_v < 2`` or an empty
    window raise ``ValueError`` (never ``TypeError`` or
    ``OverflowError``).
    """
    raw = {
        "n_v": config.extra.get("n_v", VLASOV_DEFAULT_N_V),
        "v_min": config.extra.get("v_min", VLASOV_DEFAULT_V_MIN),
        "v_max": config.extra.get("v_max", VLASOV_DEFAULT_V_MAX),
    }
    for name, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(
                f"malformed Vlasov grid knob {name} in config.extra "
                f"(n_v/v_min/v_max must be numeric), got {value!r}"
            )
    if not _is_finite_real(raw["n_v"]) or int(raw["n_v"]) != raw["n_v"]:
        raise ValueError(
            f"malformed n_v in config.extra (must be an integer), got {raw['n_v']!r}"
        )
    n_v = int(raw["n_v"])
    if not (_is_finite_real(raw["v_min"]) and _is_finite_real(raw["v_max"])):
        raise ValueError(f"non-finite velocity window [{raw['v_min']}, {raw['v_max']}]")
    v_min, v_max = float(raw["v_min"]), float(raw["v_max"])
    if n_v < 2:
        raise ValueError(f"velocity grid too small: n_v={n_v}")
    if v_max <= v_min:
        raise ValueError(f"empty velocity window [{v_min}, {v_max}]")
    return n_v, v_min, v_max


def _pic_structural_key(config: SimulationConfig) -> Hashable:
    return tuple(getattr(config, name) for name in STRUCTURAL_FIELDS)


def _vlasov_structural_key(config: SimulationConfig) -> Hashable:
    return tuple(
        getattr(config, name) for name in VLASOV_STRUCTURAL_FIELDS
    ) + vlasov_grid_params(config)


class Engine:
    """Base class of every engine family: the member check and the run loop.

    ``configs`` holds one :class:`SimulationConfig` per batched member
    (``config`` is the structural reference, ``batch`` the count).  A
    subclass calls ``super().__init__(configs)``, supplies :meth:`step`
    (one cycle) and keeps the state the observables read:
    ``step_index``, ``time``, ``grid`` and the current ``(batch,
    n_cells)`` ``efield``, plus ``particles`` and
    ``v_at_integer_time`` on a particle engine.  :meth:`run` is the one
    loop every family shares; it hands the engine itself to
    :meth:`Observables.record_frame` before the first step and after
    every step.

    The structural key every member must share is ``_structural_key``
    (the registry's key function of the family), whose entries are
    named by ``_structural_fields``.
    """

    configs: "tuple[SimulationConfig, ...]"
    config: SimulationConfig
    batch: int
    efield: np.ndarray

    _structural_fields: "tuple[str, ...]" = STRUCTURAL_FIELDS
    _structural_key = staticmethod(_pic_structural_key)

    def __init__(self, configs: "SimulationConfig | Sequence[SimulationConfig]") -> None:
        if isinstance(configs, SimulationConfig):
            configs = (configs,)
        self.configs = tuple(configs)
        if not self.configs:
            raise ValueError("ensemble needs at least one configuration")
        ref = self.configs[0]
        ref_key = self._structural_key(ref)
        for i, cfg in enumerate(self.configs[1:], 1):
            for name, got, want in zip(
                self._structural_fields, self._structural_key(cfg), ref_key
            ):
                if got != want:
                    raise ValueError(
                        f"ensemble member {i} differs from member 0 in structural "
                        f"field {name!r}: {got!r} != {want!r}"
                    )
        self.config = ref  # structural reference member
        self.batch = len(self.configs)

    def step(self) -> None:
        """Advance every member one cycle."""
        raise NotImplementedError

    def observables(self) -> Observables:
        """A fresh default recorder: energies, momentum and ``mode1``."""
        return Observables(resolve_observables(None))

    def run(
        self,
        n_steps: "int | None" = None,
        history: "Observables | None" = None,
        callback: "Callable[[Engine], None] | None" = None,
    ) -> Observables:
        """Run ``n_steps`` cycles, recording observables at every step.

        The history includes the initial state, so it holds
        ``n_steps + 1`` records.  Pass any :class:`Observables`
        pipeline (e.g. one built from a request's observables
        selection) to record custom measurements.  ``callback`` fires
        with the engine after every step and its record; its callers
        are :func:`repro.service.executor.run_group_task` (the step
        clock of traced groups) and
        :func:`repro.vlasov.harvest.harvest_vlasov_ensemble`.
        ``n_steps=None`` runs ``config.n_steps``, which every member
        must then agree on.
        """
        if n_steps is None:
            if any(cfg.n_steps != self.config.n_steps for cfg in self.configs):
                raise ValueError(
                    "ensemble members disagree on config.n_steps; "
                    "pass n_steps to run() explicitly"
                )
            n_steps = self.config.n_steps
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        hist = history if history is not None else self.observables()
        hist.reserve(len(hist) + n_steps + 1)  # stream into one preallocated buffer
        hist.record_frame(self)
        for _ in range(n_steps):
            self.step()
            hist.record_frame(self)
            if callback is not None:
                callback(self)
        return hist


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine family.

    ``build`` constructs the engine from a config sequence (plus the
    keyword context :func:`make_engine` forwards: ``dl_solver``,
    ``rngs``); ``structural_key`` maps a config to the hashable tuple
    every co-batched member must share; ``validate`` fails fast on a
    config the family cannot run (called at service submit time).
    ``kind`` names the family's state representation — ``"pic"``
    (particle frames) or ``"vlasov"`` (phase-space density frames) —
    and picks the right measurement for kind-dependent observables
    (see :func:`repro.engines.observables.resolve_observables`).

    ``dtypes`` declares the numerical tiers the family can run;
    :func:`require_tier` rejects anything else at submit time with a
    message derived from the registry, so the error always names which
    families *do* support the requested tier (and never goes stale as
    tiers expand).
    """

    name: str
    build: "Callable[..., Engine]"
    structural_key: "Callable[[SimulationConfig], Hashable]"
    validate: "Callable[[SimulationConfig], None] | None" = None
    kind: str = "pic"
    dtypes: "tuple[str, ...]" = ("float64",)


_ENGINES: "dict[str, EngineSpec]" = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Register an engine family under ``spec.name``."""
    if spec.name in _ENGINES:
        raise ValueError(f"engine {spec.name!r} is already registered")
    _ENGINES[spec.name] = spec
    return spec


def available_engines() -> "tuple[str, ...]":
    """Sorted names of every registered engine family."""
    return tuple(sorted(_ENGINES))


def get_engine_spec(name: str) -> EngineSpec:
    """Look up a registered family; unknown names raise ``ValueError``."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; available: {', '.join(available_engines())}"
        ) from None


def validate_engine_config(config: SimulationConfig) -> EngineSpec:
    """Fail fast if ``config`` cannot be served by its solver family."""
    spec = get_engine_spec(config.solver)
    if spec.validate is not None:
        spec.validate(config)
    return spec


def structural_key(config: SimulationConfig) -> Hashable:
    """The structural-compatibility tuple of ``config``'s engine family."""
    return get_engine_spec(config.solver).structural_key(config)


def engine_group_key(config: SimulationConfig) -> Hashable:
    """Compatibility bucket of a run request (hashable tuple).

    Two configs may share one engine execution exactly when their
    group keys match: same solver family, same structural fields and
    the same ``n_steps`` (one ``run()`` call per batch).
    """
    return (config.solver, structural_key(config), config.n_steps)


def make_engine(
    configs: "SimulationConfig | Sequence[SimulationConfig]",
    dl_solver: "object | None" = None,
    rngs: "Sequence[int | np.random.Generator | None] | None" = None,
) -> Engine:
    """Build the engine named by the configs' ``solver`` field.

    ``configs`` may be a single config (a batch of one) or a sequence
    of structurally compatible configs that advance together.  Every
    member must name the same solver family; ``dl_solver`` backs the
    ``dl`` family and is ignored by the others.  The returned engine's
    row ``b`` is bitwise identical to running ``configs[b]`` alone.
    """
    if isinstance(configs, SimulationConfig):
        configs = (configs,)
    configs = tuple(configs)
    if not configs:
        raise ValueError("make_engine needs at least one configuration")
    solver = configs[0].solver
    for i, cfg in enumerate(configs[1:], 1):
        if cfg.solver != solver:
            raise ValueError(
                f"engine member {i} names solver {cfg.solver!r}, member 0 names "
                f"{solver!r}; one engine serves one family"
            )
    spec = get_engine_spec(solver)
    return spec.build(configs, dl_solver=dl_solver, rngs=rngs)


# ----------------------------------------------------------------------
# Built-in families (engine classes import lazily: this module stays a
# leaf so config/diagnostics shims can import it without cycles)


def _families_supporting(dtype: str) -> "tuple[str, ...]":
    """Registered families whose ``dtypes`` include ``dtype``."""
    return tuple(
        name for name in available_engines() if dtype in _ENGINES[name].dtypes
    )


def require_tier(config: SimulationConfig) -> None:
    """Reject dtype tiers the config's family does not declare.

    The error message is derived from the registry: it names the tiers
    the family *does* support and the families that support the
    requested one, so it stays accurate as the support matrix grows.
    """
    spec = get_engine_spec(config.solver)
    if config.dtype not in spec.dtypes:
        supporters = _families_supporting(config.dtype)
        raise ValueError(
            f"solver={config.solver!r} supports dtype tier(s) "
            f"{', '.join(spec.dtypes)}, got dtype={config.dtype!r} "
            f"(dtype={config.dtype!r} is available for: "
            f"{', '.join(supporters) if supporters else 'no registered family'})"
        )


def _pic_validate(config: SimulationConfig) -> None:
    from repro.pic.scenarios import get_scenario

    require_tier(config)
    get_scenario(config.scenario)


def _build_traditional(
    configs: "tuple[SimulationConfig, ...]",
    dl_solver: "object | None" = None,
    rngs: "Sequence[int | np.random.Generator | None] | None" = None,
) -> Engine:
    from repro.pic.simulation import EnsembleSimulation

    return EnsembleSimulation(configs, rngs=rngs)


def _dl_validate(config: SimulationConfig) -> None:
    _pic_validate(config)


def _build_dl(
    configs: "tuple[SimulationConfig, ...]",
    dl_solver: "object | None" = None,
    rngs: "Sequence[int | np.random.Generator | None] | None" = None,
) -> Engine:
    from repro.dlpic.simulation import DLEnsemble

    if dl_solver is None:
        raise ValueError(
            "solver='dl' needs a DLFieldSolver; pass dl_solver=... to make_engine"
        )
    return DLEnsemble(configs, dl_solver, rngs=rngs)


def _energy_validate(config: SimulationConfig) -> None:
    _pic_validate(config)
    energy_picard_params(config)


def _build_energy(
    configs: "tuple[SimulationConfig, ...]",
    dl_solver: "object | None" = None,
    rngs: "Sequence[int | np.random.Generator | None] | None" = None,
) -> Engine:
    from repro.pic.energy_conserving import EnergyConservingEnsemble

    return EnergyConservingEnsemble(configs, rngs=rngs)


def _mpi_validate(config: SimulationConfig) -> None:
    _pic_validate(config)
    mpi_rank_params(config)


def _build_mpi(
    configs: "tuple[SimulationConfig, ...]",
    dl_solver: "object | None" = None,
    rngs: "Sequence[int | np.random.Generator | None] | None" = None,
) -> Engine:
    from repro.parallel.picparallel import MPIEnsemble

    return MPIEnsemble(configs, rngs=rngs)


def _vlasov_validate(config: SimulationConfig) -> None:
    from repro.pic.scenarios import get_distribution

    require_tier(config)
    get_distribution(config.scenario)
    if config.vth <= 0:
        raise ValueError(
            f"solver='vlasov' needs vth > 0 (a cold delta beam is not representable "
            f"on a velocity grid), got {config.vth}"
        )
    vlasov_grid_params(config)  # fail fast on a malformed velocity grid


def _build_vlasov(
    configs: "tuple[SimulationConfig, ...]",
    dl_solver: "object | None" = None,
    rngs: "Sequence[int | np.random.Generator | None] | None" = None,
) -> Engine:
    from repro.vlasov.ensemble import VlasovEnsemble

    return VlasovEnsemble(configs)


register_engine(EngineSpec(
    name="traditional",
    build=_build_traditional,
    structural_key=_pic_structural_key,
    validate=_pic_validate,
    dtypes=("float64", "float32"),
))
register_engine(EngineSpec(
    name="dl",
    build=_build_dl,
    structural_key=_pic_structural_key,
    validate=_dl_validate,
    dtypes=("float64", "float32"),
))
register_engine(EngineSpec(
    name="vlasov",
    build=_build_vlasov,
    structural_key=_vlasov_structural_key,
    validate=_vlasov_validate,
    kind="vlasov",
    dtypes=("float64", "float32"),
))
register_engine(EngineSpec(
    name="energy",
    build=_build_energy,
    structural_key=_pic_structural_key,
    validate=_energy_validate,
))
register_engine(EngineSpec(
    name="mpi",
    build=_build_mpi,
    structural_key=_pic_structural_key,
    validate=_mpi_validate,
))
