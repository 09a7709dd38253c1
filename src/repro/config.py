"""Simulation configuration dataclasses.

:class:`SimulationConfig` captures every knob of a single 1D
electrostatic PIC run.  The defaults reproduce the paper's setup
(Sec. III): ``L = 2*pi/3.06``, 64 cells, 1,000 electrons per cell,
``dt = 0.2`` and the validation beams ``v0 = +/-0.2``, ``vth = 0.025``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

import numpy as np

from repro import constants


def _canonical(value: Any) -> Any:
    """Order-independent, hashable canonical form of an ``extra`` value.

    Dicts become sorted ``(key, value)`` tuples, sequences become
    tuples, scalars pass through — so two configs whose ``extra`` dicts
    hold the same content in different insertion order (or with lists
    vs tuples) compare and hash equal.
    """
    if isinstance(value, Mapping):
        return ("__map__",) + tuple(
            sorted((str(k), _canonical(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return ("__seq__",) + tuple(_canonical(v) for v in value)
    return value


def _check_string_keys(value: Any) -> None:
    """Require string keys in ``extra`` (recursively).

    JSON only has string keys, and allowing e.g. ``1`` alongside
    ``"1"`` would let two unequal configs serialize to the same cache
    key — the one collision the content-addressed store must never
    have.
    """
    if isinstance(value, Mapping):
        for k, v in value.items():
            if not isinstance(k, str):
                raise ValueError(
                    f"extra keys must be strings, got {k!r} ({type(k).__name__})"
                )
            _check_string_keys(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _check_string_keys(v)


# Numeric fields, checked for type (and finiteness) before any range check.
_REAL_FIELDS = ("box_length", "dt", "v0", "vth", "qm", "perturbation")
_INTEGER_FIELDS = ("n_cells", "particles_per_cell", "n_steps", "perturbation_mode", "seed")


def _json_ready(value: Any) -> Any:
    """JSON-safe form whose serialization matches python equality.

    Python compares ``True == 1 == 1.0``, so numbers that equal an
    integer collapse to that integer (bools first: ``bool`` is an
    ``int`` subclass) and mapping keys become strings — two configs
    that compare equal always serialize, and therefore cache-key, the
    same.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, Mapping):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Parameters of a single two-stream PIC simulation.

    Attributes
    ----------
    box_length:
        Periodic domain size ``L``.
    n_cells:
        Number of grid cells (and grid nodes, the grid is periodic).
    particles_per_cell:
        Electron macro-particles per cell; total is ``n_cells * ppc``.
    dt:
        Time step.
    n_steps:
        Default number of PIC cycles for :meth:`run`.
    v0:
        Beam drift speed; the two beams move at ``+v0`` and ``-v0``.
    vth:
        Thermal spread (standard deviation of the Gaussian velocity
        perturbation added to each beam).
    qm:
        Charge-to-mass ratio of the electrons (sign included).
    interpolation:
        Particle-grid shape function: ``"ngp"``, ``"cic"`` or ``"tsc"``.
        Used for both gather and deposit (momentum-conserving pairing).
    poisson_solver:
        ``"spectral"`` (exact ``k**2``), ``"fd"`` (FFT-diagonalized
        second-order finite differences) or ``"direct"`` (banded LU).
    gradient:
        How ``E = -grad(phi)`` is discretized: ``"central"`` or
        ``"spectral"``.
    loading:
        ``"random"`` (paper: uniform random positions) or ``"quiet"``
        (evenly spaced positions per beam, optionally perturbed).
    perturbation:
        Relative amplitude of a sinusoidal density perturbation of mode
        ``perturbation_mode`` applied at loading (0 disables it; the
        paper relies on particle noise, so the default is 0).
    perturbation_mode:
        Mode number of the seeded perturbation.
    seed:
        RNG seed for particle loading.
    scenario:
        Name of the registered initial-condition scenario to load
        (``repro.pic.scenarios``): ``"two_stream"`` (the paper's
        setup, the default), ``"cold_beam"``, ``"landau_damping"``,
        ``"bump_on_tail"`` or ``"random_perturbation"``.  Membership is
        validated against the registry at load time so user-registered
        scenarios round-trip through the config unhindered.
    solver:
        Engine family that runs this config (``repro.engines``):
        ``"traditional"`` (the default explicit PIC cycle), ``"dl"``
        (neural field solve), ``"vlasov"`` (noise-free
        semi-Lagrangian phase-space solve; reads its velocity-grid
        knobs ``n_v``/``v_min``/``v_max`` from ``extra``) or
        ``"energy"`` (energy-conserving implicit-midpoint PIC).
        Validated against the engine registry at build time, so
        user-registered engines round-trip through the config
        unhindered.
    dtype:
        Numerical tier of the run: ``"float64"`` (the default; every
        engine guarantees bitwise-reproducible results) or
        ``"float32"`` (half-cost serving for requests that opt out of
        the bitwise guarantee; supported by the ``traditional``,
        ``vlasov`` and ``dl`` families — each engine family declares
        its tiers in the registry (``EngineSpec.dtypes``) — and
        regression-gated by a documented parity band against
        float64).  The tier is a
        *structural* field: it is part of the engine compatibility key
        and of every cache/store key, so float32 results can never be
        served for a float64 request or vice versa.
    backend:
        Kept for the v1 wire format: its one accepted value is
        ``"numpy"``, and anything else raises ``ValueError``.  How the
        kernels execute is a property of each engine class
        (``repro.kernels``), not a config choice; the key stays so that
        every cache and store key is unchanged.
    extra:
        Free-form scenario parameters (e.g. ``bump_fraction`` for
        ``bump_on_tail``).  Must be a JSON-style dict; it participates
        in equality, hashing and :meth:`cache_key` through a
        canonicalized (order-independent) form, so two configs that
        differ only in ``extra`` are *different* runs.
    """

    box_length: float = constants.TWO_STREAM_BOX_LENGTH
    n_cells: int = constants.PAPER_N_CELLS
    particles_per_cell: int = constants.PAPER_PARTICLES_PER_CELL
    dt: float = constants.PAPER_DT
    n_steps: int = constants.PAPER_N_STEPS
    v0: float = constants.PAPER_VALIDATION_V0
    vth: float = constants.PAPER_VALIDATION_VTH
    qm: float = constants.ELECTRON_QM
    interpolation: str = "cic"
    poisson_solver: str = "spectral"
    gradient: str = "central"
    loading: str = "random"
    perturbation: float = 0.0
    perturbation_mode: int = 1
    seed: int = 0
    scenario: str = "two_stream"
    solver: str = "traditional"
    dtype: str = "float64"
    backend: str = "numpy"
    # Identity (eq/hash/cache_key) is hand-rolled below so the mutable
    # extra dict can participate through its canonicalized form.
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not isinstance(value, numbers.Integral) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # A numpy scalar is stored as its Python value, so the config
        # serializes and keys like its plain-Python twin.
        for name in _INTEGER_FIELDS + _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, np.generic):
                object.__setattr__(self, name, value.item())
        if self.box_length <= 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")
        if self.particles_per_cell < 1:
            raise ValueError(f"particles_per_cell must be >= 1, got {self.particles_per_cell}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.vth < 0:
            raise ValueError(f"vth must be non-negative, got {self.vth}")
        if self.interpolation not in ("ngp", "cic", "tsc"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        if self.poisson_solver not in ("spectral", "fd", "direct"):
            raise ValueError(f"unknown poisson_solver {self.poisson_solver!r}")
        if self.gradient not in ("central", "spectral"):
            raise ValueError(f"unknown gradient {self.gradient!r}")
        if self.loading not in ("random", "quiet"):
            raise ValueError(f"unknown loading {self.loading!r}")
        if not isinstance(self.scenario, str) or not self.scenario:
            raise ValueError(f"scenario must be a non-empty string, got {self.scenario!r}")
        if not isinstance(self.solver, str) or not self.solver:
            raise ValueError(f"solver must be a non-empty string, got {self.solver!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"unknown dtype {self.dtype!r}; expected 'float32' or 'float64'"
            )
        if self.backend != "numpy":
            raise ValueError(
                f"unknown backend {self.backend!r}; the only kernel backend is 'numpy'"
            )
        if not isinstance(self.extra, dict):
            raise ValueError(f"extra must be a dict, got {type(self.extra).__name__}")
        _check_string_keys(self.extra)

    # -- identity --------------------------------------------------------
    def _identity(self) -> tuple:
        """Value tuple that defines equality/hashing (canonical ``extra``)."""
        vals = tuple(
            getattr(self, f.name) for f in fields(self) if f.name != "extra"
        )
        return vals + (_canonical(self.extra),)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    @property
    def np_dtype(self) -> "np.dtype":
        """The numpy dtype of this config's numerical tier."""
        return np.dtype(np.float32 if self.dtype == "float32" else np.float64)

    @property
    def n_particles(self) -> int:
        """Total number of electron macro-particles."""
        return self.n_cells * self.particles_per_cell

    @property
    def dx(self) -> float:
        """Grid spacing."""
        return self.box_length / self.n_cells

    @property
    def particle_charge(self) -> float:
        """Macro-particle charge; mean electron density is exactly -1."""
        return -self.box_length / self.n_particles

    @property
    def particle_mass(self) -> float:
        """Macro-particle mass, consistent with ``qm``."""
        return self.particle_charge / self.qm

    def with_updates(self, **kwargs: Any) -> "SimulationConfig":
        """Return a copy with the given fields replaced.

        ``extra`` is always deep-copied into the new config (whether
        inherited or passed in), so no two configs ever alias the same
        mutable dict — mutating one run's scenario parameters cannot
        silently retag another's.
        """
        kwargs["extra"] = copy.deepcopy(kwargs.get("extra", self.extra))
        return replace(self, **kwargs)

    # -- canonical serialization ----------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """All fields as a JSON-style dict (``extra`` deep-copied).

        Together with :meth:`from_dict` this is an exact round trip:
        ``SimulationConfig.from_dict(cfg.to_dict()) == cfg`` for every
        valid config.  This is the service request format and the basis
        of :meth:`cache_key`.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["extra"] = copy.deepcopy(self.extra)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Build a config from a :meth:`to_dict`-style mapping.

        Missing fields take their defaults; unknown keys are rejected
        (a typo like ``nsteps`` must not silently produce the default
        run).  The provided ``extra`` dict is deep-copied.
        """
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(
                f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(sorted(names))}"
            )
        kwargs = dict(data)
        if "extra" in kwargs:
            if not isinstance(kwargs["extra"], Mapping):
                raise ValueError(
                    f"extra must be a mapping, got {type(kwargs['extra']).__name__}"
                )
            kwargs["extra"] = copy.deepcopy(dict(kwargs["extra"]))
        return cls(**kwargs)

    def cache_key(self) -> str:
        """Content hash of the canonical serialization (hex sha256).

        Two equal configs map to the same key, and any field difference
        — including ``extra`` — changes it, so a result store keyed by
        ``cache_key`` can never serve the wrong run.  Requires ``extra``
        to be JSON-serializable.
        """
        try:
            payload = json.dumps(
                _json_ready(self.to_dict()), sort_keys=True, separators=(",", ":")
            )
        except TypeError as exc:
            raise ValueError(
                f"config.extra is not JSON-serializable, cannot build a cache key: {exc}"
            ) from None
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def paper_validation_config(seed: int = 0, **overrides: Any) -> SimulationConfig:
    """Configuration of Figs. 4-5: ``v0 = 0.2``, ``vth = 0.025``."""
    cfg = SimulationConfig(
        v0=constants.PAPER_VALIDATION_V0,
        vth=constants.PAPER_VALIDATION_VTH,
        seed=seed,
    )
    return cfg.with_updates(**overrides) if overrides else cfg


def paper_coldbeam_config(seed: int = 0, **overrides: Any) -> SimulationConfig:
    """Configuration of Fig. 6: ``v0 = 0.4``, ``vth = 0`` (cold beams)."""
    cfg = SimulationConfig(
        v0=constants.PAPER_COLDBEAM_V0,
        vth=constants.PAPER_COLDBEAM_VTH,
        seed=seed,
    )
    return cfg.with_updates(**overrides) if overrides else cfg
