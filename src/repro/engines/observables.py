"""The streaming observables pipeline shared by every engine.

Historically each engine family recorded diagnostics its own way: the
single-run PIC cycle appended scalars to ``History`` lists, the batched
ensemble appended ``(batch,)`` vectors to ``EnsembleHistory`` lists and
the Vlasov solver kept a private dict of Python lists.  This module
replaces all three with one pipeline:

* an :class:`Observable` is a pluggable per-step measurement — it
  receives a :class:`Frame` (the engine state at one record point) and
  emits one or more named ``(batch, ...)`` values;
* :class:`Observables` drives a set of observables and streams their
  values into preallocated ``(n_records, batch, ...)`` buffers (engines
  call :meth:`Observables.reserve` with ``n_steps + 1`` before a run,
  so the steady-state cost per record is pure numpy writes — no Python
  list appends, no reallocation);
* the *observable registry* at the bottom exposes pluggable, named
  measurements (``"energies"``, ``"mode<k>"``, ``"fields"``,
  ``"phase_space"``, ``"training_pairs"``) that public API v1 requests
  select per run; :func:`resolve_observables` builds a pipeline from a
  selection for any engine family.

Every default series produced here is bitwise identical to what the
pre-pipeline recorders produced: the measurements below are the exact
functions the old recorders called, in the same order, and the paper
monitors them in Figs. 4-6 (fundamental mode amplitude ``E1``, total
energy, total momentum).  The deprecated ``History`` /
``EnsembleHistory`` wrapper classes were retired after one release;
build an :class:`Observables` (or take one from
``engine.observables()``) instead.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

import numpy as np

from repro import constants
from repro.kernels.workspace import Workspace

if TYPE_CHECKING:
    from repro.pic.grid import Grid1D
    from repro.pic.particles import ParticleSet

SCALAR_SERIES = ("kinetic", "potential", "total", "momentum", "mode1")


# ----------------------------------------------------------------------
# Scalar diagnostics (single run)


def kinetic_energy(particles: "ParticleSet", v: "np.ndarray | None" = None) -> float:
    """Total kinetic energy ``sum(m v^2 / 2)``.

    ``v`` overrides the stored velocities (used to evaluate energy at
    integer time from time-centered leapfrog velocities).
    """
    vel = particles.v if v is None else v
    return float(0.5 * particles.mass * np.sum(vel * vel))


def field_energy(grid: "Grid1D", e: np.ndarray, eps0: float = constants.EPSILON_0) -> float:
    """Electrostatic field energy ``(eps0/2) * integral(E^2 dx)``."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (grid.n_cells,):
        raise ValueError(f"E has shape {e.shape}, expected ({grid.n_cells},)")
    return float(0.5 * eps0 * np.sum(e * e) * grid.dx)


def total_momentum(particles: "ParticleSet", v: "np.ndarray | None" = None) -> float:
    """Total mechanical momentum ``sum(m v)``."""
    vel = particles.v if v is None else v
    return float(particles.mass * np.sum(vel))


def mode_amplitude(e: np.ndarray, mode: int = 1) -> float:
    """Amplitude of Fourier mode ``mode`` of a grid field.

    Normalized so a field ``A*sin(k_m x)`` returns ``A``; this is the
    ``E1`` series plotted in the paper's Fig. 4 (bottom panel).
    """
    e = np.asarray(e, dtype=np.float64)
    n = e.shape[0]
    if not 0 <= mode <= n // 2:
        raise ValueError(f"mode {mode} out of range for {n} cells")
    coeff = np.fft.rfft(e)[mode]
    if mode == 0 or (n % 2 == 0 and mode == n // 2):
        return float(abs(coeff)) / n
    return float(2.0 * abs(coeff) / n)


def mode_spectrum(e: np.ndarray) -> np.ndarray:
    """Amplitudes of all resolvable modes ``0..n//2`` (same norm)."""
    e = np.asarray(e, dtype=np.float64)
    n = e.shape[0]
    coeff = np.abs(np.fft.rfft(e)) / n
    coeff[1:] *= 2.0
    if n % 2 == 0:
        coeff[-1] /= 2.0
    return coeff


# ----------------------------------------------------------------------
# Row diagnostics (batched ensembles; row b bitwise equals the scalar
# function applied to member b alone)


def kinetic_energy_rows(particles: "ParticleSet", v: "np.ndarray | None" = None) -> np.ndarray:
    """Per-run kinetic energy of a (possibly batched) particle set.

    Returns shape ``(batch,)``; for a 1-D set this is ``(1,)`` and the
    single entry is bitwise equal to :func:`kinetic_energy`.
    """
    vel = np.atleast_2d(particles.v if v is None else v)
    return 0.5 * particles.mass * np.sum(vel * vel, axis=-1)


def field_energy_rows(
    grid: "Grid1D", e: np.ndarray, eps0: float = constants.EPSILON_0
) -> np.ndarray:
    """Per-run electrostatic energy of ``(batch, n_cells)`` fields.

    Dtype-following: float32 fields (the reduced-precision serving
    tier) are measured — and recorded — in float32; everything else is
    coerced to float64 exactly as before, so float64 output is bitwise
    unchanged.
    """
    e = np.atleast_2d(np.asarray(e))
    if e.dtype != np.float32:
        e = np.asarray(e, dtype=np.float64)
    if e.shape[-1] != grid.n_cells:
        raise ValueError(f"E has shape {e.shape}, expected (batch, {grid.n_cells})")
    return 0.5 * eps0 * np.sum(e * e, axis=-1) * grid.dx


def total_momentum_rows(particles: "ParticleSet", v: "np.ndarray | None" = None) -> np.ndarray:
    """Per-run mechanical momentum, shape ``(batch,)``."""
    vel = np.atleast_2d(particles.v if v is None else v)
    return particles.mass * np.sum(vel, axis=-1)


def mode_amplitude_rows(e: np.ndarray, mode: int = 1) -> np.ndarray:
    """Per-run Fourier-mode amplitude of ``(batch, n_cells)`` fields.

    Same normalization as :func:`mode_amplitude` (``A*sin(k_m x)``
    returns ``A`` in every row).  Fully vectorized: the FFT batches
    along the last axis and the magnitude is ``hypot(re, im)`` — the
    same libm call Python's scalar complex ``abs`` makes — so every row
    stays bitwise equal to the scalar :func:`mode_amplitude` (the
    guarantee the ensemble engine documents; the regression test pits
    this against the historical per-row Python loop).

    Dtype-following like :func:`field_energy_rows`: float32 fields run
    a single-precision FFT (complex64) and return float32 amplitudes.
    """
    e = np.atleast_2d(np.asarray(e))
    if e.dtype != np.float32:
        e = np.asarray(e, dtype=np.float64)
    n = e.shape[-1]
    if not 0 <= mode <= n // 2:
        raise ValueError(f"mode {mode} out of range for {n} cells")
    coeff = np.fft.rfft(e, axis=-1)[..., mode]
    amp = np.hypot(coeff.real, coeff.imag)
    if mode == 0 or (n % 2 == 0 and mode == n // 2):
        return amp / n
    return 2.0 * amp / n


# ----------------------------------------------------------------------
# Frames and observables


class Frame:
    """One engine state handed to the observables at a record point.

    A frame is engine-agnostic: PIC engines populate ``particles`` and
    ``v_center``, the Vlasov engines populate the phase-space density
    ``f`` with its velocity grid.  ``efield`` is always present —
    ``(batch, n_cells)`` stacked (engines record a single run as a
    batch of one), or 1-D in a hand-built single-run frame — and every
    observable reads only the attributes it needs.
    """

    __slots__ = (
        "step", "time", "grid", "efield", "particles", "v_center",
        "f", "v_centers", "dx", "dv",
    )

    def __init__(
        self,
        step: int,
        time: float,
        grid: "Grid1D",
        efield: np.ndarray,
        particles: "ParticleSet | None" = None,
        v_center: "np.ndarray | None" = None,
        f: "np.ndarray | None" = None,
        v_centers: "np.ndarray | None" = None,
        dx: "float | None" = None,
        dv: "float | None" = None,
    ) -> None:
        self.step = step
        self.time = time
        self.grid = grid
        self.efield = efield
        self.particles = particles
        self.v_center = v_center
        self.f = f
        self.v_centers = v_centers
        self.dx = dx
        self.dv = dv

    @property
    def batch(self) -> int:
        """Number of stacked runs in this frame (1 for 1-D fields)."""
        return self.efield.shape[0] if self.efield.ndim == 2 else 1


class Observable(Protocol):
    """A pluggable per-step measurement.

    ``names`` lists the series this observable emits; ``measure``
    returns one ``(batch, ...)`` array per name — as a mapping keyed by
    name, as a tuple aligned with ``names``, or (for single-series
    observables) as the bare array.  The aligned forms skip a dict
    construction per record, which matters on the streaming hot path.
    Emitting several series from one call lets related quantities share
    intermediate results (e.g. ``total = kinetic + potential`` reuses
    both energies) exactly like the legacy recorders did.
    """

    names: tuple[str, ...]

    def measure(
        self, frame: Frame
    ) -> "dict[str, np.ndarray] | tuple[np.ndarray, ...] | np.ndarray":
        """Measure this observable on one frame."""
        ...


def _as_named(obs: "Observable", values: object) -> "dict[str, np.ndarray]":
    """Normalize any legal ``measure`` return into a name-keyed dict."""
    if isinstance(values, dict):
        return values
    if len(obs.names) == 1 and not isinstance(values, (tuple, list)):
        return {obs.names[0]: values}
    return dict(zip(obs.names, values))


class ParticleEnergyMomentum:
    """Kinetic/field/total energy and momentum of a PIC frame."""

    names = ("kinetic", "potential", "total", "momentum")

    def __init__(self, eps0: float = constants.EPSILON_0) -> None:
        self.eps0 = eps0

    def measure(self, frame: Frame) -> "tuple[np.ndarray, ...]":
        ke = kinetic_energy_rows(frame.particles, v=frame.v_center)
        fe = field_energy_rows(frame.grid, frame.efield, eps0=self.eps0)
        return ke, fe, ke + fe, total_momentum_rows(frame.particles, v=frame.v_center)


class VlasovEnergyMomentum:
    """Energy and momentum moments of a Vlasov phase-space frame.

    Per member: kinetic energy ``integral(v^2/2 f dx dv)``, field
    energy ``(1/2) integral(E^2 dx)`` and momentum
    ``integral(v f dx dv)`` with electron mass 1.  Each member reduces
    its own slab in a fixed order, so the moments of a batched frame
    are bitwise those of the member's batch-1 frame.
    """

    names = ("kinetic", "potential", "total", "momentum")

    def measure(self, frame: Frame) -> "tuple[np.ndarray, ...]":
        f = frame.f if frame.f.ndim == 3 else frame.f[None]
        e = np.atleast_2d(frame.efield)
        v = frame.v_centers
        dx, dv = frame.dx, frame.dv
        ke = 0.5 * np.sum(f * (v**2)[:, None], axis=(1, 2)) * dx * dv
        fe = 0.5 * np.sum(e * e, axis=-1) * dx
        return ke, fe, ke + fe, np.sum(f * v[:, None], axis=(1, 2)) * dx * dv


class ModeAmplitude:
    """Fourier-mode amplitude of the field (``mode1`` by default)."""

    def __init__(self, mode: int = 1, name: "str | None" = None) -> None:
        self.mode = mode
        self.names = (name if name is not None else f"mode{mode}",)

    def measure(self, frame: Frame) -> np.ndarray:
        return mode_amplitude_rows(frame.efield, mode=self.mode)


class FieldSnapshot:
    """Per-record copy of the full grid field (memory-hungry; opt-in)."""

    names = ("fields",)

    def measure(self, frame: Frame) -> np.ndarray:
        return np.array(np.atleast_2d(frame.efield), copy=True)


class PhaseSpaceSnapshot:
    """Per-record copy of the Vlasov distribution ``f`` (opt-in)."""

    names = ("f",)

    def measure(self, frame: Frame) -> np.ndarray:
        f = frame.f if frame.f.ndim == 3 else frame.f[None]
        return np.array(f, copy=True)


class TrainingHistograms:
    """Per-record phase-space histograms in the DL training layout.

    Bins every member's ``(x, v)`` phase space on a fixed
    :class:`~repro.phasespace.binning.PhaseSpaceGrid` exactly like the
    data-generation harvest: positions at integer time with the
    trailing half-step velocities — except at the initial record, where
    velocities are still synchronized and the time-centered
    ``frame.v_center`` is used (matching how the DL-PIC computes its
    very first field).  Selecting this observable together with
    ``"fields"`` through the service yields the campaign's
    (histogram, field) training pairs per request.
    """

    names = ("histograms",)

    def __init__(
        self,
        n_x: int,
        n_v: int,
        v_min: float,
        v_max: float,
        box_length: float,
        order: str = "ngp",
    ) -> None:
        from repro.phasespace.binning import BINNING_ORDERS, PhaseSpaceGrid

        if order not in BINNING_ORDERS:
            raise ValueError(
                f"unknown binning order {order!r}; expected one of {BINNING_ORDERS}"
            )
        self.ps_grid = PhaseSpaceGrid(
            n_x=n_x, n_v=n_v, v_min=v_min, v_max=v_max, box_length=box_length
        )
        self.order = order
        # Binning scratch reused by every record of this pipeline.
        self._work = Workspace()

    def measure(self, frame: Frame) -> np.ndarray:
        from repro.phasespace.binning import bin_phase_space_batch

        v = frame.particles.v
        if frame.step == 0 and frame.v_center is not None:
            v = frame.v_center
        x = np.atleast_2d(frame.particles.x)
        return bin_phase_space_batch(
            x, np.atleast_2d(v), self.ps_grid, order=self.order, work=self._work
        )


def pic_observables(record_fields: bool = False) -> "list[Observable]":
    """The default PIC pipeline (energies, momentum and ``mode1``)."""
    obs: "list[Observable]" = [ParticleEnergyMomentum(), ModeAmplitude(mode=1)]
    if record_fields:
        obs.append(FieldSnapshot())
    return obs


def vlasov_observables(
    record_fields: bool = False, record_distribution: bool = False
) -> "list[Observable]":
    """The default Vlasov pipeline (same scalar series as PIC)."""
    obs: "list[Observable]" = [VlasovEnergyMomentum(), ModeAmplitude(mode=1)]
    if record_fields:
        obs.append(FieldSnapshot())
    if record_distribution:
        obs.append(PhaseSpaceSnapshot())
    return obs


# ----------------------------------------------------------------------
# The observable registry: named, per-request-selectable measurements
#
# The public API's ``observables: [...]`` request field resolves here.
# A selection entry is a registered name (``"energies"``), a
# parameterized form (``{"name": "mode", "mode": 3}``) or the
# ``"mode<k>"`` string sugar for it; :func:`canonical_observables`
# normalizes any of these into a sorted, deduplicated tuple of
# ``(name, ((param, value), ...))`` pairs — the form folded into
# service group keys and result-store addresses — and
# :func:`resolve_observables` builds the pipeline for an engine family.


def _build_energies(kind: str) -> Observable:
    return VlasovEnergyMomentum() if kind == "vlasov" else ParticleEnergyMomentum()


def _build_mode(kind: str, mode: int = 1) -> Observable:
    return ModeAmplitude(mode=int(mode))


def _build_fields(kind: str) -> Observable:
    return FieldSnapshot()


def _build_phase_space(kind: str) -> Observable:
    if kind != "vlasov":
        raise ValueError(
            "observable 'phase_space' records the Vlasov distribution f(x, v) "
            f"and is only available for solver kind 'vlasov', not {kind!r}"
        )
    return PhaseSpaceSnapshot()


def _build_training_pairs(
    kind: str,
    n_x: int = 64,
    n_v: int = 64,
    v_min: float = -0.5,
    v_max: float = 0.5,
    box_length: float = constants.TWO_STREAM_BOX_LENGTH,
    order: str = "ngp",
) -> Observable:
    if kind != "pic":
        raise ValueError(
            "observable 'training_pairs' bins particle phase space and is only "
            f"available for particle engine families, not kind {kind!r}"
        )
    return TrainingHistograms(
        n_x=n_x, n_v=n_v, v_min=v_min, v_max=v_max, box_length=box_length, order=order
    )


@dataclass(frozen=True)
class ObservableSpec:
    """One registered, per-request-selectable observable.

    ``build(kind, **params)`` constructs the measurement for an engine
    family's state ``kind`` (``"pic"`` or ``"vlasov"``, see
    :class:`repro.engines.base.EngineSpec`); it raises ``ValueError``
    for families it cannot measure and ``TypeError`` for unknown
    parameters — both surfaced at request-parse/submit time.
    """

    name: str
    build: "Callable[..., Observable]"
    description: str = ""


_OBSERVABLE_SPECS: "dict[str, ObservableSpec]" = {}

#: The selection applied when a request names no observables — exactly
#: the historical default recorders (energies, momentum, ``mode1``).
DEFAULT_OBSERVABLES = ("energies", "mode1")

_MODE_SUGAR = re.compile(r"^mode(\d+)$")


def register_observable(spec: ObservableSpec) -> ObservableSpec:
    """Register a selectable observable under ``spec.name``."""
    if spec.name in _OBSERVABLE_SPECS:
        raise ValueError(f"observable {spec.name!r} is already registered")
    _OBSERVABLE_SPECS[spec.name] = spec
    return spec


def available_observables() -> "tuple[str, ...]":
    """Sorted names of every registered observable."""
    return tuple(sorted(_OBSERVABLE_SPECS))


def canonical_observables(
    selection: "Sequence[object] | None",
) -> "tuple[tuple[str, tuple[tuple[str, object], ...]], ...]":
    """Normalize a request's observables selection.

    ``None`` means :data:`DEFAULT_OBSERVABLES`.  Entries may be
    registered names, ``"mode<k>"`` sugar, or ``{"name": ..., **params}``
    mappings.  The result is sorted and deduplicated — two requests
    selecting the same measurements in any order or spelling share one
    canonical form (and therefore one cache key and one service batch).
    Unknown names raise ``ValueError``.
    """
    entries = []
    for entry in (DEFAULT_OBSERVABLES if selection is None else selection):
        params: "dict[str, object]" = {}
        if isinstance(entry, str):
            name = entry
            sugar = _MODE_SUGAR.match(entry)
            if sugar is not None:
                name, params = "mode", {"mode": int(sugar.group(1))}
        elif isinstance(entry, Mapping):
            params = {str(k): v for k, v in entry.items()}
            name = params.pop("name", None)
            if not isinstance(name, str):
                raise ValueError(
                    f"observable mapping needs a string 'name' field, got {entry!r}"
                )
        elif (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], tuple)
        ):
            # Already-canonical (name, ((param, value), ...)) pair —
            # canonicalization is idempotent.
            name, params = entry[0], dict(entry[1])
        else:
            raise ValueError(
                f"observables entries must be names or mappings, got {entry!r}"
            )
        if name not in _OBSERVABLE_SPECS:
            raise ValueError(
                f"unknown observable {name!r}; available: "
                f"{', '.join(available_observables())} (plus 'mode<k>' sugar)"
            )
        for key, value in params.items():
            if not isinstance(value, (str, int, float, bool)) and value is not None:
                raise ValueError(
                    f"observable {name!r} parameter {key!r} must be a JSON "
                    f"scalar, got {type(value).__name__}"
                )
        entries.append((name, tuple(sorted(params.items()))))
    if not entries:
        raise ValueError("observables selection must not be empty")
    try:
        return tuple(sorted(set(entries)))
    except TypeError as exc:
        # Mixed param value types in one selection (e.g. 3 vs "3").
        raise ValueError(f"observables selection is not orderable: {exc}") from None


def selection_to_jsonable(
    canonical: "Sequence[tuple[str, tuple[tuple[str, object], ...]]]",
) -> "list[object]":
    """The JSON request form of a canonical selection (round-trips)."""
    out: "list[object]" = []
    for name, params in canonical:
        if not params:
            out.append(name)
        elif name == "mode" and len(params) == 1:
            out.append(f"mode{params[0][1]}")
        else:
            out.append({"name": name, **dict(params)})
    return out


def observables_token(
    canonical: "Sequence[tuple[str, tuple[tuple[str, object], ...]]]",
) -> str:
    """Deterministic string form of a selection (cache-key component)."""
    return json.dumps(selection_to_jsonable(canonical), sort_keys=True,
                      separators=(",", ":"))


def resolve_observables(
    selection: "Sequence[object] | None", kind: str = "pic"
) -> "list[Observable]":
    """Build the pipeline for a selection and an engine-state kind.

    Accepts any selection form (:func:`canonical_observables` runs
    first), so callers can validate a request by resolving it — a bad
    name, an unsupported family or an unknown parameter all raise
    ``ValueError`` here instead of inside a running engine.
    """
    built: "list[Observable]" = []
    for name, params in canonical_observables(selection):
        spec = _OBSERVABLE_SPECS[name]
        try:
            built.append(spec.build(kind, **dict(params)))
        except TypeError as exc:
            raise ValueError(
                f"bad parameters for observable {name!r}: {exc}"
            ) from None
    return built


register_observable(ObservableSpec(
    name="energies",
    build=_build_energies,
    description="kinetic/potential/total energy and momentum per record",
))
register_observable(ObservableSpec(
    name="mode",
    build=_build_mode,
    description="Fourier mode amplitude of the field (params: mode; sugar 'mode<k>')",
))
register_observable(ObservableSpec(
    name="fields",
    build=_build_fields,
    description="full grid field snapshot per record (memory-hungry)",
))
register_observable(ObservableSpec(
    name="phase_space",
    build=_build_phase_space,
    description="Vlasov distribution f(x, v) snapshot per record (vlasov only)",
))
register_observable(ObservableSpec(
    name="training_pairs",
    build=_build_training_pairs,
    description="phase-space histograms in the DL training layout (pic only; "
                "params: n_x, n_v, v_min, v_max, box_length, order)",
))


# ----------------------------------------------------------------------
# The pipeline


class Observables:
    """Streams per-step observable values into preallocated buffers.

    Parameters
    ----------
    observables:
        The measurements to run at every record point.  Defaults to the
        standard PIC scalar set (energies, momentum, ``mode1``).
    squeeze:
        With ``True`` (the single-run recorders) ``as_arrays`` drops
        the batch axis — series come back ``(n_records,)`` like the
        legacy ``History``; requires batch 1.  With ``False`` series
        are ``(n_records, batch)`` like ``EnsembleHistory``.
    expected_records:
        Initial buffer capacity.  Engines pass ``n_steps + 1`` through
        :meth:`reserve` so a run never reallocates; incremental users
        (record without a known length) grow by doubling.

    ``as_arrays`` returns trimmed views of the buffers (no copies);
    treat them as read-only or copy before mutating.
    """

    def __init__(
        self,
        observables: "Sequence[Observable] | None" = None,
        squeeze: bool = False,
        expected_records: "int | None" = None,
    ) -> None:
        self.observables: "tuple[Observable, ...]" = tuple(
            observables if observables is not None else pic_observables()
        )
        names: "list[str]" = []
        for obs in self.observables:
            for name in obs.names:
                if name in names:
                    raise ValueError(f"duplicate observable series {name!r}")
                names.append(name)
        self.names: tuple[str, ...] = tuple(names)
        self.squeeze = squeeze
        self.batch: "int | None" = None
        self._n = 0
        self._capacity = 0
        self._reserved = int(expected_records) if expected_records else 0
        self._time: "np.ndarray | None" = None
        self._buffers: "dict[str, np.ndarray]" = {}

    # -- capacity management --------------------------------------------
    def reserve(self, n_records: int) -> None:
        """Size the buffers for ``n_records`` total records up front."""
        if n_records > self._reserved:
            self._reserved = int(n_records)
        if self.batch is not None and self._capacity < self._reserved:
            self._grow(self._reserved)

    def _allocate(self, measured: "dict[str, np.ndarray]", batch: int) -> None:
        self.batch = batch
        self._capacity = max(self._reserved, 64)
        self._time = np.empty(self._capacity, dtype=np.float64)
        for name, values in measured.items():
            self._buffers[name] = np.empty(
                (self._capacity,) + values.shape, dtype=values.dtype
            )
        self._rebuild_write_plan()

    def _grow(self, capacity: int) -> None:
        capacity = max(capacity, 2 * self._capacity)
        time = np.empty(capacity, dtype=self._time.dtype)
        time[: self._n] = self._time[: self._n]
        self._time = time
        for name, buf in self._buffers.items():
            grown = np.empty((capacity,) + buf.shape[1:], dtype=buf.dtype)
            grown[: self._n] = buf[: self._n]
            self._buffers[name] = grown
        self._capacity = capacity
        self._rebuild_write_plan()

    def _rebuild_write_plan(self) -> None:
        """Pre-bind each observable's target buffers for the record loop."""
        self._write_plan = [
            (obs, obs.names, [self._buffers[name] for name in obs.names])
            for obs in self.observables
        ]

    # -- recording -------------------------------------------------------
    def record_frame(self, frame: Frame) -> None:
        """Measure every observable on ``frame`` and append one record."""
        if self.batch is None:
            measured: "dict[str, np.ndarray]" = {}
            for obs in self.observables:
                measured.update(_as_named(obs, obs.measure(frame)))
            batch = next(iter(measured.values())).shape[0] if measured else frame.batch
            if self.squeeze and batch != 1:
                raise ValueError(
                    f"squeezed (single-run) recorder got a batch of {batch}"
                )
            self._allocate(measured, batch)
            self._time[0] = frame.time
            for name, values in measured.items():
                self._buffers[name][0] = values
            self._n = 1
            return
        if self._n == self._capacity:
            self._grow(self._n + 1)
        i = self._n
        self._time[i] = frame.time
        for obs, names, bufs in self._write_plan:
            values = obs.measure(frame)
            if isinstance(values, dict):
                for name, buf in zip(names, bufs):
                    buf[i] = values[name]
            elif isinstance(values, (tuple, list)):
                for buf, vals in zip(bufs, values):
                    buf[i] = vals
            else:
                bufs[0][i] = values
        self._n = i + 1

    # -- views -----------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def n_records(self) -> int:
        """Number of records streamed so far."""
        return self._n

    def _series(self, name: str) -> np.ndarray:
        """Trimmed (and, if configured, squeezed) view of one buffer."""
        if name == "time":
            if self._time is None:
                return np.empty(0, dtype=np.float64)
            return self._time[: self._n]
        try:
            buf = self._buffers[name]
        except KeyError:
            if self.batch is None and name in self.names:
                return np.empty(0, dtype=np.float64)
            raise KeyError(
                f"unknown series {name!r}; recorded: {('time',) + self.names}"
            ) from None
        view = buf[: self._n]
        return view[:, 0] if self.squeeze else view

    def as_arrays(self) -> "dict[str, np.ndarray]":
        """All series keyed by name — the shared engine output schema.

        ``time`` is always ``(n_records,)``; every other series is
        ``(n_records, batch, ...)``, or ``(n_records, ...)`` when this
        recorder squeezes — exactly the legacy ``History`` /
        ``EnsembleHistory`` layouts.
        """
        out = {"time": self._series("time")}
        for name in self.names:
            out[name] = self._series(name)
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        return self._series(name)

    def __contains__(self, name: str) -> bool:
        return name == "time" or name in self.names

    def member(self, b: int) -> "dict[str, np.ndarray]":
        """One run's series, keyed like a squeezed ``as_arrays``."""
        out: "dict[str, np.ndarray]" = {"time": self._series("time")}
        for name in self.names:
            buf = self._buffers[name][: self._n]
            out[name] = buf[:, b]
        return out

    # -- derived summaries ----------------------------------------------
    def energy_variation(self) -> "float | np.ndarray":
        """Max relative deviation of total energy from its initial value.

        The paper reports ~2% for both methods on the two-stream run.
        Per-run ``(batch,)`` vector, or a float when squeezing.
        """
        total = self._series("total")
        if total.size == 0:
            raise ValueError("history is empty")
        if self.squeeze:
            return float(np.max(np.abs(total - total[0])) / abs(total[0]))
        return np.max(np.abs(total - total[0]), axis=0) / np.abs(total[0])

    def momentum_drift(self) -> "float | np.ndarray":
        """Net momentum change over the run (signed)."""
        mom = self._series("momentum")
        if mom.size == 0:
            raise ValueError("history is empty")
        if self.squeeze:
            return float(mom[-1] - mom[0])
        return mom[-1] - mom[0]

