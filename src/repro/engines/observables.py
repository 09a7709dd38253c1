"""The streaming observables pipeline shared by every engine.

* an :class:`Observable` is a per-step measurement of an engine's
  current state: it reads ``step_index``, ``time``, ``grid`` and
  ``efield``, plus ``particles`` and ``v_at_integer_time`` on a
  particle engine or ``f``, ``v_centers``, ``dx`` and ``dv`` on the
  Vlasov engine, and returns one ``(batch, ...)`` array per series it
  names;
* :class:`Observables` drives a set of observables and streams their
  values into preallocated ``(n_records, batch, ...)`` buffers (engines
  call :meth:`Observables.reserve` with ``n_steps + 1`` before a run,
  so the steady-state cost per record is pure numpy writes — no Python
  list appends, no reallocation);
* :func:`resolve_observables` builds a pipeline from the named
  measurements (``"energies"``, ``"mode<k>"``, ``"fields"``,
  ``"phase_space"``, ``"training_pairs"``) that public API v1 requests
  select per run, for either engine-state kind.

The default selection records the series the paper monitors in
Figs. 4-6: the fundamental mode amplitude ``E1``, the total energy
and its parts, and the total momentum.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

import numpy as np

from repro import constants
from repro.kernels.workspace import Workspace

if TYPE_CHECKING:
    from repro.engines.base import Engine
    from repro.pic.grid import Grid1D
    from repro.pic.particles import ParticleSet


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
# function applied to member b alone).  They reduce with
# ``np.add.reduce``, the ufunc ``np.sum`` calls, without its wrapper,
# and leave 2-D arrays of a float dtype as they are: the engines record
# them once per step, on small batches as often as on large ones.


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a ``(batch, n)`` array (a 1-D ``a`` is a batch of one)."""
    return a if a.ndim == 2 else np.atleast_2d(a)


def _float_rows(e: np.ndarray) -> np.ndarray:
    """``e`` as ``(batch, n)`` rows: float32 stays, the rest is float64."""
    if type(e) is np.ndarray and e.ndim == 2 and e.dtype in (np.float64, np.float32):
        return e
    e = np.atleast_2d(np.asarray(e))
    return e if e.dtype == np.float32 else np.asarray(e, dtype=np.float64)


def kinetic_energy_rows(particles: "ParticleSet", v: "np.ndarray | None" = None) -> np.ndarray:
    """Per-run kinetic energy of a (possibly batched) particle set.

    Returns shape ``(batch,)``; for a 1-D set this is ``(1,)`` and the
    single entry is bitwise equal to :func:`kinetic_energy`.
    """
    vel = _rows(particles.v if v is None else v)
    return 0.5 * particles.mass * np.add.reduce(vel * vel, axis=-1)


def field_energy_rows(
    grid: "Grid1D", e: np.ndarray, eps0: float = constants.EPSILON_0
) -> np.ndarray:
    """Per-run electrostatic energy of ``(batch, n_cells)`` fields.

    Dtype-following: float32 fields (the reduced-precision serving
    tier) are measured — and recorded — in float32; everything else is
    coerced to float64 exactly as before, so float64 output is bitwise
    unchanged.
    """
    e = _float_rows(e)
    if e.shape[-1] != grid.n_cells:
        raise ValueError(f"E has shape {e.shape}, expected (batch, {grid.n_cells})")
    return 0.5 * eps0 * np.add.reduce(e * e, axis=-1) * grid.dx


def total_momentum_rows(particles: "ParticleSet", v: "np.ndarray | None" = None) -> np.ndarray:
    """Per-run mechanical momentum, shape ``(batch,)``."""
    vel = _rows(particles.v if v is None else v)
    return particles.mass * np.add.reduce(vel, axis=-1)


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
    e = _float_rows(e)
    n = e.shape[-1]
    if not 0 <= mode <= n // 2:
        raise ValueError(f"mode {mode} out of range for {n} cells")
    coeff = np.fft.rfft(e, axis=-1)[..., mode]
    amp = np.hypot(coeff.real, coeff.imag)
    if mode == 0 or (n % 2 == 0 and mode == n // 2):
        return amp / n
    return 2.0 * amp / n


# ----------------------------------------------------------------------
# Observables


class Observable(Protocol):
    """A per-step measurement of an engine's current state.

    ``names`` lists the series this observable emits; ``measure``
    returns a tuple of ``(batch, ...)`` arrays aligned with ``names``.
    Emitting several series from one call lets related quantities share
    intermediate results (``total = kinetic + potential`` reuses both
    energies).  ``engine`` is an :class:`~repro.engines.base.Engine`
    or any object holding the attributes the measurement reads.
    """

    names: tuple[str, ...]

    def measure(self, engine: "Engine") -> "tuple[np.ndarray, ...]":
        """Measure this observable on the engine's current state."""
        ...


class ParticleEnergyMomentum:
    """Kinetic/field/total energy and momentum of a particle engine.

    Velocities are taken at integer time (``v_at_integer_time``), where
    the positions and the field are.
    """

    names = ("kinetic", "potential", "total", "momentum")

    def measure(self, engine: "Engine") -> "tuple[np.ndarray, ...]":
        v = engine.v_at_integer_time
        ke = kinetic_energy_rows(engine.particles, v=v)
        fe = field_energy_rows(engine.grid, engine.efield)
        return ke, fe, ke + fe, total_momentum_rows(engine.particles, v=v)


class VlasovEnergyMomentum:
    """Energy and momentum moments of a Vlasov engine's phase space.

    Per member: kinetic energy ``integral(v^2/2 f dx dv)``, field
    energy ``(1/2) integral(E^2 dx)`` and momentum
    ``integral(v f dx dv)`` with electron mass 1.  Each member reduces
    its own slab in a fixed order, so the moments of a batched engine
    are bitwise those of the member's batch of one.
    """

    names = ("kinetic", "potential", "total", "momentum")

    def measure(self, engine: "Engine") -> "tuple[np.ndarray, ...]":
        f, e, v = engine.f, engine.efield, engine.v_centers
        dx, dv = engine.dx, engine.dv
        ke = 0.5 * np.add.reduce(f * (v**2)[:, None], axis=(1, 2)) * dx * dv
        fe = 0.5 * np.add.reduce(e * e, axis=-1) * dx
        return ke, fe, ke + fe, np.add.reduce(f * v[:, None], axis=(1, 2)) * dx * dv


class ModeAmplitude:
    """Fourier-mode amplitude of the field, series ``mode<k>``."""

    def __init__(self, mode: int = 1) -> None:
        self.mode = mode
        self.names = (f"mode{mode}",)

    def measure(self, engine: "Engine") -> "tuple[np.ndarray]":
        return (mode_amplitude_rows(engine.efield, mode=self.mode),)


class FieldSnapshot:
    """Per-record copy of the full grid field (memory-hungry; opt-in)."""

    names = ("fields",)

    def measure(self, engine: "Engine") -> "tuple[np.ndarray]":
        return (np.array(np.atleast_2d(engine.efield), copy=True),)


class PhaseSpaceSnapshot:
    """Per-record copy of the Vlasov distribution ``f`` (opt-in)."""

    names = ("f",)

    def measure(self, engine: "Engine") -> "tuple[np.ndarray]":
        return (engine.f.copy(),)


class TrainingHistograms:
    """Per-record phase-space histograms in the DL training layout.

    Bins every member's ``(x, v)`` phase space on a fixed
    :class:`~repro.phasespace.binning.PhaseSpaceGrid` exactly like the
    data-generation harvest: positions at integer time with the
    trailing half-step velocities — except at the initial record, where
    velocities are still synchronized and ``v_at_integer_time`` is used
    (matching how the DL-PIC computes its very first field).  Selecting
    this observable together with ``"fields"`` through the service
    yields the campaign's (histogram, field) training pairs per request.
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

    def measure(self, engine: "Engine") -> "tuple[np.ndarray]":
        from repro.phasespace.binning import bin_phase_space_batch

        v = engine.v_at_integer_time if engine.step_index == 0 else engine.particles.v
        x = np.atleast_2d(engine.particles.x)
        return (bin_phase_space_batch(
            x, np.atleast_2d(v), self.ps_grid, order=self.order, work=self._work
        ),)


# ----------------------------------------------------------------------
# The selectable observables
#
# The public API's ``observables: [...]`` request field resolves here.
# A selection entry is a name (``"energies"``), a parameterized form
# (``{"name": "mode", "mode": 3}``) or the ``"mode<k>"`` string sugar
# for it; :func:`canonical_observables` normalizes any of these into a
# sorted, deduplicated tuple of ``(name, ((param, value), ...))`` pairs
# — the form folded into service group keys and result-store addresses
# — and :func:`resolve_observables` builds the pipeline for an engine
# family's state kind (``"pic"`` or ``"vlasov"``, see
# :class:`repro.engines.base.EngineSpec`).


def _build_energies(kind: str) -> Observable:
    return VlasovEnergyMomentum() if kind == "vlasov" else ParticleEnergyMomentum()


def _build_mode(kind: str, mode: int = 1) -> Observable:
    return ModeAmplitude(mode=mode)


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


#: Each selectable observable by name: ``build(kind, **params)`` raises
#: ``ValueError`` for a kind it cannot measure and ``TypeError`` for an
#: unknown parameter.
_BUILDERS: "dict[str, Callable[..., Observable]]" = {
    "energies": _build_energies,
    "mode": _build_mode,
    "fields": _build_fields,
    "phase_space": _build_phase_space,
    "training_pairs": _build_training_pairs,
}

#: The selection applied when a request names no observables: energies,
#: momentum and ``mode1``.
DEFAULT_OBSERVABLES = ("energies", "mode1")

_MODE_SUGAR = re.compile(r"^mode(\d+)$")


def canonical_observables(
    selection: "Sequence[object] | None",
) -> "tuple[tuple[str, tuple[tuple[str, object], ...]], ...]":
    """Normalize a request's observables selection.

    ``None`` means :data:`DEFAULT_OBSERVABLES`.  Entries may be
    observable names, ``"mode<k>"`` sugar, or ``{"name": ..., **params}``
    mappings.  The result is sorted and deduplicated — two requests
    selecting the same measurements in any order or spelling share one
    canonical form (and therefore one cache key and one service batch).
    Unknown names, and a ``mode`` that is not a non-negative ``int``,
    raise ``ValueError``.
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
        if name not in _BUILDERS:
            raise ValueError(
                f"unknown observable {name!r}; available: "
                f"{', '.join(sorted(_BUILDERS))} (plus 'mode<k>' sugar)"
            )
        for key, value in params.items():
            if not isinstance(value, (str, int, float, bool)) and value is not None:
                raise ValueError(
                    f"observable {name!r} parameter {key!r} must be a JSON "
                    f"scalar, got {type(value).__name__}"
                )
        if name == "mode":
            mode = params.get("mode", 1)
            if isinstance(mode, bool) or not isinstance(mode, int) or mode < 0:
                raise ValueError(
                    f"observable 'mode' needs a non-negative integer 'mode', got {mode!r}"
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
    ``resolve_observables(None)`` is the default particle pipeline.
    """
    built: "list[Observable]" = []
    for name, params in canonical_observables(selection):
        try:
            built.append(_BUILDERS[name](kind, **dict(params)))
        except TypeError as exc:
            raise ValueError(
                f"bad parameters for observable {name!r}: {exc}"
            ) from None
    return built


# ----------------------------------------------------------------------
# The pipeline


class Observables:
    """Streams per-step observable values into preallocated buffers.

    Parameters
    ----------
    observables:
        The measurements to run at every record point
        (``resolve_observables(None)`` is the default particle set:
        energies, momentum and ``mode1``).
    squeeze:
        With ``True`` (the single-run recorders) ``as_arrays`` drops
        the batch axis — series come back ``(n_records,)``; requires
        batch 1.  With ``False`` series are ``(n_records, batch)``.

    Engines size the buffers through :meth:`reserve` so a run never
    reallocates; recording without a known length grows them by
    doubling.  ``as_arrays`` returns trimmed views of the buffers (no
    copies); treat them as read-only or copy before mutating.
    """

    def __init__(self, observables: "Sequence[Observable]", squeeze: bool = False) -> None:
        self.observables: "tuple[Observable, ...]" = tuple(observables)
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
        self._reserved = 0
        self._time: "np.ndarray | None" = None
        self._buffers: "dict[str, np.ndarray]" = {}

    # -- capacity management --------------------------------------------
    def reserve(self, n_records: int) -> None:
        """Size the buffers for ``n_records`` total records up front."""
        if n_records > self._reserved:
            self._reserved = int(n_records)
        if self.batch is not None and self._capacity < self._reserved:
            self._grow(self._reserved)

    def _allocate(self, values: "list[np.ndarray]", batch: int) -> None:
        """Size one buffer per series after the first record's values."""
        self.batch = batch
        self._capacity = max(self._reserved, 64)
        self._time = np.empty(self._capacity, dtype=np.float64)
        for name, value in zip(self.names, values):
            self._buffers[name] = np.empty(
                (self._capacity,) + value.shape, dtype=value.dtype
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
            (obs, [self._buffers[name] for name in obs.names])
            for obs in self.observables
        ]

    # -- recording -------------------------------------------------------
    def record_frame(self, engine: "Engine") -> None:
        """Measure every observable on ``engine``'s state and append one record."""
        if self.batch is None:
            values = [value for obs in self.observables for value in obs.measure(engine)]
            batch = values[0].shape[0] if values else engine.batch
            if self.squeeze and batch != 1:
                raise ValueError(
                    f"squeezed (single-run) recorder got a batch of {batch}"
                )
            self._allocate(values, batch)
            self._time[0] = engine.time
            for name, value in zip(self.names, values):
                self._buffers[name][0] = value
            self._n = 1
            return
        if self._n == self._capacity:
            self._grow(self._n + 1)
        i = self._n
        self._time[i] = engine.time
        for obs, bufs in self._write_plan:
            for buf, value in zip(bufs, obs.measure(engine)):
                buf[i] = value
        self._n = i + 1

    # -- views -----------------------------------------------------------
    def __len__(self) -> int:
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
        recorder squeezes.
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

