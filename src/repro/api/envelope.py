"""Public API v1: the versioned ``RunRequest`` / ``RunResult`` envelope.

This module defines the one wire format every consumer of the
simulation service speaks — the CLI, the experiment pipeline, the data
campaigns and external JSONL clients all construct :class:`RunRequest`
objects and receive :class:`RunResult` objects (through
:class:`repro.api.Client`).

A v1 request envelope is a JSON object::

    {"api_version": "v1",
     "id": "my-run",                        # caller's correlation id
     "config": {"scenario": "two_stream",   # SimulationConfig payload
                "v0": 0.2, "seed": 3, "solver": "vlasov", ...},
     "observables": ["energies", "mode1"],  # optional selection
     "dtype": "float32",                    # optional tier shorthand
     "phase_space": true,                   # optional final-state flag
     "metadata": {"origin": "sweep-7"},     # optional, echoed back
     "tags": ["nightly"]}                   # optional, echoed back

``config`` holds *only* :meth:`SimulationConfig.to_dict` fields —
envelope keys (``id``, ``api_version``, ``observables``, ``metadata``,
``tags``, ``phase_space``) are **reserved** and rejected inside the
payload rather than silently shadowed.  ``observables`` entries resolve
against the observable registry
(:func:`repro.engines.observables.canonical_observables`): registered
names, ``"mode<k>"`` sugar or parameterized ``{"name": ..., **params}``
mappings.  ``dtype`` is shorthand for the config's numerical-tier field
(it is an error for the two to disagree); the tier is structural, so
float32 and float64 results live under different store keys.

:class:`RunResult` carries the selected observable series, the final
field (plus the final phase space when requested), the content-address
``key``, a ``cache_hit`` flag and wall-clock timings, with a stable
``to_dict`` JSON schema and an exact NPZ round trip
(:meth:`RunResult.save_npz` / :meth:`RunResult.load_npz`).
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import validate_engine_config
from repro.engines.observables import (
    canonical_observables,
    resolve_observables,
    selection_to_jsonable,
)
from repro.utils.io import load_npz_dict, save_npz_dict

if TYPE_CHECKING:
    from repro.service.store import SimulationResult

#: The current (and only) public API version.
API_VERSION = "v1"
SUPPORTED_VERSIONS = (API_VERSION,)

#: Envelope-level keys of a v1 request; reserved inside ``config``.
ENVELOPE_KEYS = (
    "api_version", "id", "config", "observables", "dtype",
    "phase_space", "metadata", "tags",
)
RESERVED_CONFIG_KEYS = tuple(k for k in ENVELOPE_KEYS if k != "dtype")

#: Result status values.  ``ok`` is the only success; the three
#: terminal failure statuses distinguish *why* a request died: an
#: execution/submit failure (``error``), load-shedding by an overloaded
#: server's admission queue (``shed``, HTTP 503) or a per-request
#: execution deadline expiring (``timeout``, HTTP 504).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_SHED = "shed"
STATUS_TIMEOUT = "timeout"
RESULT_STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_SHED, STATUS_TIMEOUT)
#: Non-ok terminal statuses; all carry an ``error`` message.
FAILURE_STATUSES = (STATUS_ERROR, STATUS_SHED, STATUS_TIMEOUT)

#: Keys a ``RunResult.to_dict`` envelope may carry (strictly checked by
#: :meth:`RunResult.from_dict`, like the request side).
RESULT_KEYS = (
    "api_version", "id", "status", "solver", "dtype", "key", "cache_hit",
    "submit_status", "timings", "config", "observables", "metadata", "tags",
    "error", "series", "efield", "final_x", "final_v", "final_f", "dtypes",
)

#: Keys a result's ``timings`` mapping may carry — the canonical stage
#: breakdown (all seconds, measured where the stage happens) plus the
#: request's trace id.  Explicit schema extension: ``from_dict``
#: rejects unknown timing keys exactly like unknown envelope keys, so
#: the breakdown can only grow deliberately.
#:
#: ``wall_s``       submit → resolution, observed by the client.
#: ``batch_wait_s`` submit → group dispatch (micro-batch coalescing).
#: ``queue_wait_s`` dispatch → execution start (executor queue + IPC).
#: ``exec_s``       the engine call itself (whole group, in-worker).
#: ``store_s``      result-store lookup + write-through.
TIMING_KEYS = (
    "wall_s", "batch_wait_s", "queue_wait_s", "exec_s", "store_s", "trace_id",
)


def _check_timings(timings: Any) -> "dict[str, Any]":
    """Validate a ``timings`` mapping (strict keys, finite values)."""
    if not isinstance(timings, Mapping):
        raise ValueError(
            f"result timings must be a JSON object, got {type(timings).__name__}"
        )
    unknown = sorted(set(timings) - set(TIMING_KEYS))
    if unknown:
        raise ValueError(
            f"unknown timing key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(TIMING_KEYS)}"
        )
    out: "dict[str, Any]" = {}
    for key, value in timings.items():
        if key == "trace_id":
            if not isinstance(value, str):
                raise ValueError(
                    f"timing key 'trace_id' must be a string, got "
                    f"{type(value).__name__}"
                )
            out[key] = value
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"timing key {key!r} must be a number, got {type(value).__name__}"
            )
        if not math.isfinite(value):
            raise ValueError(
                f"timing key {key!r} must be finite, got {value!r}"
            )
        out[key] = float(value)
    return out


def _check_api_version(version: object) -> str:
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unknown api_version {version!r}; this build supports "
            f"{', '.join(SUPPORTED_VERSIONS)}"
        )
    return str(version)


def _check_reserved_config_keys(payload: Mapping[str, Any]) -> None:
    """Reject envelope keys smuggled into the config payload."""
    reserved = sorted(set(payload) & set(RESERVED_CONFIG_KEYS))
    if reserved:
        raise ValueError(
            f"reserved envelope key(s) {', '.join(map(repr, reserved))} may not "
            f"appear inside the config payload; put them at the top level of an "
            f"api_version={API_VERSION!r} request envelope"
        )


def _check_metadata(metadata: Any) -> dict[str, Any]:
    if not isinstance(metadata, Mapping):
        raise ValueError(
            f"metadata must be a JSON-style mapping, got {type(metadata).__name__}"
        )
    out = {}
    for key in metadata:
        if not isinstance(key, str):
            raise ValueError(f"metadata keys must be strings, got {key!r}")
        out[key] = copy.deepcopy(metadata[key])
    return out


def _check_tags(tags: Any) -> tuple[str, ...]:
    if isinstance(tags, str) or not isinstance(tags, Sequence):
        raise ValueError(f"tags must be a sequence of strings, got {tags!r}")
    out = []
    for tag in tags:
        if not isinstance(tag, str):
            raise ValueError(f"tags must be strings, got {tag!r}")
        out.append(tag)
    return tuple(out)


@dataclass(frozen=True)
class RunRequest:
    """One versioned run request: config payload + envelope fields.

    Construction validates everything a submit would: the engine family
    (via the registry), the observables selection (resolved against the
    family's state kind) and the envelope fields — a bad request fails
    here, with line/context information added by the JSONL parser, not
    inside a running engine.

    ``observables`` is stored canonicalized (sorted, deduplicated
    ``(name, params)`` pairs) or ``None`` for the family default, so
    two requests selecting the same measurements in any spelling
    compare equal and share one service batch and store key.
    """

    config: SimulationConfig
    id: str = ""
    api_version: str = API_VERSION
    observables: "tuple | None" = None
    phase_space: bool = False
    metadata: "dict[str, Any]" = field(default_factory=dict)
    tags: "tuple[str, ...]" = ()

    def __post_init__(self) -> None:
        if not isinstance(self.config, SimulationConfig):
            raise ValueError(
                f"config must be a SimulationConfig, got {type(self.config).__name__}"
            )
        object.__setattr__(self, "api_version", _check_api_version(self.api_version))
        object.__setattr__(self, "id", str(self.id))
        spec = validate_engine_config(self.config)
        if self.observables is not None:
            selection = canonical_observables(self.observables)
            resolve_observables(selection, spec.kind)  # family-compatible?
            highest = self.config.n_cells // 2
            for name, params in selection:
                mode = dict(params).get("mode", 1)
                if name == "mode" and mode > highest:
                    raise ValueError(
                        f"observable 'mode{mode}' is out of range for "
                        f"{self.config.n_cells} cells (the highest mode is {highest})"
                    )
            object.__setattr__(self, "observables", selection)
        object.__setattr__(self, "metadata", _check_metadata(self.metadata))
        object.__setattr__(self, "tags", _check_tags(self.tags))
        if not isinstance(self.phase_space, bool):
            raise ValueError(
                f"phase_space must be a boolean, got {self.phase_space!r}"
            )

    # -- convenience views -----------------------------------------------
    @property
    def solver(self) -> str:
        """The engine family serving this request (``config.solver``)."""
        return self.config.solver

    @property
    def dtype(self) -> str:
        """The numerical tier of this request (``config.dtype``)."""
        return self.config.dtype

    def with_updates(self, **kwargs: Any) -> "RunRequest":
        """A copy with envelope fields (or ``config=``) replaced."""
        current = {
            "config": self.config,
            "id": self.id,
            "api_version": self.api_version,
            "observables": self.observables,
            "phase_space": self.phase_space,
            "metadata": self.metadata,
            "tags": self.tags,
        }
        current.update(kwargs)
        return RunRequest(**current)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The JSON envelope form (exact round trip via :meth:`from_dict`)."""
        out: dict[str, Any] = {
            "api_version": self.api_version,
            "id": self.id,
            "config": self.config.to_dict(),
        }
        if self.observables is not None:
            out["observables"] = selection_to_jsonable(self.observables)
        if self.phase_space:
            out["phase_space"] = True
        if self.metadata:
            out["metadata"] = copy.deepcopy(self.metadata)
        if self.tags:
            out["tags"] = list(self.tags)
        return out

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any], index: int = 0) -> "RunRequest":
        """Parse a v1 envelope mapping.

        ``index`` (e.g. a 1-based JSONL line number) names requests
        without an explicit ``id``.  Unknown envelope keys, unknown
        versions, reserved keys inside the config payload, unknown
        observables and a ``dtype`` shorthand that contradicts the
        config payload are all rejected with specific errors.
        """
        if not isinstance(obj, Mapping):
            raise ValueError(
                f"request envelope must be a JSON object, got {type(obj).__name__}"
            )
        unknown = sorted(set(obj) - set(ENVELOPE_KEYS))
        if unknown:
            raise ValueError(
                f"unknown envelope key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(ENVELOPE_KEYS)}"
            )
        _check_api_version(obj.get("api_version"))
        payload = obj.get("config", {})
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"'config' must be a mapping of SimulationConfig fields, "
                f"got {type(payload).__name__}"
            )
        _check_reserved_config_keys(payload)
        config = SimulationConfig.from_dict(payload)
        dtype = obj.get("dtype")
        if dtype is not None:
            if "dtype" in payload and payload["dtype"] != dtype:
                raise ValueError(
                    f"envelope dtype {dtype!r} contradicts config payload dtype "
                    f"{payload['dtype']!r}"
                )
            config = config.with_updates(dtype=dtype)
        # Envelope values pass through raw: __post_init__ owns the
        # validation, so the wire path and programmatic construction
        # reject exactly the same inputs (a string for ``tags``, a
        # truthy non-boolean for ``phase_space``, ...).
        return cls(
            config=config,
            id=str(obj.get("id", f"request-{index}")),
            api_version=obj["api_version"],
            observables=obj.get("observables"),
            phase_space=obj.get("phase_space", False),
            metadata=obj.get("metadata", {}),
            tags=obj.get("tags", ()),
        )


def _jsonable_scalar(value: Any) -> Any:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


@dataclass
class RunResult:
    """One served run in the public v1 result schema.

    ``series`` maps each recorded series name to its per-run array
    (``time`` is ``(n_records,)``; scalar observables are
    ``(n_records,)``; snapshot observables keep their trailing axes).
    ``status`` is ``"ok"`` or ``"error"`` (with ``error`` holding the
    message); ``submit_status`` reports how the service met the request
    (``queued`` / ``cached`` / ``inflight``) and ``cache_hit`` whether
    it was answered from the content-addressed store without executing.
    ``timings`` carries the canonical stage breakdown (``wall_s`` as
    observed by the client plus the service-side ``batch_wait_s`` /
    ``queue_wait_s`` / ``exec_s`` / ``store_s`` stages and, for traced
    requests, the ``trace_id``) — see :data:`TIMING_KEYS`.
    """

    id: str
    status: str
    solver: str = "traditional"
    config: "SimulationConfig | None" = None
    observables: "tuple | None" = None
    series: "dict[str, np.ndarray]" = field(default_factory=dict)
    efield: "np.ndarray | None" = None
    final_x: "np.ndarray | None" = None
    final_v: "np.ndarray | None" = None
    final_f: "np.ndarray | None" = None
    key: "str | None" = None
    cache_hit: bool = False
    submit_status: str = ""
    timings: "dict[str, float]" = field(default_factory=dict)
    metadata: "dict[str, Any]" = field(default_factory=dict)
    tags: "tuple[str, ...]" = ()
    error: "str | None" = None
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        _check_api_version(self.api_version)
        if self.status not in RESULT_STATUSES:
            raise ValueError(
                f"unknown result status {self.status!r}; valid statuses: "
                f"{', '.join(RESULT_STATUSES)}"
            )
        if self.status in FAILURE_STATUSES and not self.error:
            raise ValueError(f"{self.status} results need an error message")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def __getitem__(self, name: str) -> np.ndarray:
        return self.series[name]

    @property
    def n_steps(self) -> int:
        return len(self.series["time"]) - 1

    def raise_for_status(self) -> "RunResult":
        """Raise :class:`ApiError` if this result carries a failure.

        Every non-``ok`` terminal status raises — ``error``, ``shed``
        (server load-shedding) and ``timeout`` (execution deadline) —
        with the status named in the message and the full result
        attached as :attr:`ApiError.result`.
        """
        if not self.ok:
            raise ApiError(
                f"request {self.id!r} failed with status {self.status!r}: "
                f"{self.error}",
                result=self,
            )
        return self

    # -- derived summaries (served series) -------------------------------
    def energy_variation(self) -> float:
        """Max relative deviation of total energy from its start."""
        total = np.asarray(self.series["total"], dtype=np.float64)
        if total.size == 0:
            raise ValueError("result series is empty")
        return float(np.max(np.abs(total - total[0])) / abs(total[0]))

    def momentum_drift(self) -> float:
        """Net momentum change over the run (signed)."""
        mom = np.asarray(self.series["momentum"], dtype=np.float64)
        if mom.size == 0:
            raise ValueError("result series is empty")
        return float(mom[-1] - mom[0])

    # -- stable serialization --------------------------------------------
    def to_dict(self, arrays: bool = True) -> dict[str, Any]:
        """The stable JSON result schema.

        With ``arrays=True`` (default) every series/field array is
        included as nested lists; ``arrays=False`` keeps only the
        scalar envelope (status, key, timings, ...) for manifests.
        """
        out: dict[str, Any] = {
            "api_version": self.api_version,
            "id": self.id,
            "status": self.status,
            "solver": self.solver,
            "dtype": self.config.dtype if self.config is not None else None,
            "key": self.key,
            "cache_hit": self.cache_hit,
            "submit_status": self.submit_status,
            "timings": {k: _jsonable_scalar(v) for k, v in self.timings.items()},
        }
        if self.config is not None:
            out["config"] = self.config.to_dict()
        if self.observables is not None:
            out["observables"] = selection_to_jsonable(self.observables)
        if self.metadata:
            out["metadata"] = copy.deepcopy(self.metadata)
        if self.tags:
            out["tags"] = list(self.tags)
        if self.error is not None:
            out["error"] = self.error
        if arrays:
            out["series"] = {
                name: np.asarray(values).tolist()
                for name, values in self.series.items()
            }
            if self.efield is not None:
                out["efield"] = np.asarray(self.efield).tolist()
            for name in ("final_x", "final_v", "final_f"):
                values = getattr(self, name)
                if values is not None:
                    out[name] = np.asarray(values).tolist()
            # Array dtypes ride along so the wire round trip is exact:
            # JSON floats restore float64 bit for bit (repr round trip)
            # and narrower tiers (float32 series) re-cast losslessly.
            dtypes: dict[str, Any] = {
                "series": {
                    name: str(np.asarray(values).dtype)
                    for name, values in self.series.items()
                }
            }
            for name in ("efield", "final_x", "final_v", "final_f"):
                values = getattr(self, name)
                if values is not None:
                    dtypes[name] = str(np.asarray(values).dtype)
            out["dtypes"] = dtypes
        return out

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "RunResult":
        """Parse a :meth:`to_dict` result envelope (exact round trip).

        The strict mirror of the request-side parser: unknown envelope
        keys, unknown api versions and unknown ``status`` values are
        all rejected with specific errors, and arrays are rebuilt with
        their recorded dtypes so a JSON round trip is bitwise exact.
        """
        if not isinstance(obj, Mapping):
            raise ValueError(
                f"result envelope must be a JSON object, got {type(obj).__name__}"
            )
        unknown = sorted(set(obj) - set(RESULT_KEYS))
        if unknown:
            raise ValueError(
                f"unknown result key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(RESULT_KEYS)}"
            )
        _check_api_version(obj.get("api_version"))
        status = obj.get("status")
        if status not in RESULT_STATUSES:
            raise ValueError(
                f"unknown result status {status!r}; valid statuses: "
                f"{', '.join(RESULT_STATUSES)}"
            )
        dtypes = obj.get("dtypes", {})
        series_dtypes = dtypes.get("series", {})
        series = {
            name: np.array(values, dtype=series_dtypes.get(name, "float64"))
            for name, values in obj.get("series", {}).items()
        }
        arrays = {}
        for name in ("efield", "final_x", "final_v", "final_f"):
            values = obj.get(name)
            arrays[name] = (
                None if values is None
                else np.array(values, dtype=dtypes.get(name, "float64"))
            )
        config = obj.get("config")
        observables = obj.get("observables")
        return cls(
            id=str(obj.get("id", "")),
            status=status,
            solver=obj.get("solver", "traditional"),
            config=SimulationConfig.from_dict(config) if config is not None else None,
            observables=(
                canonical_observables(observables) if observables is not None else None
            ),
            series=series,
            efield=arrays["efield"],
            final_x=arrays["final_x"],
            final_v=arrays["final_v"],
            final_f=arrays["final_f"],
            key=obj.get("key"),
            cache_hit=bool(obj.get("cache_hit", False)),
            submit_status=obj.get("submit_status", ""),
            timings=_check_timings(obj.get("timings", {})),
            metadata=dict(obj.get("metadata", {})),
            tags=tuple(obj.get("tags", ())),
            error=obj.get("error"),
            api_version=obj["api_version"],
        )

    def save_npz(self, path: "str | Any") -> None:
        """Write the exact result (raw array bytes) to a ``.npz``."""
        payload: dict[str, Any] = {
            "api_version": self.api_version,
            "id": self.id,
            "status": self.status,
            "solver": self.solver,
            "key": self.key,
            "cache_hit": self.cache_hit,
            "submit_status": self.submit_status,
            "timings": {k: _jsonable_scalar(v) for k, v in self.timings.items()},
            "metadata": self.metadata,
            "tags": list(self.tags),
            "error": self.error,
            "config": self.config.to_dict() if self.config is not None else None,
            "observables": (
                selection_to_jsonable(self.observables)
                if self.observables is not None else None
            ),
        }
        for name, values in self.series.items():
            payload[f"series_{name}"] = np.asarray(values)
        for name in ("efield", "final_x", "final_v", "final_f"):
            values = getattr(self, name)
            if values is not None:
                payload[name] = np.asarray(values)
        save_npz_dict(path, payload)

    @classmethod
    def load_npz(cls, path: "str | Any") -> "RunResult":
        """Exact inverse of :meth:`save_npz`."""
        payload = load_npz_dict(path)
        series = {
            name[len("series_"):]: values
            for name, values in payload.items()
            if name.startswith("series_")
        }
        config = payload.get("config")
        observables = payload.get("observables")
        return cls(
            id=payload["id"],
            status=payload["status"],
            solver=payload["solver"],
            config=SimulationConfig.from_dict(config) if config is not None else None,
            observables=(
                canonical_observables(observables) if observables is not None else None
            ),
            series=series,
            efield=payload.get("efield"),
            final_x=payload.get("final_x"),
            final_v=payload.get("final_v"),
            final_f=payload.get("final_f"),
            key=payload.get("key"),
            cache_hit=bool(payload.get("cache_hit", False)),
            submit_status=payload.get("submit_status", ""),
            timings=dict(payload.get("timings", {})),
            metadata=dict(payload.get("metadata", {})),
            tags=tuple(payload.get("tags", ())),
            error=payload.get("error"),
            api_version=payload.get("api_version", API_VERSION),
        )

    # -- construction ----------------------------------------------------
    @classmethod
    def from_service(
        cls,
        request: RunRequest,
        served: "SimulationResult",
        submit_status: str,
        wall_s: "float | None" = None,
    ) -> "RunResult":
        """Wrap a service-layer result in the public schema.

        The service's per-delivery stage breakdown (``batch_wait_s``,
        ``queue_wait_s``, ``exec_s``, ``store_s``, ``trace_id``) is
        carried over from ``served.timings``; ``wall_s`` — the only
        client-observed stage — is stamped on top.  DL results also
        carry the serving model's fingerprint as
        ``metadata["model_fingerprint"]`` — metadata rides the wire
        envelope, so remote clients see the exact model identity too.
        """
        timings = dict(getattr(served, "timings", None) or {})
        if wall_s is not None:
            timings["wall_s"] = wall_s
        metadata = dict(request.metadata)
        fingerprint = getattr(served, "model_fingerprint", None)
        if fingerprint:
            metadata["model_fingerprint"] = fingerprint
        return cls(
            id=request.id,
            status=STATUS_OK,
            solver=served.solver,
            config=served.config,
            observables=request.observables,
            series=dict(served.series),
            efield=served.efield,
            final_x=served.final_x,
            final_v=served.final_v,
            final_f=served.final_f,
            key=served.key,
            cache_hit=submit_status == "cached",
            submit_status=submit_status,
            timings=timings,
            metadata=metadata,
            tags=request.tags,
        )

    @classmethod
    def from_error(
        cls,
        request: RunRequest,
        exc: BaseException,
        submit_status: str = "",
        wall_s: "float | None" = None,
    ) -> "RunResult":
        """An error-status result for a failed request."""
        return cls(
            id=request.id,
            status=STATUS_ERROR,
            solver=request.solver,
            config=request.config,
            observables=request.observables,
            submit_status=submit_status,
            timings={"wall_s": wall_s} if wall_s is not None else {},
            metadata=dict(request.metadata),
            tags=request.tags,
            error=f"{type(exc).__name__}: {exc}",
        )

    @classmethod
    def from_failure(
        cls,
        request: RunRequest,
        status: str,
        message: str,
        wall_s: "float | None" = None,
    ) -> "RunResult":
        """A terminal failure result (``shed`` / ``timeout`` / ``error``)."""
        return cls(
            id=request.id,
            status=status,
            solver=request.solver,
            config=request.config,
            observables=request.observables,
            timings={"wall_s": wall_s} if wall_s is not None else {},
            metadata=dict(request.metadata),
            tags=request.tags,
            error=message,
        )


class ApiError(RuntimeError):
    """A request failed and the caller asked for exceptions.

    Carries the failed :class:`RunResult` as :attr:`result` (when one
    exists), so callers can branch on the terminal :attr:`status` —
    ``error``, ``shed`` or ``timeout`` — without parsing the message.
    """

    def __init__(self, message: str, result: "RunResult | None" = None) -> None:
        super().__init__(message)
        self.result = result

    @property
    def status(self) -> "str | None":
        """The failed result's terminal status, if a result is attached."""
        return self.result.status if self.result is not None else None


def now() -> float:
    """Monotonic clock used for client-side timings."""
    return time.perf_counter()
