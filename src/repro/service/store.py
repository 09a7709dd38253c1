"""Content-addressed result store for served simulations.

A :class:`SimulationResult` is addressed by a key derived from the
canonical :meth:`SimulationConfig.cache_key` serialization plus the
solver family (and, for DL runs, the solver's weight fingerprint) — so
two requests hit the same slot exactly when the engine would produce
bitwise-identical output for both.  All registered engine families
(``traditional``, ``dl``, ``vlasov``, ``energy``) share the store with
the same guarantees, and the key also folds in the request's
observables selection, dtype tier and phase-space flag.

The store is a two-tier cache: an in-memory LRU of result objects, plus
an optional on-disk directory of ``<key>.npz`` archives (written
through on every ``put``).  ``.npz`` stores raw float64 bytes, so a
disk round trip is bitwise exact; entries evicted from memory are
transparently re-read from disk and promoted back.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import available_engines
from repro.engines.observables import canonical_observables, observables_token
from repro.utils.io import atomic_write, load_npz_dict, save_npz_dict

# Built-in families; the authoritative list is the engine registry
# (available_engines()), which user-registered families join.
SOLVER_FAMILIES = ("traditional", "dl", "vlasov", "energy", "mpi")

_SERIES_PREFIX = "series_"

_DEFAULT_OBS_TOKEN = observables_token(canonical_observables(None))


def result_key(
    config: SimulationConfig,
    solver: str = "traditional",
    solver_fingerprint: "str | None" = None,
    observables: "object | None" = None,
    phase_space: bool = False,
) -> str:
    """Content address of a run: solver family + canonical config hash.

    For ``solver="dl"`` the solver's :meth:`DLFieldSolver.fingerprint`
    must be supplied — the predicted fields depend on the weights, so
    the model identity is part of the address.  Any family known to the
    engine registry (including user-registered ones) is addressable.

    The address also folds in everything else that changes a result's
    *content*: a non-default ``observables`` selection (any form
    :func:`repro.engines.observables.canonical_observables` accepts)
    and the ``phase_space`` flag (final particle/distribution state
    attached to the result).  The default selection keeps the
    historical key, so pre-v1 stores stay valid — and the config's
    ``dtype`` tier is already part of :meth:`SimulationConfig.cache_key`,
    so float32 results can never answer a float64 request.
    """
    if solver not in available_engines():
        raise ValueError(
            f"unknown solver family {solver!r}; expected one of {available_engines()}"
        )
    digest = config.cache_key()
    if solver == "dl":
        if not solver_fingerprint:
            raise ValueError("DL result keys need the solver fingerprint")
        digest = hashlib.sha256(f"{digest}:{solver_fingerprint}".encode("utf-8")).hexdigest()
    if observables is not None:
        token = observables_token(canonical_observables(observables))
        if token != _DEFAULT_OBS_TOKEN:
            digest = hashlib.sha256(f"{digest}:obs={token}".encode("utf-8")).hexdigest()
    if phase_space:
        digest = hashlib.sha256(f"{digest}:phase-space".encode("utf-8")).hexdigest()
    return f"{solver}-{digest}"


@dataclass
class SimulationResult:
    """One served run: per-step observable series plus the final field.

    ``series`` holds one ``(n_steps + 1, ...)`` array per selected
    observable series plus ``time`` — for the default selection that
    is ``time``, ``kinetic``, ``potential``, ``total``, ``momentum``
    and ``mode1``, bitwise identical to running the config alone.
    ``efield`` is the final ``(n_cells,)`` field; requests made with
    ``phase_space=True`` also carry the final particle phase space
    (``final_x``/``final_v``) or, for the Vlasov family, the final
    distribution ``final_f``.

    The arrays are frozen (numpy ``writeable=False``): cache hits and
    in-flight dedup hand every requester the *same* result object, so
    an in-place edit by one caller would silently corrupt what the
    store serves to everyone else.  Work on a ``.copy()`` instead.

    ``timings`` is per-delivery telemetry (stage breakdown + trace id),
    excluded from equality and never persisted: the on-disk npz holds
    only the physics, so a disk round trip yields ``timings=None`` and
    each delivery stamps its own.
    """

    key: str
    config: SimulationConfig
    solver: str
    series: dict[str, np.ndarray]
    efield: np.ndarray
    from_cache: bool = field(default=False, compare=False)
    final_x: "np.ndarray | None" = None
    final_v: "np.ndarray | None" = None
    final_f: "np.ndarray | None" = None
    #: Fingerprint of the DL model that produced this result (``None``
    #: for non-DL families).  Persisted with the archive, so a disk
    #: round trip keeps the lineage.
    model_fingerprint: "str | None" = None
    timings: "dict[str, object] | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for values in self.series.values():
            values.setflags(write=False)
        self.efield.setflags(write=False)
        for values in (self.final_x, self.final_v, self.final_f):
            if values is not None:
                values.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return len(self.series["time"]) - 1


class ResultStore:
    """In-memory LRU of :class:`SimulationResult` + optional disk tier.

    Parameters
    ----------
    capacity:
        Maximum number of results held in memory; the least recently
        used entry is evicted first (it stays on disk if ``directory``
        is set).  ``0`` disables the memory tier.
    directory:
        Optional directory of ``<key>.npz`` archives.  Written through
        on every :meth:`put`; read (and promoted to memory) on a
        memory miss.

    Thread-safe: an internal lock guards only the LRU bookkeeping, so
    the (potentially multi-ms) compressed disk reads and writes never
    block concurrent lookups.  Disk writes go through a temp file +
    atomic rename, so a reader in another process can never observe a
    half-written archive.
    """

    def __init__(
        self,
        capacity: int = 256,
        directory: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: "OrderedDict[str, SimulationResult]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.directory is not None and self._disk_path(key).exists()

    def _disk_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.npz"

    def get(self, key: str) -> "SimulationResult | None":
        """Look up a result; memory first, then disk (with promotion)."""
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self._memory.move_to_end(key)
                return result
        if self.directory is not None:
            path = self._disk_path(key)
            if path.exists():
                result = self._load(key, path)  # I/O outside the lock
                self._remember(key, result)
                return result
        return None

    def put(self, result: SimulationResult) -> None:
        """Insert a result under its key (write-through to disk)."""
        self._remember(result.key, result)
        if self.directory is not None:
            self._dump(result)  # I/O outside the lock

    def _remember(self, key: str, result: SimulationResult) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._memory[key] = result
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)

    # -- disk tier -------------------------------------------------------
    def _dump(self, result: SimulationResult) -> None:
        payload: dict = {
            "config": result.config.to_dict(),
            "solver": result.solver,
            "efield": np.asarray(result.efield),
        }
        if result.model_fingerprint is not None:
            payload["model_fingerprint"] = result.model_fingerprint
        for name in ("final_x", "final_v", "final_f"):
            values = getattr(result, name)
            if values is not None:
                payload[name] = np.asarray(values)
        for name, values in result.series.items():
            payload[_SERIES_PREFIX + name] = np.asarray(values)
        # Each writer has its own temp file, and the atomic rename
        # settles a race on one key with some complete archive.
        atomic_write(
            self._disk_path(result.key), lambda tmp: save_npz_dict(tmp, payload)
        )

    @staticmethod
    def _load(key: str, path: Path) -> SimulationResult:
        payload = load_npz_dict(path)
        series = {
            name[len(_SERIES_PREFIX):]: values
            for name, values in payload.items()
            if name.startswith(_SERIES_PREFIX)
        }
        return SimulationResult(
            key=key,
            config=SimulationConfig.from_dict(payload["config"]),
            solver=payload["solver"],
            series=series,
            efield=payload["efield"],
            from_cache=True,
            final_x=payload.get("final_x"),
            final_v=payload.get("final_v"),
            final_f=payload.get("final_f"),
            model_fingerprint=payload.get("model_fingerprint"),
        )
