"""The content-addressed model store behind ``registry:`` references.

Layout (all writes atomic, same discipline as
:class:`~repro.service.store.ResultStore`)::

    <root>/models/<fingerprint>/model.npz    # DLFieldSolver.save output
    <root>/models/<fingerprint>/solver.json
    <root>/models/<fingerprint>/meta.json    # lineage + file hashes

A model directory is assembled in a hidden temp directory and published
with one ``os.replace`` — a reader (including a spawned executor worker
rehydrating its solver mid-campaign) can never observe a half-written
checkpoint.  Registering the same solver twice is an idempotent no-op:
the fingerprint *is* the address, so identical weights land in the
same slot whatever produced them.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.metrics import REGISTRY_MODELS
from repro.utils.io import sha256_file, temp_path

if TYPE_CHECKING:
    from repro.dlpic.solver import DLFieldSolver

#: Environment variable naming the default registry root; spawned
#: executor workers inherit it, so a bare ``registry:<prefix>`` ref
#: resolves identically across process boundaries.
REGISTRY_ENV = "REPRO_REGISTRY_DIR"

#: Prefix marking a ``model_dir`` value as a registry reference.
REGISTRY_SCHEME = "registry:"

#: Files every registered checkpoint consists of (hashes recorded in
#: ``meta.json``; ``verify`` recomputes them).
_CHECKPOINT_FILES = ("model.npz", "solver.json")

_META_NAME = "meta.json"
_META_VERSION = 1


def default_registry_root() -> Path:
    """The registry root: ``$REPRO_REGISTRY_DIR`` or ``.artifacts/registry``."""
    env = os.environ.get(REGISTRY_ENV)
    if env:
        return Path(env)
    return Path(".artifacts") / "registry"


def resolve_model_dir(value: "str | os.PathLike[str]") -> str:
    """Resolve a ``model_dir`` value to a concrete checkpoint directory.

    Plain paths pass through unchanged.  ``registry:<prefix>`` resolves
    the fingerprint prefix against the default root
    (:func:`default_registry_root`); ``registry:<root>:<prefix>`` names
    the root explicitly — the form to use when the consumer may run
    with a different environment (e.g. spawned worker processes on a
    host where ``$REPRO_REGISTRY_DIR`` is unset).
    """
    text = str(value)
    if not text.startswith(REGISTRY_SCHEME):
        return text
    rest = text[len(REGISTRY_SCHEME):]
    if not rest:
        raise ValueError(
            f"empty registry reference {text!r}; expected "
            f"registry:<fingerprint-prefix> or registry:<root>:<fingerprint-prefix>"
        )
    root, sep, prefix = rest.rpartition(":")
    if sep and root:
        registry = ModelRegistry(root)
    else:
        registry, prefix = ModelRegistry(), rest
    return str(registry.get(prefix).path)


@dataclass(frozen=True)
class RegisteredModel:
    """One registry entry: the fingerprint address + its lineage."""

    fingerprint: str
    path: Path
    meta: "dict[str, Any]"

    @property
    def lineage(self) -> "dict[str, Any]":
        """Training provenance recorded at registration time."""
        return self.meta.get("lineage", {})

    def load(self) -> "DLFieldSolver":
        """Rehydrate the registered solver."""
        from repro.dlpic.solver import DLFieldSolver

        return DLFieldSolver.load_auto(self.path)


class ModelRegistry:
    """Content-addressed store for trained :class:`DLFieldSolver`\\ s.

    Parameters
    ----------
    root:
        Registry root directory (created on first write).  ``None``
        uses :func:`default_registry_root`.
    """

    def __init__(self, root: "str | os.PathLike[str] | None" = None) -> None:
        self.root = Path(root) if root is not None else default_registry_root()

    @property
    def models_dir(self) -> Path:
        return self.root / "models"

    def __len__(self) -> int:
        return len(self.list())

    def __contains__(self, prefix: str) -> bool:
        try:
            self.get(prefix)
        except (KeyError, ValueError):
            return False
        return True

    # -- writes ----------------------------------------------------------
    def register(
        self,
        solver: "DLFieldSolver",
        *,
        campaign_manifest_hash: "str | None" = None,
        training: "Mapping[str, Any] | None" = None,
        metrics: "Mapping[str, Any] | None" = None,
    ) -> RegisteredModel:
        """Store a trained solver under its fingerprint (idempotent).

        ``campaign_manifest_hash`` links the checkpoint back to the
        data campaign that produced its training set (the campaign
        manifest's ``campaign_hash``); ``training`` records the
        optimizer/loss configuration and ``metrics`` the final
        evaluation numbers — all echoed back by :meth:`get`/``list``.
        """
        fingerprint = solver.fingerprint()
        target = self.models_dir / fingerprint
        if target.is_dir() and (target / _META_NAME).exists():
            self._update_gauge()
            return self._entry(target)
        self.models_dir.mkdir(parents=True, exist_ok=True)
        tmp = temp_path(target)
        try:
            solver.save(tmp)
            files = {name: sha256_file(tmp / name) for name in _CHECKPOINT_FILES}
            meta = {
                "version": _META_VERSION,
                "fingerprint": fingerprint,
                "weight_hash": files["model.npz"],
                "files": files,
                "created_at": time.time(),
                "lineage": {
                    "campaign_manifest_hash": campaign_manifest_hash,
                    "training": dict(training) if training is not None else {},
                    "metrics": dict(metrics) if metrics is not None else {},
                },
            }
            (tmp / _META_NAME).write_text(json.dumps(meta, indent=2))
            try:
                os.replace(tmp, target)
            except OSError:
                # A concurrent register of the same fingerprint won the
                # rename race; the published checkpoint is identical by
                # construction (content address), keep it.
                if not target.is_dir():
                    raise
        finally:
            with contextlib.suppress(OSError):
                shutil.rmtree(tmp)
        self._update_gauge()
        return self._entry(target)

    def gc(self) -> "list[str]":
        """Remove corrupt/incomplete entries and stray temp dirs.

        Returns the removed directory names.  An entry is collected
        when it fails :meth:`verify` — missing files, a file hash
        mismatch, or a checkpoint whose recomputed fingerprint no
        longer matches its address.  Intact models are never touched.
        """
        removed = []
        if not self.models_dir.is_dir():
            return removed
        for entry in sorted(self.models_dir.iterdir()):
            if entry.name.startswith(".tmp-"):
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(entry.name)
                continue
            if not self.verify(entry.name):
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(entry.name)
        self._update_gauge()
        return removed

    # -- reads -----------------------------------------------------------
    def list(self) -> "list[RegisteredModel]":
        """Every registered model, sorted by fingerprint."""
        if not self.models_dir.is_dir():
            return []
        out = []
        for entry in sorted(self.models_dir.iterdir()):
            if entry.name.startswith(".tmp-") or not entry.is_dir():
                continue
            if (entry / _META_NAME).exists():
                out.append(self._entry(entry))
        self._update_gauge(len(out))
        return out

    def get(self, prefix: str) -> RegisteredModel:
        """Resolve a fingerprint prefix to its unique registry entry."""
        prefix = str(prefix)
        if not prefix:
            raise ValueError("empty model fingerprint prefix")
        matches = [m for m in self.list() if m.fingerprint.startswith(prefix)]
        if not matches:
            raise KeyError(
                f"no model matching {prefix!r} in registry {self.root} "
                f"({len(self.list())} model(s) registered)"
            )
        if len(matches) > 1:
            names = ", ".join(m.fingerprint[:12] for m in matches)
            raise ValueError(
                f"ambiguous model prefix {prefix!r} in registry {self.root}: "
                f"matches {names}"
            )
        return matches[0]

    def verify(self, prefix: str) -> bool:
        """Recompute a checkpoint's hashes against its manifest.

        True iff every file hash in ``meta.json`` matches the bytes on
        disk AND the rehydrated solver's fingerprint matches the
        directory address — the full content-address guarantee, not
        just file integrity.
        """
        try:
            model = self.get(prefix)
        except (KeyError, ValueError):
            # An entry unreadable through get() (no/corrupt meta.json)
            # can still be named directly by its exact directory name.
            entry = self.models_dir / str(prefix)
            if not entry.is_dir():
                raise
            return False
        for name, recorded in model.meta.get("files", {}).items():
            path = model.path / name
            if not path.exists() or sha256_file(path) != recorded:
                return False
        try:
            return model.load().fingerprint() == model.fingerprint
        except Exception:  # noqa: BLE001 — any load failure = not verified
            return False

    # -- internals -------------------------------------------------------
    def _entry(self, path: Path) -> RegisteredModel:
        try:
            meta = json.loads((path / _META_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            meta = {}
        return RegisteredModel(fingerprint=path.name, path=path, meta=meta)

    def _count(self) -> int:
        if not self.models_dir.is_dir():
            return 0
        return sum(
            1
            for entry in self.models_dir.iterdir()
            if entry.is_dir()
            and not entry.name.startswith(".tmp-")
            and (entry / _META_NAME).exists()
        )

    def _update_gauge(self, count: "int | None" = None) -> None:
        REGISTRY_MODELS.set(self._count() if count is None else count)
