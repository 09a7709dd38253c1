"""Content-addressed registry for trained DL field solvers.

Trained checkpoints are stored under their
:meth:`~repro.dlpic.solver.DLFieldSolver.fingerprint` — the sha256 of
architecture + weights + frozen preprocessing — together with a
``meta.json`` recording training lineage (the data campaign's manifest
hash, optimizer/loss configuration, metrics).  Every layer that takes a
``model_dir=`` also accepts a registry reference::

    registry:<fingerprint-prefix>          # root from $REPRO_REGISTRY_DIR
    registry:<root>:<fingerprint-prefix>   # explicit root (crosses processes)

resolved by :func:`resolve_model_dir` (hooked into
:meth:`DLFieldSolver.load_auto`, which serves the CLI, the service and
spawned executor workers alike).
"""

from repro.registry.registry import (
    REGISTRY_ENV,
    REGISTRY_SCHEME,
    ModelRegistry,
    RegisteredModel,
    default_registry_root,
    resolve_model_dir,
)

__all__ = [
    "REGISTRY_ENV",
    "REGISTRY_SCHEME",
    "ModelRegistry",
    "RegisteredModel",
    "default_registry_root",
    "resolve_model_dir",
]
