"""Unified engine layer: one registry, one observables pipeline.

Every solver family — the batched PIC ensemble, the DL-PIC ensemble and
the semi-Lagrangian Vlasov ensemble — is constructed through
:func:`make_engine` from a ``SimulationConfig`` whose ``solver`` field
names the family, and records diagnostics through the shared streaming
:class:`Observables` pipeline.  See ``repro.engines.base`` for the
registry and ``repro.engines.observables`` for the pipeline.

``VlasovEnsemble`` is re-exported lazily (it pulls in the Vlasov
numerics); everything else is import-light.
"""

from repro.engines.base import (
    STRUCTURAL_FIELDS,
    Engine,
    EngineSpec,
    available_engines,
    engine_group_key,
    get_engine_spec,
    make_engine,
    structural_key,
    validate_engine_config,
    vlasov_grid_params,
)
from repro.engines.observables import (
    ModeAmplitude,
    Observables,
    canonical_observables,
    observables_token,
    resolve_observables,
    selection_to_jsonable,
)

__all__ = [
    "STRUCTURAL_FIELDS",
    "Engine",
    "EngineSpec",
    "available_engines",
    "engine_group_key",
    "get_engine_spec",
    "make_engine",
    "structural_key",
    "validate_engine_config",
    "vlasov_grid_params",
    "ModeAmplitude",
    "Observables",
    "canonical_observables",
    "observables_token",
    "resolve_observables",
    "selection_to_jsonable",
    "VlasovEnsemble",
]


def __getattr__(name: str):
    # Lazy: the Vlasov ensemble imports the solver numerics, which in
    # turn import the diagnostics shims that import this package.
    if name == "VlasovEnsemble":
        from repro.vlasov.ensemble import VlasovEnsemble

        return VlasovEnsemble
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
