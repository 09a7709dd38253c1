"""Conservation and spectral diagnostics for PIC runs.

The implementation lives in :mod:`repro.engines.observables`, the
streaming observables pipeline shared by every engine family; this
module re-exports the measurement functions unchanged.  Series are
recorded by an :class:`~repro.engines.observables.Observables` (take
one from ``engine.observables()``); served runs expose theirs through
:class:`repro.api.RunResult`.
"""

from __future__ import annotations

from repro.engines.observables import (
    field_energy,
    field_energy_rows,
    kinetic_energy,
    kinetic_energy_rows,
    mode_amplitude,
    mode_amplitude_rows,
    mode_spectrum,
    total_momentum,
    total_momentum_rows,
)

__all__ = [
    "kinetic_energy",
    "field_energy",
    "total_momentum",
    "mode_amplitude",
    "mode_spectrum",
    "kinetic_energy_rows",
    "field_energy_rows",
    "total_momentum_rows",
    "mode_amplitude_rows",
]
