"""Pluggable kernel backends for the hot numerical paths.

The engines compute one ensemble step through a handful of hot kernels
— particle-grid deposit/gather, the leapfrog pushers and the Vlasov
advection stencils.  Every one of those kernels is *row-independent*:
row ``b`` of a batched result is a function of row ``b`` of the inputs
alone, and the engines already guarantee it is bitwise identical to
running member ``b`` solo.  A kernel backend exploits exactly that
property: it decides *how* the independent rows of one kernel call
execute, never *what* they compute.  The DL solve's evaluation GEMMs
are not routed: ``repro.nn`` runs its fixed row blocks itself.

An engine resolves its backend once and passes it, with its
:class:`~repro.kernels.workspace.Workspace`, to every kernel call,
the DL field solve included; no shared object stores a backend.

Two backends are registered (``SimulationConfig.backend``):

``numpy``
    The reference path — the exact vectorized kernels the seed shipped,
    one slab covering the whole batch.  This is the parity oracle:
    every other backend must reproduce it bit for bit in float64.
``threaded``
    Chunks the batch rows of each kernel call across a shared thread
    pool.  The hot numpy ufuncs release the GIL, so independent row
    chunks genuinely overlap; because each chunk runs
    the unmodified reference arithmetic on its own rows, the result is
    bitwise identical to ``numpy`` in *every* dtype tier.

``backend`` is a *structural* config field: it participates in the
engine compatibility keys and in every cache/store key, so runs on
different backends never share an engine batch or a store slot even
though their float64 results are bitwise equal.
"""

from repro.kernels.backends import (
    KERNEL_BACKEND_NAMES,
    KernelBackend,
    ThreadedBackend,
    get_backend,
    resolve_backend,
)

__all__ = [
    "KERNEL_BACKEND_NAMES",
    "KernelBackend",
    "ThreadedBackend",
    "get_backend",
    "resolve_backend",
]
