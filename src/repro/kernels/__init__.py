"""The kernel backend of the hot numerical paths.

The engines compute one ensemble step through a handful of hot kernels
— particle-grid deposit/gather, the leapfrog pushers and the Vlasov
advection stencils.  Every one of those kernels is *row-independent*:
row ``b`` of a batched result is a function of row ``b`` of the inputs
alone, and the engines already guarantee it is bitwise identical to
running member ``b`` solo.  A kernel backend exploits exactly that
property: it decides *how* the independent rows of one kernel call
execute, never *what* they compute.  The DL solve's evaluation GEMMs
are not routed: ``repro.nn`` runs its fixed row blocks itself.

There is one kernel tier, and it is a property of each engine class,
not of the config: an engine's class attribute ``_backend`` is the
backend it passes, with its :class:`~repro.kernels.workspace.Workspace`,
to every kernel call, the DL field solve included, and that it hands
its default traditional field solver at construction.  No shared
object stores a backend.  So the kernels (gather, deposit, the stencil
build, the pushers) and ``DLFieldSolver.fields`` keep a ``backend=``
parameter rather than reading one module-level backend: each call
carries the stepping engine's choice (``None`` on a DL engine), and the
tests hand the kernels a :class:`ThreadedBackend` directly.

:class:`KernelBackend`
    The backend of the traditional, MPI and Vlasov engines.  A call
    large enough that every chunk holds at least
    :data:`~repro.kernels.backends.FLOOR` particles splits its batch
    rows across the usable cores; smaller calls, and calls that pass
    no particle count (the Vlasov advections), run one slab covering
    the whole batch.  ``DLEnsemble._backend`` is ``None`` (one slab
    everywhere), because its GEMM already runs on BLAS threads.
:class:`ThreadedBackend`
    The test backend: it chunks the batch rows of every multi-row call
    across the same shared thread pool, whatever the call's size, so
    the parity tests can check chunk boundaries at pinned sizes, all
    of which are below the floor.  Each chunk runs the unmodified
    arithmetic on its own rows, so the result is bitwise identical to
    one slab in *every* dtype tier.

``SimulationConfig.backend`` is kept only for the v1 wire format: its
one accepted value is ``"numpy"``, so every cache and store key stays
what it was.
"""

from repro.kernels.backends import KernelBackend, ThreadedBackend

__all__ = ["KernelBackend", "ThreadedBackend"]
