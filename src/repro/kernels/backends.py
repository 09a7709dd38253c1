"""The kernel-backend registry and the two built-in backends.

A backend's contract is one method, :meth:`KernelBackend.run_rows`:
given a slab function ``fn(lo, hi)`` that computes rows ``[lo, hi)`` of
one kernel call, the backend decides how the row range ``[0, n_rows)``
is executed — as one slab, or as contiguous chunks over a shared thread
pool.  The reference backend chunks a call only when every chunk holds
at least :data:`FLOOR` of the call's particles; the threaded backend
chunks every multi-row call.  Because every routed kernel writes
disjoint output rows and reads its inputs immutably, chunked execution
is race-free and — the engines' per-row bitwise invariance — produces
the identical bit pattern in every dtype tier.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

__all__ = [
    "KERNEL_BACKEND_NAMES",
    "KernelBackend",
    "ThreadedBackend",
    "get_backend",
    "resolve_backend",
]

#: Every selectable ``SimulationConfig.backend`` value, in registry
#: order.  ``repro.config`` validates against the same pair (a unit
#: test pins the two lists together).
KERNEL_BACKEND_NAMES = ("numpy", "threaded")


def _usable_cores() -> int:
    """CPU cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Counted once per process; every ``run_rows`` call reads it.
_CORES = _usable_cores()

#: Fewest particles one chunk of a ``numpy``-backend call holds: above
#: the chunk size whose gain depends on the host's load, below the one
#: that wins under any load.  Engine steps on a 2-vCPU x86_64 VM,
#: chunked against one slab (median speed-ups of 10 alternations, one
#: set in a busy host phase and one in a quiet one): calls of
#: 25,600-64,000 particles in two chunks ran at 0.29-0.65x and
#: 0.48-1.00x, calls of 128,000 at 0.72-0.94x and 1.33-1.45x, calls of
#: 256,000 at 1.03-1.21x and 1.47-1.59x, and 8 x 64,000 at 1.39x and
#: 1.66x.
FLOOR = 100_000

# One process-wide pool shared by every backend instance: the kernels
# it runs are short, so pool reuse (no per-call thread spawn) is what
# makes intra-step chunking worthwhile at all.
_POOL: "ThreadPoolExecutor | None" = None
_POOL_LOCK = threading.Lock()


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-kernels"
            )
        return _POOL


def _run_chunks(n_rows: int, fn: "Callable[[int, int], None]", chunks: int) -> None:
    """Run ``fn`` over ``[0, n_rows)`` as up to ``chunks`` contiguous
    chunks; fewer than two run as one slab.

    The first chunk runs on the calling thread and the rest on the
    shared pool.  Every chunk has finished before this returns or
    raises, and the first exception propagates to the caller.
    """
    chunks = min(chunks, n_rows)
    if chunks < 2:
        fn(0, n_rows)
        return
    per = -(-n_rows // chunks)
    pool = _shared_pool(max(chunks, _CORES))
    futures = [
        pool.submit(fn, lo, min(lo + per, n_rows)) for lo in range(per, n_rows, per)
    ]
    try:
        fn(0, per)
    finally:
        wait(futures)
    for future in futures:
        future.result()


class KernelBackend:
    """The ``numpy`` reference backend: the unmodified kernels, split
    across the usable cores only where a call is large enough to pay.

    Also the base class of every other backend — subclasses override
    :meth:`run_rows`, so routing sites can hold any backend behind one
    interface.
    """

    name = "numpy"

    def run_rows(
        self, n_rows: int, fn: "Callable[[int, int], None]", size: int = 0
    ) -> None:
        """Execute ``fn`` over ``[0, n_rows)``.

        ``size`` is the number of particles the call touches.  The rows
        split into ``min(usable cores, n_rows, size // FLOOR)`` chunks;
        fewer than two — a small call, a single row, a single core, or
        a call that passes no ``size`` — run as one slab.
        """
        _run_chunks(n_rows, fn, min(_CORES, size // FLOOR))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class ThreadedBackend(KernelBackend):
    """Chunk every multi-row call across the shared thread pool.

    The chunk count is the smaller of the worker count and the row
    count, whatever the call's size; single-row calls (and single-core
    hosts) fall straight through to the reference slab.  The ``numpy``
    backend already chunks the calls large enough to gain, so this
    differs from it only on smaller calls, where the hand-off costs
    more than the second core saves (see :data:`FLOOR`).  On a 2-vCPU
    x86_64 VM an 8 x 64,000-particle step took 23.5 ms on ``threaded``,
    19.7 ms on ``numpy`` and 31.6 ms as one slab (medians of 10
    alternations).  The two vCPUs give the kernels more than one core's
    worth of memory bandwidth at these sizes: two threads ran separate
    adds of 4 MB arrays (the size of one 8 x 64,000 float64 array)
    1.95x faster than one thread ran both (median of 30 alternations).
    """

    name = "threaded"

    def __init__(self, max_workers: "int | None" = None) -> None:
        self.workers = _CORES if max_workers is None else int(max_workers)
        if self.workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")

    def run_rows(
        self, n_rows: int, fn: "Callable[[int, int], None]", size: int = 0
    ) -> None:
        """Run ``fn`` over ``[0, n_rows)`` in ``min(max_workers, n_rows)``
        contiguous chunks; ``size`` is ignored."""
        _run_chunks(n_rows, fn, self.workers)


_BACKENDS: "dict[str, Callable[[], KernelBackend]]" = {
    "numpy": KernelBackend,
    "threaded": ThreadedBackend,
}
_INSTANCES: "dict[str, KernelBackend]" = {}
_INSTANCE_LOCK = threading.Lock()


def get_backend(name: str) -> KernelBackend:
    """The shared backend instance for ``name`` (built lazily once)."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(KERNEL_BACKEND_NAMES)}"
        ) from None
    with _INSTANCE_LOCK:
        backend = _INSTANCES.get(name)
        if backend is None:
            backend = _INSTANCES[name] = factory()
        return backend


def resolve_backend(spec: "str | KernelBackend | None") -> KernelBackend:
    """Coerce a config field / instance / None to a backend object.

    ``None`` means the reference backend — callers that never heard of
    backends keep the historical numpy path with zero lookups.
    """
    if spec is None:
        return get_backend("numpy")
    if isinstance(spec, KernelBackend):
        return spec
    return get_backend(spec)
