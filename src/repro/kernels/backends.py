"""The kernel-backend registry and the two built-in backends.

A backend's contract is one method, :meth:`KernelBackend.run_rows`:
given a slab function ``fn(lo, hi)`` that computes rows ``[lo, hi)`` of
one kernel call, the backend decides how the row range ``[0, n_rows)``
is executed.  The reference backend runs one full slab; the threaded
backend splits the range into contiguous chunks over a shared thread
pool.  Because every routed kernel writes disjoint output rows and
reads its inputs immutably, chunked execution is race-free and — the
engines' per-row bitwise invariance — produces the identical bit
pattern in every dtype tier.

The optional ``multiple`` argument pins chunk boundaries to a row
granularity (the evaluation GEMM's fixed ``GEMM_BLOCK`` row blocks must
never be split, or the BLAS reduction order — and hence the bits —
would change).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

__all__ = [
    "KERNEL_BACKEND_NAMES",
    "KernelBackend",
    "ThreadedBackend",
    "available_backends",
    "backend_available",
    "backend_unavailable_reason",
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


class KernelBackend:
    """The ``numpy`` reference backend: one slab, the unmodified kernels.

    Also the base class of every other backend — subclasses override
    :meth:`run_rows` but inherit the do-nothing defaults, so routing
    sites can hold any backend behind one interface.
    """

    name = "numpy"
    #: True when run_rows may execute chunks concurrently.
    parallel = False

    def run_rows(
        self, n_rows: int, fn: "Callable[[int, int], None]", multiple: int = 1
    ) -> None:
        """Execute ``fn`` over the whole row range as one slab."""
        fn(0, n_rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# One process-wide pool shared by every ThreadedBackend instance: the
# kernels it runs are short, so pool reuse (no per-call thread spawn)
# is what makes intra-step chunking worthwhile at all.
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


class ThreadedBackend(KernelBackend):
    """Chunk independent batch rows across a shared thread pool.

    The chunk count adapts to the smaller of the worker count and the
    row count; single-row calls (and single-core hosts) fall straight
    through to the reference slab, so selecting ``threaded`` is never
    slower than ``numpy`` by more than the cost of a pool round trip.
    """

    name = "threaded"
    parallel = True

    def __init__(self, max_workers: "int | None" = None) -> None:
        self.workers = int(max_workers) if max_workers else _usable_cores()
        if self.workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")

    def run_rows(
        self, n_rows: int, fn: "Callable[[int, int], None]", multiple: int = 1
    ) -> None:
        """Run ``fn`` over ``[0, n_rows)`` in parallel contiguous chunks.

        Chunk boundaries are always a multiple of ``multiple`` (except
        the final bound, ``n_rows`` itself), so granular kernels keep
        their internal block structure.  Worker exceptions propagate to
        the caller.
        """
        units = -(-n_rows // multiple) if n_rows > 0 else 0
        chunks = min(self.workers, units)
        if chunks < 2:
            fn(0, n_rows)
            return
        per = -(-units // chunks) * multiple
        bounds = [
            (lo, min(lo + per, n_rows)) for lo in range(0, n_rows, per)
        ]
        pool = _shared_pool(self.workers)
        futures = [pool.submit(fn, lo, hi) for lo, hi in bounds]
        for future in futures:
            future.result()


_BACKENDS: "dict[str, Callable[[], KernelBackend]]" = {
    "numpy": KernelBackend,
    "threaded": ThreadedBackend,
}
_INSTANCES: "dict[str, KernelBackend]" = {}
_INSTANCE_LOCK = threading.Lock()


def available_backends() -> "tuple[str, ...]":
    """Every registered backend name, in registry order."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> KernelBackend:
    """The shared backend instance for ``name`` (built lazily once)."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
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


def backend_available(name: str) -> bool:
    """Whether ``name`` runs at full speed on this host.

    Every registered name is *selectable*; this reports whether the
    backend's accelerated path is actually live — benchmarks use it to
    skip speedup gates that cannot hold.
    """
    if name == "threaded":
        return _usable_cores() > 1
    return name in _BACKENDS


def backend_unavailable_reason(name: str) -> "str | None":
    """Human-readable reason :func:`backend_available` is False, else None."""
    if backend_available(name):
        return None
    if name == "threaded":
        return "only one usable CPU core"
    return f"unknown kernel backend {name!r}"
