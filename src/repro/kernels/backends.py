"""The engines' kernel backend, and the test backend that forces chunking.

A backend's contract is one method, :meth:`KernelBackend.run_rows`:
given a slab function ``fn(lo, hi)`` that computes rows ``[lo, hi)`` of
one kernel call, the backend decides how the row range ``[0, n_rows)``
is executed — as one slab, or as contiguous chunks over a shared thread
pool.  :class:`KernelBackend` chunks a call only when every chunk holds
at least :data:`FLOOR` of the call's particles; :class:`ThreadedBackend`
chunks every multi-row call, which is how the tests check chunk
boundaries at sizes below the floor.  Because every routed kernel writes
disjoint output rows and reads its inputs immutably, chunked execution
is race-free and — the engines' per-row bitwise invariance — produces
the identical bit pattern in every dtype tier.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

__all__ = ["KernelBackend", "ThreadedBackend"]


def _usable_cores() -> int:
    """CPU cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Counted once per process; every ``run_rows`` call reads it.
_CORES = _usable_cores()

#: Fewest particles one chunk of a :class:`KernelBackend` call holds: above
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
    """The kernel backend every engine runs: the unmodified kernels,
    split across the usable cores only where a call is large enough to
    pay.

    Which engines use it is a class attribute of each engine
    (``_backend``), not a config choice.  Both this class and
    :class:`ThreadedBackend` define :meth:`run_rows` on their own class:
    the benchmark harness counts the seam by patching each class's own
    ``run_rows`` (``COUNTED`` in ``benchmarks/harness/layers.py``).
    """

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


class ThreadedBackend(KernelBackend):
    """The test backend: chunk every multi-row call across the shared
    thread pool, whatever its size.

    The chunk count is the smaller of the worker count and the row
    count; single-row calls (and ``max_workers=1``) run one slab.
    Every pinned test run is far below :data:`FLOOR`, where
    :class:`KernelBackend` runs one slab, so the tests set an engine
    class's ``_backend`` to ``ThreadedBackend(max_workers=N)`` to check
    that chunk boundaries keep every bit.  No engine runs it by
    default: it differs from :class:`KernelBackend` only on calls below
    the floor, where the hand-off costs more than the second core saves
    (on a 2-vCPU x86_64 VM an 8 x 64,000-particle step took 23.5 ms
    with two workers against 19.7 ms, medians of 10 alternations).
    """

    def __init__(self, max_workers: int) -> None:
        self.workers = int(max_workers)
        if self.workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")

    def run_rows(
        self, n_rows: int, fn: "Callable[[int, int], None]", size: int = 0
    ) -> None:
        """Run ``fn`` over ``[0, n_rows)`` in ``min(max_workers, n_rows)``
        contiguous chunks; ``size`` is ignored."""
        _run_chunks(n_rows, fn, self.workers)
