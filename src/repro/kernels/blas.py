"""numpy's BLAS held to one thread, and wide GEMMs split on the kernel pool.

A DL step would otherwise run two sets of compute threads: the kernel
pool (:mod:`repro.kernels.backends`), which chunks the gather, the
pushes, the stencil build and the binning, and the threads of numpy's
bundled OpenBLAS, which run each GEMM of the network forward and
busy-wait after it, so that the pool's next chunks contend with them.
:func:`one_blas_thread` makes the pool the only set: for the length of
a DL-solve forward it holds BLAS to one thread, and inside that scope
:func:`run_columns` splits a wide GEMM's output columns into one part
per usable core on the pool, each part a one-thread BLAS call.

The thread count is numpy's OpenBLAS's own setting, read and set
through its ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_`` exports (looked up once, through
``ctypes``).  It is process-wide, so one count of the open scopes
decides: the first scope to open saves the count and sets one thread,
and the last to close restores the saved count, whatever the scopes
between them did or raised.  Outside every scope BLAS keeps its own
threads (training's forwards and backwards run there).  Where numpy's
BLAS has no such exports, a scope changes nothing and no GEMM splits.

Bits: a GEMM output column depends only on its own column of the
weights, and OpenBLAS sums it in the same order in every part, so the
split keeps every bit, as long as each part stays on the kernels the
whole product runs: its boundaries fall on multiples of
:data:`GEMM_ALIGN` columns, and it holds at least :data:`GEMM_FLOOR`
weights (far above OpenBLAS's small-matrix path).  One BLAS thread and
several give the same bits too: OpenBLAS splits a product across its
threads by output rows and columns, never along the sum.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from typing import Callable, Iterator

from repro.kernels import backends

__all__ = ["blas_threads_settable", "one_blas_thread", "run_columns"]

#: Fewest weights (inner dimension x output columns) one part of a split
#: GEMM holds.  A 16-row block product on a 2-vCPU x86_64 VM (SkylakeX
#: OpenBLAS kernels), two one-thread column halves on the pool against
#: one one-thread call (medians of 8 alternations): halves of 2**17
#: weights ran at 0.68-0.80x in both dtypes, halves of 2**18 at
#: 0.78-1.39x, and halves of 2**19 or more at 1.35-1.96x (the paper
#: MLP's 4096 -> 1024 layer at 1.39x in float64 and 1.96x in float32,
#: its 1024 -> 1024 layers at 1.58x and 1.59x; its 1024 -> 64 layer
#: does not split).
GEMM_FLOOR = 1 << 19

#: Part boundaries fall on multiples of this many output columns.  On
#: the same VM a float64 cut at a multiple of 8 columns kept every bit
#: and every cut at an odd multiple of 4 changed some; 64 is a multiple
#: of every OpenBLAS x86 kernel's unroll.
GEMM_ALIGN = 64


@functools.lru_cache(maxsize=None)
def _thread_calls() -> "tuple[Callable[[], int], Callable[[int], None]] | None":
    """numpy's OpenBLAS thread-count getter and setter, or ``None``."""
    try:
        from numpy._core import _multiarray_umath as umath
        lib = ctypes.CDLL(umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def blas_threads_settable() -> bool:
    """Whether numpy's BLAS exposes the thread setter
    :func:`one_blas_thread` needs."""
    return _thread_calls() is not None


_LOCK = threading.Lock()
# Scopes open in the process, and the count the last to close restores.
_open = 0
_saved = 0
# ``held``: this thread is inside a scope that holds BLAS to one thread.
_local = threading.local()


@contextlib.contextmanager
def one_blas_thread() -> "Iterator[None]":
    """Hold numpy's BLAS to one thread, and let :func:`run_columns` on
    this thread split, for the length of the block.

    Scopes may nest and may be open on several threads at once; the
    count the first one found is restored when the last one closes,
    also when the block raises.
    """
    global _open, _saved
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _LOCK:
        if _open == 0:
            _saved = get()
            set_(1)
        _open += 1
    outer = getattr(_local, "held", False)
    _local.held = True
    try:
        yield
    finally:
        _local.held = outer
        with _LOCK:
            _open -= 1
            if _open == 0:
                set_(_saved)


def _column_parts(n_cols: int, inner: int) -> int:
    """Parts of :data:`GEMM_ALIGN`-aligned width, at most one per usable
    core, each (the shorter last one too) holding ``GEMM_FLOOR`` weights."""
    units = -(-n_cols // GEMM_ALIGN)
    parts = min(backends._CORES, n_cols * inner // GEMM_FLOOR)
    while parts > 1:
        width = -(-units // parts) * GEMM_ALIGN
        last = n_cols - (-(-n_cols // width) - 1) * width
        if last * inner >= GEMM_FLOOR:
            return parts
        parts -= 1
    return 1


def run_columns(fn: "Callable[[int, int], None]", n_cols: int, inner: int) -> None:
    """Run ``fn(lo, hi)``, which computes output columns ``[lo, hi)`` of
    a GEMM with ``inner`` summed terms per output, over ``[0, n_cols)``.

    Inside a :func:`one_blas_thread` scope on this thread the columns
    split into up to one part per usable core, each holding at least
    :data:`GEMM_FLOOR` weights, with boundaries on multiples of
    :data:`GEMM_ALIGN`; the first part runs on the calling thread and
    the rest on the shared kernel pool.  Otherwise, or with fewer than
    two parts, ``fn`` runs once over every column.
    """
    parts = _column_parts(n_cols, inner) if getattr(_local, "held", False) else 1
    if parts < 2:
        fn(0, n_cols)
        return
    backends._run_chunks(
        -(-n_cols // GEMM_ALIGN),
        lambda lo, hi: fn(lo * GEMM_ALIGN, min(hi * GEMM_ALIGN, n_cols)),
        parts,
    )
