"""Dynamic micro-batching of compatible simulation requests.

Requests are bucketed by the engine registry's structural-compatibility
key for the config's solver family
(:func:`repro.engines.engine_group_key`), which folds in the structural
config fields that family's batched engine requires to agree across an
ensemble, plus ``n_steps`` (one ``run()`` call per group) and the
solver family itself.  Within a bucket the batcher applies the classic
dynamic-batching policy: a group is released as soon as it reaches
``max_batch_size``, or when its oldest request has waited ``max_wait``
seconds (deadline flush), whichever comes first.  Incompatible configs
can therefore never be co-batched: they live in different buckets by
construction — and every registered engine family (traditional PIC,
DL-PIC, Vlasov) batches under the same policy.

The batcher is a pure data structure driven by an explicit clock
(every method takes ``now``), which keeps the flush policy unit-testable
without threads or sleeps; :class:`~repro.service.service.SimulationService`
provides the locking and the real clock.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Hashable

from repro.config import SimulationConfig
from repro.engines.base import engine_group_key


@dataclass
class PendingRequest:
    """A submitted run waiting to be batched.

    ``observables`` is the request's canonical observables selection
    (see :func:`repro.engines.observables.canonical_observables`); one
    engine execution records ONE pipeline, so requests co-batch only
    with identical selections.  ``phase_space`` asks for the final
    particle/distribution state — captured per request at result-build
    time, so it does not affect grouping.

    The trailing fields carry per-request observability context:
    ``trace``/``parent_id`` are the request's active trace and the span
    to hang service spans under (``None`` when tracing is off — they
    never affect grouping or execution), ``store_s`` is the store
    lookup cost already paid at submit time, and ``t_submit`` is the
    ``perf_counter`` submit instant that stage timings (batch wait,
    queue wait) are measured from.  ``submitted_at`` stays on
    ``time.monotonic`` — it drives the flush deadline policy and must
    keep the batcher's explicit-clock contract.
    """

    key: str  # content address (store/in-flight slot)
    config: SimulationConfig
    solver: str
    future: "Future[object]"
    observables: "tuple | None" = None
    phase_space: bool = False
    submitted_at: float = field(default_factory=time.monotonic)
    trace: "object | None" = None
    parent_id: "str | None" = None
    store_s: float = 0.0
    t_submit: float = field(default_factory=time.perf_counter)


class MicroBatcher:
    """Groups pending requests and decides when each group flushes."""

    def __init__(self, max_batch_size: int = 16, max_wait: float = 0.02) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be non-negative, got {max_wait}")
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self._groups: "dict[Hashable, list[PendingRequest]]" = {}

    def __len__(self) -> int:
        """Total number of pending requests across all groups."""
        return sum(len(group) for group in self._groups.values())

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def add(self, request: PendingRequest) -> None:
        """File a request under its compatibility bucket."""
        bucket = (engine_group_key(request.config), request.observables)
        self._groups.setdefault(bucket, []).append(request)

    def take_ready(self, now: "float | None" = None) -> list[list[PendingRequest]]:
        """Pop and return every group due for execution.

        A group is due when it holds ``max_batch_size`` requests or its
        oldest request was submitted more than ``max_wait`` ago.  A
        bucket due by *age* flushes whole (split into
        ``max_batch_size`` chunks if requests piled up before the
        worker woke); a bucket due by *size* releases only full chunks
        — the remainder keeps waiting for company until its own
        deadline.
        """
        if now is None:
            now = time.monotonic()
        ready: list[list[PendingRequest]] = []
        for key in list(self._groups):
            group = self._groups[key]
            if now - group[0].submitted_at >= self.max_wait:
                del self._groups[key]
                ready.extend(self._chunk(group))
                continue
            while len(group) >= self.max_batch_size:
                ready.append(group[: self.max_batch_size])
                del group[: self.max_batch_size]
            if not group:
                del self._groups[key]
        return ready

    def drain(self) -> list[list[PendingRequest]]:
        """Pop everything regardless of size or age (shutdown/flush)."""
        groups = [chunk for g in self._groups.values() for chunk in self._chunk(g)]
        self._groups.clear()
        return groups

    def next_deadline(self) -> "float | None":
        """Earliest monotonic time any pending group must flush at."""
        oldest = [group[0].submitted_at for group in self._groups.values()]
        return min(oldest) + self.max_wait if oldest else None

    def _chunk(self, group: list[PendingRequest]) -> list[list[PendingRequest]]:
        return [
            group[i: i + self.max_batch_size]
            for i in range(0, len(group), self.max_batch_size)
        ]
