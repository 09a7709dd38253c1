"""Simulation-as-a-service layer over the batched PIC engines.

Independently arriving run requests are coalesced by a dynamic
micro-batcher (flush on batch size or deadline) into single
:class:`~repro.pic.simulation.EnsembleSimulation` /
:class:`~repro.dlpic.DLEnsemble` executions, and deduplicated against a
content-addressed result store before they ever reach an engine.  Every
served result is bitwise identical to running its config alone; the
``repro serve`` CLI drains JSONL request streams through this service.
"""

from repro.service.batcher import MicroBatcher, PendingRequest
from repro.service.executor import (
    Executor,
    GroupOutcome,
    GroupTask,
    GroupTimeoutError,
    InlineExecutor,
    ShardedExecutor,
)
from repro.service.requests import parse_request, read_requests
from repro.service.service import (
    STATUS_CACHED,
    STATUS_INFLIGHT,
    STATUS_QUEUED,
    SimulationService,
)
from repro.service.store import ResultStore, SimulationResult, result_key

__all__ = [
    "MicroBatcher",
    "PendingRequest",
    "Executor",
    "GroupOutcome",
    "GroupTask",
    "GroupTimeoutError",
    "InlineExecutor",
    "ShardedExecutor",
    "parse_request",
    "read_requests",
    "STATUS_CACHED",
    "STATUS_INFLIGHT",
    "STATUS_QUEUED",
    "SimulationService",
    "ResultStore",
    "SimulationResult",
    "result_key",
]
