"""Observability: end-to-end request tracing + one metrics registry.

Stdlib-only (no third-party dependencies, no numpy) so every layer of
the stack — client transports, the asyncio server, the service worker
thread and spawned executor workers — can import it without cost.

Three pieces:

* :mod:`repro.obs.trace` — the ``Trace``/``Span`` API: context-manager
  spans with monotonic timings, nested parent ids and bounded per-span
  attributes, collected per trace and kept in a process-wide bounded
  :class:`TraceBuffer` ring.  The module-level :data:`NOOP_TRACER` is
  the zero-cost default; a real :class:`Tracer` is switched in via
  ``SimulationService(tracing=True)`` / ``repro serve --trace``.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, labelled
  counter, gauge and histogram families behind one lock.  Its
  ``snapshot()`` is the JSON view and :func:`render_prometheus` the
  Prometheus text view of the same families.  The service and the
  server each own one; :data:`PROCESS_METRICS` holds the process-wide
  campaign-shard and model-registry families.  ``GET /v1/metrics``
  and ``Client.stats`` serve the merged snapshot.
* :mod:`repro.obs.waterfall` — the ``repro trace`` inspector's span
  timeline rendering (per-span bars, durations and percentages).
"""

from repro.obs.metrics import PROCESS_METRICS, MetricsRegistry, render_prometheus, total
from repro.obs.trace import (
    NOOP_TRACE,
    NOOP_TRACER,
    PARENT_HEADER,
    TRACE_HEADER,
    NoopTracer,
    Span,
    Trace,
    TraceBuffer,
    Tracer,
    new_span_id,
    new_trace_id,
    span_tree,
    spans_from_wire,
)
from repro.obs.waterfall import render_waterfall

__all__ = [
    "NOOP_TRACE",
    "NOOP_TRACER",
    "PARENT_HEADER",
    "PROCESS_METRICS",
    "TRACE_HEADER",
    "MetricsRegistry",
    "NoopTracer",
    "Span",
    "Trace",
    "TraceBuffer",
    "Tracer",
    "new_span_id",
    "new_trace_id",
    "render_prometheus",
    "render_waterfall",
    "span_tree",
    "spans_from_wire",
    "total",
]
