"""Observability: end-to-end request tracing + one metrics registry.

Stdlib-only (no third-party dependencies, no numpy) so every layer of
the stack — client transports, the asyncio server, the service worker
thread and spawned executor workers — can import it without cost.

Three pieces:

* :mod:`repro.obs.trace` — the ``Trace``/``Span`` API: context-manager
  spans with monotonic timings, nested parent ids and bounded per-span
  attributes, collected per trace and kept in a process-wide bounded
  :class:`TraceBuffer` ring.  Tracing off is ``tracer is None``; a
  :class:`Tracer` is switched in via ``SimulationService(tracing=True)``
  / ``repro serve --trace``.
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
    PARENT_HEADER,
    TRACE_HEADER,
    Span,
    Trace,
    TraceBuffer,
    Tracer,
    span_tree,
    spans_from_wire,
)
from repro.obs.waterfall import render_waterfall

__all__ = [
    "PARENT_HEADER",
    "PROCESS_METRICS",
    "TRACE_HEADER",
    "MetricsRegistry",
    "Span",
    "Trace",
    "TraceBuffer",
    "Tracer",
    "render_prometheus",
    "render_waterfall",
    "span_tree",
    "spans_from_wire",
    "total",
]
