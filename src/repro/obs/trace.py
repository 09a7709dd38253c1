"""Trace/Span primitives for end-to-end request tracing.

A :class:`Trace` collects :class:`Span` records for one request as it
crosses the stack: client transport → HTTP server → service →
executor worker → engine steps.  Spans time themselves with
``time.perf_counter`` (monotonic, sub-microsecond) and record absolute
perf-counter instants; on the wire and in rendered payloads every
instant is expressed relative to a base so traces survive process
boundaries.

Cross-process spans (executor workers, remote clients) are measured in
their own process — whose perf-counter epoch is unrelated — on a local
:class:`Trace`, shipped as its *relative* :meth:`Trace.span_dicts`
(``start_s`` relative to their own window), and re-anchored into the
adopting trace's timeline with :meth:`Trace.adopt`.
:meth:`Span.to_dict` is the one writer of that wire format and
:func:`spans_from_wire` its validator.

Everything here is stdlib-only and thread-safe.  Tracing off is
``tracer is None``: a layer without a :class:`Tracer` opens no trace,
and hot paths guard with ``if trace:`` on a trace that is ``None``.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence

__all__ = [
    "PARENT_HEADER",
    "TRACE_HEADER",
    "MAX_ATTRIBUTES_PER_SPAN",
    "MAX_SPANS_PER_TRACE",
    "Span",
    "Trace",
    "TraceBuffer",
    "Tracer",
    "span_tree",
    "spans_from_wire",
]

#: HTTP header carrying the trace id from client transports to the server.
TRACE_HEADER = "X-Repro-Trace-Id"
#: HTTP header carrying the client-side parent span id, so the server's
#: root span nests under the client's HTTP span in the merged tree.
PARENT_HEADER = "X-Repro-Parent-Span"

#: Per-span attribute cap: spans are telemetry, not a payload channel.
MAX_ATTRIBUTES_PER_SPAN = 16
#: Per-trace span cap; excess spans are counted in ``Trace.dropped``.
MAX_SPANS_PER_TRACE = 512

_SCALARS = (str, int, float, bool)


def _clean_attr(value):
    if value is None or isinstance(value, _SCALARS):
        return value
    return str(value)


class Span:
    """One timed operation inside a trace.

    Use as a context manager (via :meth:`Trace.span`) or call
    :meth:`finish` explicitly.  ``start`` / ``end`` are absolute
    ``time.perf_counter`` instants in this process; rendering converts
    them to offsets from the trace base.
    """

    __slots__ = ("attributes", "end", "name", "parent_id", "span_id", "start", "_trace")

    def __init__(self, name, *, trace=None, parent_id=None, start=None, span_id=None):
        self.name = str(name)
        self.span_id = span_id if span_id is not None else uuid.uuid4().hex[:16]
        self.parent_id = parent_id
        self.start = time.perf_counter() if start is None else float(start)
        self.end = None
        self.attributes = {}
        self._trace = trace

    @property
    def duration_s(self):
        """Span duration in seconds, or ``None`` while still open."""

        if self.end is None:
            return None
        return self.end - self.start

    def set_attribute(self, key, value):
        """Attach a JSON-scalar attribute (bounded per span)."""

        if len(self.attributes) >= MAX_ATTRIBUTES_PER_SPAN and key not in self.attributes:
            return self
        self.attributes[str(key)] = _clean_attr(value)
        return self

    def finish(self, *, end=None):
        """Close the span (idempotent) and hand it to its trace."""

        if self.end is not None:
            return self
        self.end = time.perf_counter() if end is None else float(end)
        trace, self._trace = self._trace, None
        if trace is not None:
            trace.add_span(self)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.set_attribute("error", f"{exc_type.__name__}: {exc}")
        self.finish()
        return False

    def to_dict(self, base=0.0):
        """Serialize with ``start_s`` relative to ``base``."""

        end = self.end if self.end is not None else self.start
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start - base,
            "duration_s": end - self.start,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        return out

    def __repr__(self):  # pragma: no cover - debugging aid
        dur = self.duration_s
        state = f"{dur * 1e3:.3f}ms" if dur is not None else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


def spans_from_wire(spans: Iterable[Mapping]) -> list[dict]:
    """Validate a list of wire-format span dicts (raises ``ValueError``).

    Wire spans are relative: ``start_s`` is an offset from the sender's
    own window origin.  Used by the server when a remote client ships
    its half of a trace.
    """

    cleaned = []
    for index, raw in enumerate(spans):
        if not isinstance(raw, Mapping):
            raise ValueError(f"span #{index} is not an object")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"span #{index} is missing a name")
        span_id = raw.get("span_id")
        if not isinstance(span_id, str) or not span_id:
            raise ValueError(f"span {name!r} is missing a span_id")
        parent_id = raw.get("parent_id")
        if parent_id is not None and not isinstance(parent_id, str):
            raise ValueError(f"span {name!r} has a non-string parent_id")
        try:
            start_s = float(raw.get("start_s", 0.0))
            duration_s = float(raw.get("duration_s", 0.0))
        except (TypeError, ValueError):
            raise ValueError(f"span {name!r} has non-numeric timings") from None
        span = {
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "start_s": start_s,
            "duration_s": max(0.0, duration_s),
        }
        attrs = raw.get("attributes")
        if attrs:
            if not isinstance(attrs, Mapping):
                raise ValueError(f"span {name!r} attributes must be an object")
            span["attributes"] = {
                str(k): _clean_attr(v)
                for k, v in list(attrs.items())[:MAX_ATTRIBUTES_PER_SPAN]
            }
        cleaned.append(span)
    return cleaned


class Trace:
    """A bounded, thread-safe collection of spans for one request."""

    def __init__(self, trace_id=None, *, name="request", buffer=None):
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex
        self.name = str(name)
        self.t0 = time.perf_counter()
        self.dropped = 0
        self._spans = []       # finished Span objects (absolute instants)
        self._remote = []      # adopted span dicts (absolute instants)
        self._finished = False
        self._buffer = buffer
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def start_span(self, name, *, parent_id=None):
        """Open a span; caller must ``finish()`` it (or use :meth:`span`)."""

        return Span(name, trace=self, parent_id=parent_id)

    def span(self, name, *, parent_id=None):
        """Context-manager sugar: ``with trace.span("stage") as sp:``."""

        return self.start_span(name, parent_id=parent_id)

    def add_span(self, span):
        """Record a finished :class:`Span` (called by ``Span.finish``)."""

        with self._lock:
            if len(self._spans) + len(self._remote) >= MAX_SPANS_PER_TRACE:
                self.dropped += 1
                return
            self._spans.append(span)

    def adopt(self, spans: Sequence[Mapping], *, anchor, parent_id=None):
        """Re-anchor relative span dicts into this trace's timeline.

        ``anchor`` is the local ``perf_counter`` instant corresponding
        to the senders' window origin (``start_s == 0``).  Spans whose
        ``parent_id`` is ``None`` are re-parented under ``parent_id``,
        grafting the foreign subtree into this trace's span tree.
        """

        with self._lock:
            for raw in spans:
                if len(self._spans) + len(self._remote) >= MAX_SPANS_PER_TRACE:
                    self.dropped += 1
                    continue
                span = dict(raw)
                span["start_s"] = anchor + float(span.get("start_s", 0.0))
                if span.get("parent_id") is None and parent_id is not None:
                    span["parent_id"] = parent_id
                self._remote.append(span)

    def adopt_remote(self, spans: Sequence[Mapping]):
        """Merge a remote initiator's half of this trace (clock-aligned).

        Used when an HTTP client that *opened* the trace ships its
        spans after the fact.  Alignment: the propagation headers made
        a local span (``server.request``) a child of one of the shipped
        spans (``client.http``), so that shipped span must enclose the
        local one — the unaccounted time (network RTT) is split evenly
        before and after.  Without such a link the remote window is
        right-aligned to the latest local span end.
        """

        if not spans:
            return
        by_id = {s["span_id"]: s for s in spans}
        with self._lock:
            local = list(self._spans)
        anchor = None
        for span in local:
            parent = by_id.get(span.parent_id)
            if parent is None:
                continue
            local_dur = (span.end if span.end is not None else span.start) - span.start
            slack = max(0.0, float(parent["duration_s"]) - local_dur) / 2.0
            anchor = span.start - slack - float(parent["start_s"])
            break
        if anchor is None:
            ends = [
                (s.end if s.end is not None else s.start) for s in local
            ]
            latest = max(ends) if ends else time.perf_counter()
            total = max(
                (float(s["start_s"]) + float(s["duration_s"]) for s in spans),
                default=0.0,
            )
            anchor = latest - total
        self.adopt(spans, anchor=anchor)

    # -- completion ----------------------------------------------------

    def finish(self):
        """Mark the trace complete and publish it to the buffer (idempotent)."""

        with self._lock:
            if self._finished:
                return self
            self._finished = True
            buffer, self._buffer = self._buffer, None
        if buffer is not None:
            buffer.add(self)
        return self

    # -- rendering -----------------------------------------------------

    def span_dicts(self):
        """All spans as flat dicts, ``start_s`` relative to the earliest span."""

        with self._lock:
            local = [span.to_dict(0.0) for span in self._spans]
            remote = [dict(span) for span in self._remote]
        spans = local + remote
        if not spans:
            return []
        base = min(span["start_s"] for span in spans)
        for span in spans:
            span["start_s"] -= base
        spans.sort(key=lambda span: span["start_s"])
        return spans

    def to_payload(self):
        """JSON payload for ``GET /v1/trace/<id>``: metadata + span tree."""

        spans = self.span_dicts()
        duration = max((s["start_s"] + s["duration_s"] for s in spans), default=0.0)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "n_spans": len(spans),
            "duration_s": duration,
            "dropped_spans": self.dropped,
            "complete": self._finished,
            "spans": span_tree(spans),
        }


def span_tree(spans: Sequence[Mapping]) -> list[dict]:
    """Nest flat span dicts into a tree via ``parent_id`` links.

    Spans whose parent is missing (cross-process gaps, dropped spans)
    become roots.  Children are sorted by start time.
    """

    nodes = OrderedDict()
    for span in spans:
        node = dict(span)
        node["children"] = []
        nodes[node["span_id"]] = node
    roots = []
    for node in nodes.values():
        parent = nodes.get(node["parent_id"]) if node["parent_id"] else None
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    def _sort(items):
        items.sort(key=lambda n: n["start_s"])
        for item in items:
            _sort(item["children"])
    _sort(roots)
    return roots


class TraceBuffer:
    """Process-wide bounded ring of recently completed traces."""

    def __init__(self, capacity=256):
        if capacity < 1:
            raise ValueError("TraceBuffer capacity must be >= 1")
        self.capacity = int(capacity)
        self._traces = OrderedDict()
        self._lock = threading.Lock()
        self.completed = 0
        self.evicted = 0

    def add(self, trace):
        with self._lock:
            self._traces.pop(trace.trace_id, None)
            self._traces[trace.trace_id] = trace
            self.completed += 1
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self.evicted += 1

    def get(self, trace_id):
        with self._lock:
            return self._traces.get(trace_id)

    def last(self):
        with self._lock:
            if not self._traces:
                return None
            return next(reversed(self._traces.values()))

    def ids(self):
        with self._lock:
            return list(self._traces)

    def __len__(self):
        with self._lock:
            return len(self._traces)

    def stats(self):
        with self._lock:
            return {
                "capacity": self.capacity,
                "buffered": len(self._traces),
                "completed": self.completed,
                "evicted": self.evicted,
            }


class Tracer:
    """Factory for traces, bound to a :class:`TraceBuffer`."""

    def __init__(self, *, buffer=None, capacity=256):
        self.buffer = buffer if buffer is not None else TraceBuffer(capacity)

    def start_trace(self, name="request", *, trace_id=None):
        return Trace(trace_id, name=name, buffer=self.buffer)

    def get(self, trace_id):
        return self.buffer.get(trace_id)
