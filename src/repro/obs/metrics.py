"""One metrics registry: labelled counter, gauge and histogram families.

A :class:`MetricsRegistry` holds metric *families* — a counter, a gauge
or a histogram with a fixed tuple of label names — behind one lock.
:meth:`MetricsRegistry.snapshot` is the JSON renderer, and
:func:`render_prometheus` turns any snapshot, or a merge of several
(``{**a, **b}``: family names are unique across registries), into
Prometheus text exposition 0.0.4, so the two views cannot drift apart.

Each layer owns a registry and counts what it sees: the simulation
service (submits, engine batches, executed runs, group errors), the
HTTP server (requests, responses, connections, stage durations), and
:data:`PROCESS_METRICS`, which holds the process-wide families of the
data-campaign stream and the model registry — both run inside and
outside a server, so they belong to no one service.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Callable, Mapping

__all__ = [
    "CAMPAIGN_SHARDS",
    "DEFAULT_BUCKETS",
    "PROCESS_METRICS",
    "REGISTRY_MODELS",
    "MetricsRegistry",
    "render_prometheus",
    "total",
]

#: Log-spaced duration buckets (seconds) covering sub-ms engine steps
#: through multi-second queue waits.  Upper bounds; the +Inf bucket is
#: implied.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _Family:
    """One metric name with fixed label names; values keyed by label values.

    A family built with ``fn`` takes no labels and reads its one value
    from the callback at snapshot time (outside the registry lock, so a
    callback may take its owner's lock).
    """

    kind = ""

    def __init__(
        self,
        lock: threading.Lock,
        name: str,
        help: str,
        labels: "tuple[str, ...]" = (),
        fn: "Callable[[], float] | None" = None,
    ) -> None:
        if (self.kind == "counter") != name.endswith("_total"):
            raise ValueError(
                f"metric {name!r}: counter names, and only counter names, "
                f"end in '_total'"
            )
        if fn is not None and labels:
            raise ValueError(f"metric {name!r}: a callback family takes no labels")
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self._lock = lock
        self._fn = fn
        self._values: dict = {}
        if not self.labels and fn is None:
            self._values[()] = self._zero()

    def _zero(self):
        return 0

    def _key(self, labels: "Mapping[str, object]") -> "tuple[str, ...]":
        if set(labels) != set(self.labels):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.labels)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def _sample(self, key: "tuple[str, ...]", value) -> dict:
        return {"labels": dict(zip(self.labels, key)), "value": value}

    def snapshot(self) -> dict:
        """This family as JSON: type, help, label names and samples."""
        if self._fn is not None:
            samples = [self._sample((), self._fn())]
        else:
            with self._lock:
                samples = [
                    self._sample(key, value)
                    for key, value in sorted(self._values.items())
                ]
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.labels),
            "samples": samples,
        }


class Counter(_Family):
    """A monotonic count per label set."""

    kind = "counter"

    def inc(self, amount: int = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount


class Gauge(_Family):
    """A value that goes up and down, set directly or read from ``fn``."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = value


class Histogram(_Family):
    """Cumulative-bucket distribution of non-negative observations.

    Samples also keep the largest observation (``max``, JSON only);
    negative and NaN observations are not durations and are dropped.
    """

    kind = "histogram"

    def __init__(self, lock, name, help, labels=(), buckets=DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        super().__init__(lock, name, help, labels)

    def _zero(self) -> list:
        # One count per bound, one for the +Inf overflow, then sum and max.
        return [0] * (len(self.bounds) + 1) + [0.0, 0.0]

    def observe(self, value: float, **labels: object) -> None:
        value = float(value)
        if not value >= 0.0:
            return
        key = self._key(labels)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                state = self._values[key] = self._zero()
            state[index] += 1
            state[-2] += value
            state[-1] = max(state[-1], value)

    def _sample(self, key, state) -> dict:
        buckets, running = {}, 0
        for bound, count in zip(self.bounds, state):
            running += count
            buckets[format(bound, "g")] = running
        buckets["+Inf"] = running + state[-3]
        return {
            "labels": dict(zip(self.labels, key)),
            "count": buckets["+Inf"],
            "sum": state[-2],
            "max": state[-1],
            "buckets": buckets,
        }


class MetricsRegistry:
    """Metric families behind one lock; :meth:`snapshot` renders them as JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "dict[str, _Family]" = {}

    def _add(self, family: _Family) -> _Family:
        with self._lock:
            if family.name in self._families:
                raise ValueError(f"metric {family.name!r} is already registered")
            self._families[family.name] = family
        return family

    def counter(self, name, help, labels=(), fn=None) -> Counter:
        """Register a counter family (``name`` ends in ``_total``)."""
        return self._add(Counter(self._lock, name, help, labels, fn))

    def gauge(self, name, help, labels=(), fn=None) -> Gauge:
        """Register a gauge family, set directly or read from ``fn``."""
        return self._add(Gauge(self._lock, name, help, labels, fn))

    def histogram(self, name, help, labels=(), buckets=DEFAULT_BUCKETS) -> Histogram:
        """Register a histogram family over the upper ``buckets`` bounds."""
        return self._add(Histogram(self._lock, name, help, labels, buckets))

    def snapshot(self) -> "dict[str, dict]":
        """Every family by name (JSON-ready)."""
        with self._lock:
            families = list(self._families.values())
        return {family.name: family.snapshot() for family in families}


def total(snapshot: Mapping, name: str, **labels: object) -> float:
    """Sum of family ``name``'s samples whose labels include ``labels``.

    Histogram samples contribute their observation count.  Raises
    ``KeyError`` for a family the snapshot does not hold.
    """
    family = snapshot[name]
    field = "count" if family["type"] == "histogram" else "value"
    want = {key: str(value) for key, value in labels.items()}
    return sum(
        sample[field]
        for sample in family["samples"]
        if want.items() <= sample["labels"].items()
    )


def _line(name: str, labels: Mapping, value: float) -> str:
    if labels:
        escaped = (
            str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            for v in labels.values()
        )
        inner = ",".join(f'{k}="{v}"' for k, v in zip(labels, escaped))
        name = f"{name}{{{inner}}}"
    return f"{name} {value}"


def render_prometheus(snapshot: Mapping) -> str:
    """Render a snapshot as Prometheus text exposition (version 0.0.4)."""
    lines = []
    for name, family in snapshot.items():
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if family["type"] != "histogram":
                lines.append(_line(name, labels, sample["value"]))
                continue
            for le, count in sample["buckets"].items():
                lines.append(_line(f"{name}_bucket", {**labels, "le": le}, count))
            lines.append(_line(f"{name}_sum", labels, sample["sum"]))
            lines.append(_line(f"{name}_count", labels, sample["count"]))
    return "\n".join(lines) + "\n"


#: The process-wide families: the data-campaign stream and the model
#: registry run inside and outside a server, so they count here.
PROCESS_METRICS = MetricsRegistry()
CAMPAIGN_SHARDS = PROCESS_METRICS.counter(
    "repro_campaign_shards_total",
    "Data-campaign shards completed, by status (executed, verified or repaired).",
    ("status",),
)
# Known label values start at 0, so rate queries find their series.
for _status in ("executed", "verified", "repaired"):
    CAMPAIGN_SHARDS.inc(0, status=_status)
REGISTRY_MODELS = PROCESS_METRICS.gauge(
    "repro_registry_models",
    "Checkpoints in the content-addressed model registry.",
)
