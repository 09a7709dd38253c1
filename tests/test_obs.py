"""Tracing + telemetry: spans, traces, adoption, rendering, envelopes."""

import json
import re

import numpy as np
import pytest

from repro.api import Client, RunRequest, RunResult
from repro.config import SimulationConfig
from repro.obs import (
    MetricsRegistry,
    Span,
    Trace,
    TraceBuffer,
    Tracer,
    render_prometheus,
    render_waterfall,
    span_tree,
    spans_from_wire,
    total,
)
from repro.obs.trace import MAX_ATTRIBUTES_PER_SPAN, MAX_SPANS_PER_TRACE


def small_config(**kwargs):
    base = dict(n_cells=16, particles_per_cell=10, n_steps=4, vth=0.02)
    base.update(kwargs)
    return SimulationConfig(**base)


class TestSpan:
    def test_finish_records_duration_and_lands_in_trace(self):
        trace = Trace()
        span = trace.start_span("work")
        assert span.duration_s is None
        span.finish()
        assert span.duration_s >= 0.0
        assert trace.span_dicts()[0]["name"] == "work"

    def test_finish_is_idempotent(self):
        trace = Trace()
        span = trace.start_span("once")
        span.finish()
        end = span.end
        span.finish()
        assert span.end == end
        assert len(trace.span_dicts()) == 1

    def test_context_manager_records_exceptions(self):
        trace = Trace()
        with pytest.raises(RuntimeError):
            with trace.span("boom") as span:
                raise RuntimeError("kaput")
        assert span.end is not None
        assert span.attributes["error"] == "RuntimeError: kaput"

    def test_attributes_are_bounded_and_coerced(self):
        span = Span("attrs")
        for i in range(MAX_ATTRIBUTES_PER_SPAN + 5):
            span.set_attribute(f"k{i}", i)
        assert len(span.attributes) == MAX_ATTRIBUTES_PER_SPAN
        # Existing keys stay writable past the cap; non-scalars stringify.
        span.set_attribute("k0", [1, 2])
        assert span.attributes["k0"] == "[1, 2]"

    def test_to_dict_is_relative_to_base(self):
        span = Span("rel", start=10.0)
        span.finish(end=10.5)
        out = span.to_dict(base=9.0)
        assert out["start_s"] == pytest.approx(1.0)
        assert out["duration_s"] == pytest.approx(0.5)


class TestTrace:
    def test_span_cap_counts_dropped(self):
        trace = Trace()
        for i in range(MAX_SPANS_PER_TRACE + 7):
            trace.start_span(f"s{i}").finish()
        assert len(trace.span_dicts()) == MAX_SPANS_PER_TRACE
        assert trace.dropped == 7

    def test_span_dicts_rebased_and_sorted(self):
        trace = Trace()
        late = trace.start_span("late")
        early = trace.start_span("early")
        early.start = late.start - 1.0
        early.finish()
        late.finish()
        spans = trace.span_dicts()
        assert [s["name"] for s in spans] == ["early", "late"]
        assert spans[0]["start_s"] == 0.0
        assert all(s["start_s"] >= 0.0 for s in spans)

    def test_finish_publishes_once(self):
        buffer = TraceBuffer()
        trace = Tracer(buffer=buffer).start_trace("request")
        trace.start_span("a").finish()
        trace.finish()
        trace.finish()
        assert buffer.stats()["completed"] == 1
        assert buffer.get(trace.trace_id) is trace

    def test_payload_shape(self):
        trace = Trace(name="req")
        with trace.span("outer") as outer:
            trace.start_span("inner", parent_id=outer.span_id).finish()
        payload = trace.finish().to_payload()
        assert payload["trace_id"] == trace.trace_id
        assert payload["n_spans"] == 2
        assert payload["complete"] is True
        assert payload["duration_s"] >= 0.0
        (root,) = payload["spans"]
        assert root["name"] == "outer"
        assert [c["name"] for c in root["children"]] == ["inner"]

    def test_adopt_reanchors_and_reparents(self):
        trace = Trace()
        host = trace.start_span("host")
        host.finish()
        trace.adopt(
            [
                {"span_id": "w1", "parent_id": None, "name": "worker",
                 "start_s": 0.25, "duration_s": 0.5},
            ],
            anchor=host.start + 0.1,
            parent_id=host.span_id,
        )
        spans = {s["name"]: s for s in trace.span_dicts()}
        assert spans["worker"]["parent_id"] == host.span_id
        assert spans["worker"]["start_s"] == pytest.approx(0.35, abs=1e-6)

    def test_adopt_remote_aligns_on_the_parent_link(self):
        # The shipped client.http span (1.0 s) encloses the local server
        # span (0.4 s); the 0.6 s RTT slack splits evenly around it.
        trace = Trace()
        server = Span("server.request", trace=trace, parent_id="http1")
        server.finish(end=server.start + 0.4)
        trace.adopt_remote([
            {"span_id": "root1", "parent_id": None, "name": "client.request",
             "start_s": 0.0, "duration_s": 1.1},
            {"span_id": "http1", "parent_id": "root1", "name": "client.http",
             "start_s": 0.1, "duration_s": 1.0},
        ])
        spans = {s["name"]: s for s in trace.span_dicts()}
        assert spans["client.request"]["start_s"] == 0.0
        assert spans["server.request"]["start_s"] == pytest.approx(0.4, abs=1e-6)
        tree = span_tree(trace.span_dicts())
        assert tree[0]["name"] == "client.request"
        assert tree[0]["children"][0]["name"] == "client.http"
        assert tree[0]["children"][0]["children"][0]["name"] == "server.request"

    def test_adopt_remote_without_link_right_aligns(self):
        trace = Trace()
        local = trace.start_span("local")
        local.finish(end=local.start + 0.2)
        trace.adopt_remote([
            {"span_id": "r1", "parent_id": None, "name": "remote",
             "start_s": 0.0, "duration_s": 0.5},
        ])
        spans = {s["name"]: s for s in trace.span_dicts()}
        remote_end = spans["remote"]["start_s"] + spans["remote"]["duration_s"]
        local_end = spans["local"]["start_s"] + spans["local"]["duration_s"]
        assert remote_end == pytest.approx(local_end, abs=1e-6)


class TestSpanTree:
    def test_orphans_become_roots(self):
        roots = span_tree([
            {"span_id": "a", "parent_id": None, "name": "a",
             "start_s": 0.0, "duration_s": 1.0},
            {"span_id": "b", "parent_id": "a", "name": "b",
             "start_s": 0.5, "duration_s": 0.1},
            {"span_id": "c", "parent_id": "gone", "name": "c",
             "start_s": 0.2, "duration_s": 0.1},
        ])
        assert [r["name"] for r in roots] == ["a", "c"]
        assert [c["name"] for c in roots[0]["children"]] == ["b"]

    def test_children_sorted_by_start(self):
        roots = span_tree([
            {"span_id": "a", "parent_id": None, "name": "a",
             "start_s": 0.0, "duration_s": 1.0},
            {"span_id": "late", "parent_id": "a", "name": "late",
             "start_s": 0.8, "duration_s": 0.1},
            {"span_id": "soon", "parent_id": "a", "name": "soon",
             "start_s": 0.1, "duration_s": 0.1},
        ])
        assert [c["name"] for c in roots[0]["children"]] == ["soon", "late"]


class TestSpansFromWire:
    def test_valid_spans_pass_and_clamp(self):
        (span,) = spans_from_wire([
            {"span_id": "s", "parent_id": None, "name": "n",
             "start_s": 1, "duration_s": -0.5, "attributes": {"k": object()}},
        ])
        assert span["duration_s"] == 0.0
        assert isinstance(span["attributes"]["k"], str)

    @pytest.mark.parametrize("raw, message", [
        ("nope", "not an object"),
        ({"span_id": "s"}, "missing a name"),
        ({"name": "n"}, "missing a span_id"),
        ({"name": "n", "span_id": "s", "parent_id": 7}, "non-string parent_id"),
        ({"name": "n", "span_id": "s", "start_s": "x"}, "non-numeric timings"),
        ({"name": "n", "span_id": "s", "attributes": [1]}, "attributes must be"),
    ])
    def test_malformed_spans_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            spans_from_wire([raw])


class TestTraceBuffer:
    def test_ring_evicts_oldest(self):
        buffer = TraceBuffer(capacity=2)
        traces = [Trace(name=f"t{i}") for i in range(3)]
        for trace in traces:
            buffer.add(trace)
        assert buffer.ids() == [traces[1].trace_id, traces[2].trace_id]
        assert buffer.get(traces[0].trace_id) is None
        assert buffer.last() is traces[2]
        assert buffer.stats() == {
            "capacity": 2, "buffered": 2, "completed": 3, "evicted": 1,
        }

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestDurationHistogram:
    """The registry's histogram family (stage durations in seconds)."""

    def test_buckets_are_cumulative(self):
        hist = MetricsRegistry().histogram(
            "x_seconds", "x", ("stage",), buckets=(0.01, 0.1, 1.0)
        )
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value, stage="exec")
        [sample] = hist.snapshot()["samples"]
        assert sample["labels"] == {"stage": "exec"}
        assert sample["count"] == 4
        assert sample["max"] == 5.0
        assert sample["sum"] == pytest.approx(5.555)
        assert sample["buckets"] == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}

    def test_ignores_negative_and_nan(self):
        hist = MetricsRegistry().histogram("x_seconds", "x")
        hist.observe(-1.0)
        hist.observe(float("nan"))
        [sample] = hist.snapshot()["samples"]
        assert sample["count"] == 0
        assert sample["buckets"]["+Inf"] == 0


class TestMetricsRegistry:
    def test_counter_and_gauge_samples(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "Hits.", ("kind",))
        hits.inc(kind="a")
        hits.inc(2, kind="b")
        hits.inc(kind="a")
        registry.gauge("depth", "Depth.").set(3)
        level = [7]
        registry.gauge("level", "Level.", fn=lambda: level[0])
        level[0] = 9  # callbacks are read at snapshot time
        snapshot = registry.snapshot()
        assert list(snapshot) == ["hits_total", "depth", "level"]
        assert snapshot["hits_total"] == {
            "type": "counter",
            "help": "Hits.",
            "labels": ["kind"],
            "samples": [
                {"labels": {"kind": "a"}, "value": 2},
                {"labels": {"kind": "b"}, "value": 2},
            ],
        }
        assert total(snapshot, "hits_total") == 4
        assert total(snapshot, "hits_total", kind="a") == 2
        assert total(snapshot, "depth") == 3
        assert total(snapshot, "level") == 9
        json.dumps(snapshot)  # the JSON renderer's output is pure JSON

    def test_unlabelled_families_start_at_zero_and_labelled_ones_empty(self):
        registry = MetricsRegistry()
        registry.counter("plain_total", "Plain.")
        registry.counter("split_total", "Split.", ("kind",))
        snapshot = registry.snapshot()
        assert snapshot["plain_total"]["samples"] == [{"labels": {}, "value": 0}]
        assert snapshot["split_total"]["samples"] == []
        assert total(snapshot, "split_total") == 0
        with pytest.raises(KeyError):
            total(snapshot, "missing_total")

    def test_misuse_is_rejected(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "Hits.", ("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            hits.inc()
        with pytest.raises(ValueError, match="takes labels"):
            hits.inc(kind="a", other="b")
        with pytest.raises(ValueError, match="cannot decrease"):
            hits.inc(-1, kind="a")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("hits_total", "Again.")
        with pytest.raises(ValueError, match="_total"):
            registry.counter("hits", "No suffix.")
        with pytest.raises(ValueError, match="_total"):
            registry.gauge("depth_total", "A gauge named like a counter.")
        with pytest.raises(ValueError, match="no labels"):
            registry.gauge("depth", "Depth.", ("kind",), fn=lambda: 1)


_EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.+a-z-]+$"
)


class TestPrometheusRendering:
    def test_every_line_is_valid_exposition(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_requests_total", "Requests.", ("endpoint", "status")
        ).inc(endpoint="/v1/run", status="ok")
        registry.counter("repro_parse_failures_total", "Parse failures.").inc()
        registry.gauge("repro_queue_inflight", "In flight.").set(0.5)
        registry.histogram(
            "repro_stage_duration_seconds", "Stages.", ("stage",)
        ).observe(0.002, stage="exec")
        text = render_prometheus(registry.snapshot())
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            else:
                assert _EXPOSITION_LINE.match(line), line
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="/v1/run",status="ok"} 1' in text
        assert "repro_parse_failures_total 1" in text
        assert "repro_queue_inflight 0.5" in text
        assert "# TYPE repro_stage_duration_seconds histogram" in text
        assert 'repro_stage_duration_seconds_bucket{stage="exec",le="0.001"} 0' in text
        assert 'repro_stage_duration_seconds_bucket{stage="exec",le="+Inf"} 1' in text
        assert 'repro_stage_duration_seconds_count{stage="exec"} 1' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.", ("endpoint",)).inc(endpoint='a"b\\c\n')
        text = render_prometheus(registry.snapshot())
        assert 'endpoint="a\\"b\\\\c\\n"' in text


class TestWaterfall:
    def test_renders_nested_rows(self):
        trace = Trace(name="req")
        with trace.span("outer") as outer:
            child = trace.start_span("inner", parent_id=outer.span_id)
            child.set_attribute("hit", True).finish()
        text = render_waterfall(trace.to_payload())
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {trace.trace_id}")
        assert "2 spans" in lines[0]
        assert any(line.startswith("outer") for line in lines)
        assert any(line.lstrip().startswith("inner") and "(hit=True)" in line
                   for line in lines)
        assert all("[" in line and "]" in line for line in lines[2:])

    def test_empty_payload(self):
        text = render_waterfall(Trace().to_payload())
        assert "(no spans recorded)" in text

    def test_dropped_spans_noted(self):
        payload = Trace().to_payload()
        payload["dropped_spans"] = 3
        assert "(3 spans dropped)" in render_waterfall(payload)


@pytest.fixture(scope="module")
def result_payload():
    """A real OK result envelope to mutate in timings-validation tests."""
    with Client(background=False) as client:
        result = client.run(RunRequest(config=small_config(seed=9), id="v"))
    return result.to_dict()


class TestTimingsValidation:
    def _with_timings(self, payload, timings):
        obj = json.loads(json.dumps(payload))
        obj["timings"] = timings
        return obj

    def test_valid_timings_round_trip(self, result_payload):
        result = RunResult.from_dict(self._with_timings(
            result_payload, {"wall_s": 0.5, "exec_s": 0.25, "trace_id": "abc"}
        ))
        assert result.timings == {"wall_s": 0.5, "exec_s": 0.25, "trace_id": "abc"}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected_naming_the_key(self, result_payload, value):
        with pytest.raises(ValueError, match="exec_s"):
            RunResult.from_dict(
                self._with_timings(result_payload, {"exec_s": value})
            )

    def test_unknown_keys_rejected(self, result_payload):
        with pytest.raises(ValueError, match="made_up"):
            RunResult.from_dict(
                self._with_timings(result_payload, {"made_up": 1.0})
            )

    def test_non_numeric_and_bool_rejected(self, result_payload):
        with pytest.raises(ValueError, match="wall_s"):
            RunResult.from_dict(
                self._with_timings(result_payload, {"wall_s": "fast"})
            )
        with pytest.raises(ValueError, match="wall_s"):
            RunResult.from_dict(
                self._with_timings(result_payload, {"wall_s": True})
            )

    def test_trace_id_must_be_a_string(self, result_payload):
        with pytest.raises(ValueError, match="trace_id"):
            RunResult.from_dict(
                self._with_timings(result_payload, {"trace_id": 7})
            )


class TestInProcessTracing:
    def test_traced_run_reports_stages_and_a_span_tree(self):
        with Client(background=False, tracing=True) as client:
            result = client.run(RunRequest(config=small_config(seed=3), id="t1"))
            assert {"wall_s", "batch_wait_s", "queue_wait_s", "exec_s",
                    "store_s", "trace_id"} <= set(result.timings)
            trace = client.service.tracer.get(result.timings["trace_id"])
            assert trace is not None
            payload = trace.to_payload()
        names = set()
        def collect(nodes):
            for node in nodes:
                names.add(node["name"])
                collect(node["children"])
        collect(payload["spans"])
        assert {"client.request", "service.submit", "service.store_lookup",
                "executor.dispatch", "executor.worker_run", "engine.build",
                "engine.run", "engine.steps", "service.store_put"} <= names
        assert payload["complete"] is True
        json.dumps(payload)  # the payload must be pure JSON

    def test_cached_repeat_gets_its_own_trace(self):
        with Client(background=False, tracing=True) as client:
            first = client.run(RunRequest(config=small_config(seed=4), id="c1"))
            second = client.run(RunRequest(config=small_config(seed=4), id="c2"))
            assert second.cache_hit
            assert second.timings["trace_id"] != first.timings["trace_id"]
            assert "store_s" in second.timings
            assert "exec_s" not in second.timings
            trace = client.service.tracer.get(second.timings["trace_id"])
            spans = {s["name"] for s in trace.span_dicts()}
        assert "service.store_lookup" in spans
        assert "executor.dispatch" not in spans

    def test_tracing_does_not_change_results(self):
        request = RunRequest(config=small_config(seed=5), id="p", phase_space=True)
        with Client(background=False, tracing=False) as off:
            plain = off.run(request)
        with Client(background=False, tracing=True) as on:
            traced = on.run(request)
        assert traced.key == plain.key
        assert set(traced.series) == set(plain.series)
        for name, values in plain.series.items():
            a, b = np.asarray(traced.series[name]), np.asarray(values)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b, err_msg=f"drift in {name!r}")
        for name in ("final_x", "final_v"):
            np.testing.assert_array_equal(
                np.asarray(getattr(traced, name)),
                np.asarray(getattr(plain, name)),
                err_msg=f"drift in {name!r}",
            )

    def test_untraced_client_has_no_trace_id(self):
        with Client(background=False) as client:
            result = client.run(RunRequest(config=small_config(seed=6), id="u1"))
            assert "trace_id" not in result.timings
            assert client.service.tracer is None

    def test_submit_rejection_finishes_its_trace(self):
        # solver="dl" without a loaded model is rejected at submit time;
        # the trace must still complete (with the error on its root span).
        with Client(background=False, tracing=True, raise_on_error=False) as client:
            result = client.run(
                RunRequest(config=small_config(solver="dl"), id="f1")
            )
            assert result.status == "error"
            trace = client.service.tracer.buffer.last()
            assert trace is not None
            payload = trace.to_payload()
        assert payload["complete"] is True
        errors = [
            s.get("attributes", {}).get("error")
            for s in trace.span_dicts()
        ]
        assert any(errors)
