#!/usr/bin/env python3
"""End-to-end tracing smoke: serve, trace requests, render the waterfall.

Stands up the networked service with tracing on, sends one traced
request through ``Client.connect(url, tracing=True)``, then checks the
whole observability surface:

* the result's ``timings`` carry the canonical stage breakdown
  (``batch_wait_s`` / ``queue_wait_s`` / ``exec_s`` / ``store_s``) and
  a ``trace_id``;
* ``GET /v1/trace/<id>`` serves a valid span-tree JSON whose merged
  tree spans client -> server -> executor -> engine steps;
* the ``repro trace`` CLI renders that payload as a waterfall;
* ``GET /v1/metrics?format=prometheus`` parses as text exposition and
  declares exactly the families the JSON snapshot holds, so the two
  renderers of the metrics registry cannot drift apart;
* a second server with ``workers=2`` serves one more traced request,
  whose engine spans are built in a spawned worker process, pickled
  back and adopted: its tree needs the same spans, and its
  ``executor.worker_run`` span names a pid other than this process's.

Run:  python examples/trace_smoke.py
Exits non-zero on any failed check (used as a CI smoke step).
"""

import json
import os
import re
import sys
import urllib.request

from repro.api import Client, RunRequest
from repro.cli import main as repro_main
from repro.config import SimulationConfig
from repro.server import serve_in_thread

REQUIRED_SPANS = {
    "client.request", "client.http", "server.request", "service.submit",
    "executor.dispatch", "executor.worker_run", "engine.run", "engine.steps",
}
STAGE_KEYS = {"wall_s", "batch_wait_s", "queue_wait_s", "exec_s", "store_s"}
EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.einf+-]+$"
)


def spans_by_name(nodes, out=None):
    out = out if out is not None else {}
    for node in nodes:
        out.setdefault(node["name"], []).append(node)
        spans_by_name(node["children"], out)
    return out


def traced_request(server, config, request_id):
    """One traced request; returns its trace id and its spans by name."""
    with Client.connect(server.url, tracing=True) as client:
        result = client.run(RunRequest(config=config, id=request_id))
    assert result.status == "ok", result.error
    assert STAGE_KEYS <= set(result.timings), sorted(result.timings)
    trace_id = result.timings["trace_id"]
    with urllib.request.urlopen(f"{server.url}/v1/trace/{trace_id}") as response:
        payload = json.load(response)
    assert payload["trace_id"] == trace_id
    assert payload["complete"] is True
    spans = spans_by_name(payload["spans"])
    missing = REQUIRED_SPANS - set(spans)
    assert not missing, f"span tree is missing {sorted(missing)}"
    json.dumps(payload)  # the payload must be pure JSON
    print(f"request {request_id} ok; trace {trace_id}: {payload['n_spans']} "
          f"spans across {len(spans)} distinct stages")
    return trace_id, spans


def main() -> int:
    config = SimulationConfig(
        n_cells=32, particles_per_cell=20, n_steps=50, vth=0.01, seed=3
    )
    with serve_in_thread(max_batch_size=8, max_wait=0.005,
                         tracing=True) as server:
        print(f"serving with tracing on at {server.url}")
        trace_id, _ = traced_request(server, config, "smoke")

        code = repro_main(["trace", trace_id, "--url", server.url])
        assert code == 0, f"repro trace exited {code}"

        with urllib.request.urlopen(
            f"{server.url}/v1/metrics?format=prometheus"
        ) as response:
            text = response.read().decode()
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert EXPOSITION_LINE.match(line), f"bad exposition: {line!r}"
        assert "repro_stage_duration_seconds_bucket" in text
        with urllib.request.urlopen(f"{server.url}/v1/metrics") as response:
            snapshot = json.load(response)
        declared = {
            line.split()[2]: line.split()[3]
            for line in text.splitlines() if line.startswith("# TYPE ")
        }
        named = {name: family["type"] for name, family in snapshot.items()}
        assert declared == named, (
            f"JSON and Prometheus disagree: {sorted(set(declared) ^ set(named))}"
        )
        print(f"prometheus exposition valid; {len(named)} families in both renderings")

    with serve_in_thread(max_batch_size=8, max_wait=0.005, workers=2,
                         tracing=True) as server:
        print(f"serving with tracing on and 2 spawned workers at {server.url}")
        _, spans = traced_request(server, config.with_updates(seed=4), "spawned")
        (worker_run,) = spans["executor.worker_run"]
        pid = worker_run["attributes"]["worker_pid"]
        assert pid != os.getpid(), "the group did not run in a spawned worker"
        print(f"worker spans built in pid {pid}, adopted by pid {os.getpid()}")
    print("trace smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
