"""Tests of the benchmark harness on shrunken workloads.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from layers import LayerTracer
from workloads import Check, make_workload

DECLARED = json.loads(run.BENCHMARK.read_text())

# Every workload at 16 cells and 10 steps per pass.  pic_paper keeps the
# paper's particle count per run so its 200-step growth check holds.
SMALL = {
    "pic_paper": dict(n_cells=16, ppc=4000, steps=10, batch=3, warmup_steps=2),
    "dl_paper": dict(n_cells=16, ppc=100, steps=10, batch=2, warmup_steps=2,
                     n_v=16, hidden=32),
    "serve_mixed": dict(n_cells=16, ppc=10, steps=10, unique_per_client=4,
                        repeat_every=2, parity_samples=2),
    "campaign_stream": dict(n_cells=16, ppc=20, steps=10, n_v=8),
}


def _measure(name, tmp_path, trace=False, workload_hook=None):
    workload = make_workload(name, 3, tmp_path / "work", **SMALL[name])
    if workload_hook is not None:
        workload_hook(workload)
    try:
        workload.setup()
        return run.measure(workload, seconds=0.0, trace=trace, min_passes=1)
    finally:
        workload.close()


def test_workloads_match_declaration():
    assert list(SMALL) == [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("name", list(SMALL))
def test_end_to_end_metrics_and_checks(name, tmp_path):
    result = _measure(name, tmp_path)
    declared = {m["name"] for m in DECLARED["end_to_end"]}
    # setup_s is timed by the parent process around the subprocess.
    assert set(result["end_to_end"]) | {"setup_s"} == declared
    assert all(entry["value"] > 0 for entry in result["end_to_end"].values())
    failed = {k: v for k, v in result["checks"].items() if not v["ok"]}
    assert not failed
    assert result["failed"] == 0 and result["attempted"] > len(result["checks"])


@pytest.mark.parametrize("name", list(SMALL))
def test_layer_metrics(name, tmp_path):
    result = _measure(name, tmp_path, trace=True)
    assert set(result["layers"]) == {m["name"] for m in DECLARED["per_layer"]}
    layers = result["layers"]
    assert layers["service.submit.calls"] > 0
    assert layers["engines.step.calls"] > 0
    if name == "dl_paper":
        assert layers["nn.predict.calls"] == layers["field_solve.calls"] > 0
        assert layers["pic.deposit.calls"] == 0
    if name == "serve_mixed":
        assert layers["service.store_hit_ratio"] == pytest.approx(1 / 3)
        assert layers["server.response_bytes"] > 0
    if name == "campaign_stream":
        assert layers["datagen.shard_write.calls"] == 5


def test_injected_check_failure_counts_as_failed(tmp_path):
    def inject(workload):
        checks = workload.checks
        workload.checks = lambda: checks() + [Check("injected", False, 1.0, "== 0")]

    result = _measure("pic_paper", tmp_path, workload_hook=inject)
    assert result["failed"] == 1
    assert result["checks"]["injected"]["ok"] is False


def test_tracer_restores_originals():
    import repro.pic.interpolation as interpolation
    import repro.pic.simulation as simulation
    from repro.pic.poisson import PoissonSolver

    gather, solve = simulation.gather, PoissonSolver.__dict__["solve"]
    with LayerTracer():
        assert simulation.gather is not gather
        assert interpolation.gather is simulation.gather
    assert simulation.gather is gather and interpolation.gather is gather
    assert PoissonSolver.__dict__["solve"] is solve


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "higher", "better"),
        ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "higher", "worse"),
        ([10, 10.1, 9.9, 10, 10.05], [10.02, 9.95, 10.1, 10, 9.98], "higher", "same"),
        ([10, 13, 7, 11, 9], [10.5, 7.5, 12.5, 9, 11], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert run.verdict(parent, change, better, bound=0.1)[0] == expected


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload", "pic_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
