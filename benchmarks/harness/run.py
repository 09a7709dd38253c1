"""The repository's benchmark: run workloads, print metrics, compare runs.

Run every workload (or one) and print each metric with its unit::

    python3 benchmarks/harness/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE.json]

Each workload runs in fresh subprocesses: ``setup_s`` is measured from
process start (imports included) to the first timed pass, set up
``SETUP_REPEATS`` times and reported as the median.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs untraced passes for half the time and traced passes (see
``layers.py``) for the other half and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out`` also writes the
full report (``env``, ``end_to_end``, ``layers``, ``checks`` and the
raw per-pass ``samples``).  The exit code is 0 only when every request
and check succeeded.

Compare reports of two commits (parent first) under the bounds of
``BENCHMARK.json``::

    python3 benchmarks/harness/run.py compare A1.json A2.json ... -- B1.json ...
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import numpy

from layers import COUNTED, TIMED, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"

#: Subprocess set-ups per workload; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Untraced passes measured even when ``--seconds`` runs out first.
MIN_PASSES = 3
#: The subprocesses of one workload must finish within this budget.
RUN_BUDGET_S = 170.0

# Service stage timings (``RunResult.timings`` keys) reported as layer
# metrics, by metric name.
STAGE_TIMINGS = {
    "service.batch_wait_ms_p50": "batch_wait_s",
    "service.queue_wait_ms_p50": "queue_wait_s",
    "service.exec_ms_p50": "exec_s",
    "service.store_ms_p50": "store_s",
}


class HarnessError(RuntimeError):
    """A workload subprocess failed to produce a result."""


# ----------------------------------------------------------------------
# statistics


def summary(values) -> dict:
    """Median, quartiles and count of a sample."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": median(values), "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# measurement (runs inside the workload subprocess, or in the tests)


def _passes(workload, budget_s: float, min_passes: int) -> list:
    """Run passes while the next one (as long as the last) fits the budget."""
    records = []
    start = time.perf_counter()
    while len(records) < min_passes or (
        time.perf_counter() - start + records[-1].wall_s <= budget_s
    ):
        records.append(workload.run_pass())
    return records


def end_to_end_metrics(records) -> dict:
    """The end-to-end metrics (all but ``setup_s``) of untraced passes."""
    return {
        "requests_per_s": summary(r.requests / r.wall_s for r in records),
        "particle_steps_per_s": summary(r.particle_steps / r.wall_s for r in records),
    }


def layer_metrics(tracer, traced, untraced) -> dict:
    """The per-layer metrics of one workload.

    Call counts and self time come from the traced passes.  Metrics
    the program reports itself (``RunResult.timings``, cache hits,
    batch sizes, latencies) come from the untraced passes, so tracing
    does not perturb them.
    """
    n = len(traced)
    wall = sum(r.wall_s for r in traced)
    out: "dict[str, float]" = {}
    for layer in dict.fromkeys(name for name, _, _ in TIMED):
        out[f"{layer}.calls"] = tracer.calls[layer] / n
        if layer != "field_solve":  # its time is its children's
            out[f"{layer}.self_pct"] = 100.0 * tracer.self_s[layer] / wall
    for layer in dict.fromkeys(name for name, _, _ in COUNTED):
        out[f"{layer}.calls"] = tracer.calls[layer] / n
    solves = tracer.durations["field_solve"] or [0.0]
    steps = tracer.durations["engines.step"] or [0.0]
    out["field_solve.ms_p50"] = 1e3 * numpy.percentile(solves, 50)
    out["engines.step.ms_p50"] = 1e3 * numpy.percentile(steps, 50)
    out["engines.step.ms_p95"] = 1e3 * numpy.percentile(steps, 95)

    requests = sum(r.requests for r in untraced)
    out["service.store_hit_ratio"] = sum(r.cache_hits for r in untraced) / requests
    histogram: "dict[int, int]" = {}
    for r in untraced:
        for size, count in r.batch_sizes.items():
            histogram[size] = histogram.get(size, 0) + count
    out["service.batch_size_mean"] = (
        sum(size * count for size, count in histogram.items())
        / max(1, sum(histogram.values()))
    )
    for metric, key in STAGE_TIMINGS.items():
        stage = [t[key] for r in untraced for t in r.timings if key in t]
        out[metric] = 1e3 * numpy.percentile(stage, 50) if stage else 0.0
    latencies = [lat for r in untraced for lat in r.latencies_s]
    out["api.latency_ms_p50"] = 1e3 * numpy.percentile(latencies, 50)
    out["api.latency_ms_p95"] = 1e3 * numpy.percentile(latencies, 95)
    out["server.response_bytes"] = tracer.sizes["server.response_bytes"] / n
    records = traced + untraced
    out["datagen.shard_bytes"] = sum(r.shard_bytes for r in records) / len(records)
    out["datagen.max_inflight_runs"] = max(r.max_inflight_runs for r in records)
    out["trace.overhead"] = 100.0 * (
        median(r.wall_s for r in traced) / median(r.wall_s for r in untraced) - 1.0
    )
    out["trace.coverage"] = 100.0 * sum(tracer.self_s.values()) / wall
    return out


def measure(workload, seconds: float, trace: bool = False,
            min_passes: int = MIN_PASSES) -> dict:
    """Time ``workload`` (already set up), then run its checks.

    Returns the workload's section of the report plus ``attempted`` and
    ``failed``: requests over every pass, and checks.
    """
    layers = None
    if trace:
        untraced = _passes(workload, seconds / 2, min_passes=1)
        tracer = LayerTracer()
        with tracer:
            traced = _passes(workload, seconds / 2, min_passes=1)
        layers = layer_metrics(tracer, traced, untraced)
    else:
        untraced = _passes(workload, seconds, min_passes)
        traced = []
    checks = workload.checks()
    floor = workload.coverage_floor_pct
    if layers is not None and floor is not None:
        from workloads import Check

        coverage = layers["trace.coverage"]
        checks.append(Check("trace_coverage_pct", coverage >= floor, coverage, f">= {floor}"))
    records = untraced + traced
    return {
        "end_to_end": end_to_end_metrics(untraced),
        "layers": layers,
        "checks": {
            c.name: {"ok": bool(c.ok), "value": c.value, "limit": c.limit} for c in checks
        },
        "samples": {
            "pass_s": [r.wall_s for r in untraced],
            "traced_pass_s": [r.wall_s for r in traced],
            "requests": [r.requests for r in untraced],
            "particle_steps": [r.particle_steps for r in untraced],
            "latency_ms": [1e3 * lat for r in untraced for lat in r.latencies_s],
        },
        "attempted": sum(r.requests for r in records) + len(checks),
        "failed": sum(r.failed for r in records) + sum(not c.ok for c in checks),
    }


def _child(args: argparse.Namespace) -> int:
    """One workload subprocess: set up, then (unless set-up only) measure."""
    sys.path.insert(0, str(SRC))
    from workloads import make_workload

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, work_dir)
    try:
        workload.setup()
        payload = {"setup_end": time.monotonic()}
        if not args.setup_only:
            payload.update(measure(workload, args.seconds, trace=bool(args.trace)))
    finally:
        workload.close()
        with contextlib.suppress(OSError):  # still used by a sibling run
            WORK_ROOT.rmdir()
    print(json.dumps(payload))
    return 0


# ----------------------------------------------------------------------
# orchestration (the parent process)


def _git_sha() -> "str | None":
    """The checked-out commit, read from ``.git`` (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """The machine and libraries a report was measured with."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": _git_sha(),
    }


def _spawn(args: argparse.Namespace, workload: str, deadline: float,
           setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload}: subprocess exceeded the run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload}: subprocess exited with code {proc.returncode}")
    payload = json.loads(lines[-1])
    # CLOCK_MONOTONIC is system-wide, so the child's timestamp and ours
    # share one timeline: set-up starts when the subprocess is spawned.
    payload["setup_s"] = payload.pop("setup_end") - started
    return payload


def _declared() -> dict:
    return json.loads(BENCHMARK.read_text())


def _units(section: "list[dict]") -> "dict[str, str]":
    return {m["name"]: m["unit"] for m in section}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = _declared()
    e2e_units = _units(declared["end_to_end"])
    layer_units = _units(declared["per_layer"])
    names = args.workload or [w["name"] for w in declared["workloads"]]
    report: dict = {
        "env": environment(),
        "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "end_to_end": {}, "layers": {}, "checks": {}, "samples": {},
        "attempted": {}, "failed": {},
    }
    line_metrics: dict = {}
    correct = True
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            setups = []
            if not args.trace:
                setups = [
                    _spawn(args, name, deadline, setup_only=True)["setup_s"]
                    for _ in range(SETUP_REPEATS - 1)
                ]
            result = _spawn(args, name, deadline, setup_only=False)
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        setups.append(result["setup_s"])
        e2e = dict(result["end_to_end"], setup_s=summary(setups))
        report["end_to_end"][name] = {m: dict(e2e[m], unit=u) for m, u in e2e_units.items()}
        report["samples"][name] = dict(result["samples"], setup_s=setups)
        report["checks"][name] = result["checks"]
        report["attempted"][name] = result["attempted"]
        report["failed"][name] = result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        if args.trace:
            layers = result["layers"]
            report["layers"][name] = {m: {"value": layers[m], "unit": u}
                                      for m, u in layer_units.items()}
            shown = report["layers"][name]
        else:
            shown = report["end_to_end"][name]
        for metric, entry in shown.items():
            line_metrics[prefix + metric] = {"value": entry["value"], "unit": entry["unit"]}
            spread = ""
            if "q1" in entry:
                spread = f"  [q1 {_fmt(entry['q1'])}, q3 {_fmt(entry['q3'])}, n={entry['n']}]"
            print(f"{name:16s} {metric:34s} {_fmt(entry['value']):>14s} {entry['unit']}{spread}")
        if args.trace:
            coverage = result["layers"]["trace.coverage"]
            print(f"{name:16s} layer self time covers {coverage:.1f}% of traced pass wall "
                  f"(summed over threads); uncovered {max(0.0, 100.0 - coverage):.1f}%")
        for check, entry in result["checks"].items():
            status = "ok" if entry["ok"] else "FAILED"
            print(f"{name:16s} check {check} = {_fmt(entry['value'])} ({entry['limit']}) {status}")
            correct = correct and entry["ok"]
        attempted, failed = result["attempted"], result["failed"]
        correct = correct and failed == 0
        print(f"{name:16s} failed_fraction = {failed}/{attempted}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report["attempted"].values()),
        "failed": sum(report["failed"].values()),
        "metrics": line_metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# compare


def verdict(parent: "list[float]", change: "list[float]", better: str,
            bound: float) -> "tuple[str, float]":
    """Classify a change against its parent for one metric.

    ``better`` when the change wins at least 9/10 of the alternated
    pairs and the medians differ by more than the parent's IQR;
    ``worse`` when the change's median is worse by more than ``bound``
    (a share of the parent's median); ``unresolved`` when either side's
    relative IQR exceeds ``bound`` and the two samples do not separate;
    otherwise ``same``.  Also returns the relative change of the median
    (positive = better).
    """
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = median(parent), median(change)
    gain = sign * (cm - pm) / abs(pm)
    p = summary(parent)
    c = summary(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p["q3"] - p["q1"]:
        return "better", gain
    if gain < -bound:
        return "worse", gain
    spread = max((p["q3"] - p["q1"]) / abs(pm), (c["q3"] - c["q1"]) / abs(cm))
    separated = min(change) > max(parent) or max(change) < min(parent)
    if spread > bound and not separated:
        return "unresolved", gain
    return "same", gain


def compare(parent_files: "list[str]", change_files: "list[str]") -> int:
    """Print one verdict row per (metric, workload); 1 if any is worse."""
    metrics = _declared()["end_to_end"]
    parents = [json.loads(Path(f).read_text())["end_to_end"] for f in parent_files]
    changes = [json.loads(Path(f).read_text())["end_to_end"] for f in change_files]

    def values(reports, workload, metric):
        # Reports pair up in the order given, one value per report.
        return [r[workload][metric]["value"] for r in reports if workload in r]

    workloads = dict.fromkeys(w for r in parents for w in r)
    print(f"{'metric':24s} {'workload':16s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    any_worse = False
    for m in metrics:
        for w in workloads:
            a, b = values(parents, w, m["name"]), values(changes, w, m["name"])
            if not a or not b:
                continue
            result, gain = verdict(a, b, m["better"], m["bound"])
            any_worse = any_worse or result == "worse"
            print(f"{m['name']:24s} {w:16s} {median(a):12.6g} {median(b):12.6g} "
                  f"{100 * gain:+7.2f}% {m['bound']:6.2f}  {result}")
    return 1 if any_worse else 0


# ----------------------------------------------------------------------
# command line


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        rest = argv[1:]
        if "--" not in rest:
            print("usage: run.py compare PARENT.json... -- CHANGE.json...", file=sys.stderr)
            return 2
        split = rest.index("--")
        if not rest[:split] or not rest[split + 1:]:
            print("compare needs at least one report on each side", file=sys.stderr)
            return 2
        return compare(rest[:split], rest[split + 1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        args.workload = args.workload[0]
        return _child(args)
    if args.seconds is None:
        if not BENCHMARK.is_file():
            print(f"error: {BENCHMARK} not found", file=sys.stderr)
            return 2
        args.seconds = float(_declared()["run_seconds"])
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
