"""Command-line interface.

Nine subcommands mirror the library's main workflows::

    python -m repro.cli simulate   # run a traditional PIC two-stream sim
    python -m repro.cli sweep      # run a batched ensemble of scenarios
    python -m repro.cli serve      # drain JSONL requests through the service
    python -m repro.cli trace      # render a recorded request trace
    python -m repro.cli scenarios  # list registered initial conditions
    python -m repro.cli campaign   # run/resume/inspect a streaming data campaign
    python -m repro.cli models     # inspect the content-addressed model registry
    python -m repro.cli train      # train the DL solvers (Sec. IV pipeline)
    python -m repro.cli reproduce  # regenerate a paper table/figure

All numeric output also lands in ``--out`` npz/json files so results
can be post-processed without re-running.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np


def _add_simulate(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser("simulate", help="run a traditional PIC two-stream simulation")
    p.add_argument("--v0", type=float, default=0.2, help="beam drift speed")
    p.add_argument("--vth", type=float, default=0.025, help="thermal spread")
    p.add_argument("--cells", type=int, default=64)
    p.add_argument("--ppc", type=int, default=1000, help="particles per cell")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--dt", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interpolation", choices=["ngp", "cic", "tsc"], default="cic")
    p.add_argument("--poisson", choices=["spectral", "fd", "direct"], default="spectral")
    p.add_argument("--out", default=None, help="save the history to this .npz")


def _parse_floats(text: str) -> list[float]:
    """Parse a comma-separated list of floats (CLI sweep axes)."""
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    return values


def _add_sweep(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser(
        "sweep",
        help="run a batched ensemble sweep over scenarios, beam parameters and seeds",
        description=(
            "Cross comma-separated --v0/--vth value lists with --runs seeds per "
            "combination and advance every run at once through the batched "
            "ensemble PIC engine."
        ),
    )
    p.add_argument("--scenario", default="two_stream",
                   help="registered scenario name (see repro.pic.scenarios)")
    p.add_argument("--v0", type=_parse_floats, default=[0.2],
                   help="comma-separated beam drift speeds")
    p.add_argument("--vth", type=_parse_floats, default=[0.025],
                   help="comma-separated thermal spreads")
    p.add_argument("--runs", type=int, default=4,
                   help="seeded runs per (v0, vth) combination")
    p.add_argument("--cells", type=int, default=64)
    p.add_argument("--ppc", type=int, default=200, help="particles per cell")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--dt", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0, help="base seed (run b uses seed+b)")
    p.add_argument("--interpolation", choices=["ngp", "cic", "tsc"], default="cic")
    p.add_argument("--poisson", choices=["spectral", "fd", "direct"], default="spectral")
    p.add_argument("--solver", choices=["traditional", "dl", "vlasov", "energy", "mpi"],
                   default="traditional",
                   help="engine family: classic deposit+Poisson PIC, a trained neural "
                        "solver, the noise-free semi-Lagrangian Vlasov ensemble, or "
                        "the energy-conserving implicit-midpoint PIC")
    p.add_argument("--dtype", choices=["float64", "float32"], default="float64",
                   help="numerical tier: float64 (bitwise-reproducible, default) or "
                        "float32 (faster; parity-band accuracy) — each engine "
                        "family declares its tiers in the registry, and "
                        "unsupported combinations fail with the supporting "
                        "families named")
    p.add_argument("--model-dir", default=None,
                   help="directory saved by DLFieldSolver.save, or a registry "
                        "reference registry:<fingerprint-prefix> (required with "
                        "--solver dl)")
    p.add_argument("--nv", type=int, default=None,
                   help="Vlasov velocity-grid cells (solver=vlasov; default 128)")
    p.add_argument("--out", default=None, help="save the batched histories to this .npz")


def _add_serve(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser(
        "serve",
        help="serve API v1 requests: drain a JSONL stream, or listen on HTTP",
        description=(
            "Serve API v1 request envelopes ({'api_version': 'v1', 'id': ..., "
            "'config': {...}, 'observables': [...], 'dtype': ...}) through the "
            "micro-batching simulation service.  Default mode drains a JSONL "
            "file/stdin and exits; with --listen HOST:PORT the service stays up "
            "behind an HTTP server (POST /v1/run, POST /v1/batch, GET /v1/health, "
            "GET /v1/metrics) with bounded admission + load-shedding, per-request "
            "execution timeouts, connection limits and graceful drain on "
            "SIGTERM/SIGINT."
        ),
    )
    p.add_argument("--requests", default="-",
                   help="JSONL request file, or '-' for stdin (default; drain mode)")
    p.add_argument("--listen", default=None, metavar="HOST:PORT",
                   help="listen mode: serve the v1 HTTP endpoints on this address "
                        "(PORT 0 picks a free port) instead of draining --requests")
    p.add_argument("--store", default=None,
                   help="directory for the on-disk result store (<key>.npz per run)")
    p.add_argument("--manifest", default=None,
                   help="write a JSON manifest mapping request ids to result keys/files")
    p.add_argument("--max-batch", type=int, default=16,
                   help="flush a compatibility group at this many requests")
    p.add_argument("--max-wait", type=float, default=0.02,
                   help="deadline (s) after which a partial group flushes anyway")
    p.add_argument("--capacity", type=int, default=256,
                   help="in-memory LRU slots of the result store")
    p.add_argument("--model-dir", default=None,
                   help="DLFieldSolver.save directory — or a registry reference "
                        "registry:<fingerprint-prefix> (see 'repro models') — "
                        "backing requests with solver=dl")
    p.add_argument("--workers", type=int, default=1,
                   help="execution parallelism: 1 (default) runs groups inline on the "
                        "service thread; N > 1 shards compatibility groups across N "
                        "spawned worker processes (both drain and --listen modes)")
    p.add_argument("--max-pending", type=int, default=256,
                   help="listen mode: admitted-but-unresolved request bound; past it "
                        "requests are shed with HTTP 503 (status 'shed')")
    p.add_argument("--request-timeout", type=float, default=None,
                   help="listen mode: per-request execution deadline in seconds; an "
                        "expired request answers HTTP 504 (status 'timeout')")
    p.add_argument("--max-connections", type=int, default=128,
                   help="listen mode: concurrent-connection bound (excess get 503)")
    p.add_argument("--trace", action="store_true",
                   help="record an end-to-end span timeline per request; inspect "
                        "with 'repro trace' (listen mode serves GET /v1/trace/<id>, "
                        "drain mode saves the timelines into --manifest)")


def _add_trace(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser(
        "trace",
        help="render a recorded request trace as a span waterfall",
        description=(
            "Render the span timeline of one traced request — which stages "
            "(client HTTP, server, batching, executor queue, engine steps) the "
            "wall-clock went to.  Traces come from a 'repro serve --listen "
            "--trace' server (fetched live from GET /v1/trace/<id>) or from a "
            "'repro serve --trace --manifest' drain manifest."
        ),
    )
    p.add_argument("trace_id", nargs="?", default=None,
                   help="the trace id (a result's timings['trace_id']); omitted "
                        "= the most recently completed trace")
    p.add_argument("--url", default=None, metavar="URL",
                   help="base URL of a live --trace server "
                        "(default http://127.0.0.1:8787)")
    p.add_argument("--manifest", default=None,
                   help="read the trace from this drain-mode manifest instead "
                        "of a live server")
    p.add_argument("--json", action="store_true",
                   help="print the raw span-tree JSON instead of the waterfall")


def _add_scenarios(sub: "argparse._SubParsersAction") -> None:
    sub.add_parser(
        "scenarios",
        help="list registered initial-condition scenarios",
        description="One line per registry entry: name + first docstring line.",
    )


def _add_campaign(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser(
        "campaign",
        help="run, resume or inspect a streaming (sharded, resumable) data campaign",
        description=(
            "Stream a training-data campaign through the public client as "
            "sharded npz files plus a resumable manifest.  'run' executes "
            "missing shards (adopting intact durable ones by content hash), "
            "'resume' is the same action named explicitly, and 'status' "
            "reports manifest progress without executing anything.  "
            "Concatenated shards (see --export) are bitwise identical to "
            "the in-memory run_campaign harvest."
        ),
    )
    p.add_argument("action", nargs="?", choices=["run", "resume", "status"],
                   default="run",
                   help="run/resume the campaign (default) or report progress")
    p.add_argument("--preset", choices=["fast", "medium", "paper"], default="fast")
    p.add_argument("--dir", default="campaign",
                   help="output directory (shard-*.npz + manifest.json)")
    p.add_argument("--shard-size", type=int, default=8,
                   help="simulations per shard (the durability granularity)")
    p.add_argument("--prefetch", type=int, default=2,
                   help="shards in flight at once; peak memory is bounded by "
                        "shard-size x prefetch runs")
    p.add_argument("--workers", type=int, default=1,
                   help="executor parallelism of the streaming client")
    p.add_argument("--fresh", action="store_true",
                   help="ignore any existing manifest and start over")
    p.add_argument("--export", default=None, metavar="NPZ",
                   help="also concatenate every shard into this single .npz")


def _add_models(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser(
        "models",
        help="inspect the content-addressed model registry",
        description=(
            "List, show, verify or garbage-collect checkpoints in the "
            "content-addressed model registry.  Registered models are "
            "addressed by DLFieldSolver fingerprint; any consumer taking a "
            "model directory (repro sweep/serve --model-dir, Client, "
            "SimulationService) also accepts registry:<fingerprint-prefix> "
            "references."
        ),
    )
    p.add_argument("action", nargs="?", choices=["list", "show", "verify", "gc"],
                   default="list")
    p.add_argument("ref", nargs="?", default=None,
                   help="fingerprint prefix (required for 'show'; 'verify' "
                        "checks every model when omitted)")
    p.add_argument("--registry", default=None, metavar="DIR",
                   help="registry root (default $REPRO_REGISTRY_DIR or "
                        ".artifacts/registry)")


def _add_train(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser("train", help="run the Sec. IV training pipeline")
    p.add_argument("--preset", choices=["fast", "medium", "paper"], default="fast")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache", default=".artifacts")
    p.add_argument("--no-cnn", action="store_true")


def _add_reproduce(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    p.add_argument("artifact", choices=["table1", "fig4", "fig5", "fig6"])
    p.add_argument("--preset", choices=["fast", "medium"], default="medium")
    p.add_argument("--cache", default=".artifacts")
    p.add_argument("--out", default=None, help="save the result summary to this .json")


def build_parser() -> argparse.ArgumentParser:
    """Top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the DL-based PIC method (CLUSTER 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_sweep(sub)
    _add_serve(sub)
    _add_trace(sub)
    _add_scenarios(sub)
    _add_campaign(sub)
    _add_models(sub)
    _add_train(sub)
    _add_reproduce(sub)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.api import Client, RunRequest
    from repro.config import SimulationConfig
    from repro.theory import fit_growth_rate, growth_rate_cold
    from repro.utils.io import save_npz_dict

    try:
        config = SimulationConfig(
            n_cells=args.cells, particles_per_cell=args.ppc, n_steps=args.steps,
            dt=args.dt, v0=args.v0, vth=args.vth, seed=args.seed,
            interpolation=args.interpolation, poisson_solver=args.poisson,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with Client(background=False) as client:
        result = client.run(RunRequest(config=config, id="simulate"))
    series = result.series
    gamma_theory = growth_rate_cold(2 * np.pi / config.box_length, config.v0)
    print(f"ran {args.steps} steps: E1 {series['mode1'][0]:.2e} -> "
          f"max {series['mode1'].max():.2e}")
    print(f"energy variation {result.energy_variation():.2%}, "
          f"momentum drift {result.momentum_drift():+.2e}")
    if gamma_theory > 0:
        fit = fit_growth_rate(series["time"], series["mode1"])
        print(f"growth rate: measured {fit.gamma:.4f} vs theory {gamma_theory:.4f}")
    else:
        print("configuration is linearly stable (k1*v0 >= 1)")
    if args.out:
        out = save_npz_dict(args.out, {k: np.asarray(v) for k, v in series.items()})
        print(f"history saved to {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import ApiError, Client, RunRequest
    from repro.config import SimulationConfig
    from repro.engines import vlasov_grid_params
    from repro.pic.scenarios import available_scenarios
    from repro.utils.io import save_npz_dict

    if args.runs < 1:
        print(f"error: --runs must be >= 1, got {args.runs}", file=sys.stderr)
        return 2
    if args.scenario not in available_scenarios():
        print(
            f"error: unknown scenario {args.scenario!r}; "
            f"available: {', '.join(available_scenarios())}",
            file=sys.stderr,
        )
        return 2
    if args.solver == "dl" and args.model_dir is None:
        print("error: --solver dl requires --model-dir (a DLFieldSolver.save directory)",
              file=sys.stderr)
        return 2
    extra = {"n_v": args.nv} if args.nv is not None else {}
    try:
        base = SimulationConfig(
            n_cells=args.cells, particles_per_cell=args.ppc, n_steps=args.steps,
            dt=args.dt, scenario=args.scenario, solver=args.solver, extra=extra,
            interpolation=args.interpolation, poisson_solver=args.poisson,
            dtype=args.dtype,
        )
        requests = [
            RunRequest(
                config=base.with_updates(v0=v0, vth=vth, seed=args.seed + rep),
                id=f"sweep-{i}",
            )
            for i, (v0, vth, rep) in enumerate(
                (v0, vth, rep)
                for v0 in args.v0
                for vth in args.vth
                for rep in range(args.runs)
            )
        ]
    except ValueError as exc:
        print(f"error: solver incompatible with the sweep configuration: {exc}",
              file=sys.stderr)
        return 2
    dl_solver = None
    if args.solver == "dl":
        from repro.dlpic import DLFieldSolver

        try:
            dl_solver = DLFieldSolver.load_auto(args.model_dir)
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load a DL solver from {args.model_dir!r}: {exc}",
                  file=sys.stderr)
            return 2
    if args.solver == "vlasov":
        n_v, v_min, v_max = vlasov_grid_params(base)
        size = f"{n_v}x{base.n_cells} phase-space cells in [{v_min}, {v_max}]"
    else:
        size = f"{base.n_particles} particles"
    print(f"sweeping {len(requests)} runs of scenario {args.scenario!r} "
          f"with the {args.solver} solver ({args.dtype} tier, "
          f"{args.steps} steps, {size} each)...")
    try:
        with Client(background=False, max_batch_size=len(requests),
                    dl_solver=dl_solver) as client:
            results = client.map(requests)
    except (ApiError, ValueError) as exc:
        print(f"error: solver incompatible with the sweep configuration: {exc}",
              file=sys.stderr)
        return 2
    print(f"{'v0':>7} {'vth':>7} {'seed':>6} {'max E1':>10} {'dE/E':>8}")
    for request, result in zip(requests, results):
        cfg = request.config
        print(f"{cfg.v0:>7.3f} {cfg.vth:>7.3f} {cfg.seed:>6d} "
              f"{np.asarray(result.series['mode1']).max():>10.2e} "
              f"{result.energy_variation():>8.2%}")
    if args.out:
        payload: dict = {"time": np.asarray(results[0].series["time"])}
        for name in results[0].series:
            if name != "time":
                payload[name] = np.stack(
                    [np.asarray(r.series[name]) for r in results], axis=1
                )
        payload["v0"] = np.array([r.config.v0 for r in requests])
        payload["vth"] = np.array([r.config.vth for r in requests])
        payload["seed"] = np.array([float(r.config.seed) for r in requests])
        out = save_npz_dict(args.out, payload)
        print(f"histories saved to {out}")
    return 0


#: Shared header of the per-request result tables: drain mode and
#: listen mode print the same columns.
_SERVE_HEADER = (f"{'id':>16} {'scenario':>20} {'solver':>12} {'status':>9} "
                 f"{'max E1':>10} {'dE/E':>8} {'wall ms':>9}")


def _serve_row(request, result) -> "tuple[str, dict]":
    """One per-request table row + its manifest summary scalars.

    The wall-clock column comes from the result's own ``timings``
    (submit-to-resolution as observed by the serving side), so drain
    mode and listen mode report identical per-request numbers instead
    of one aggregate elapsed split evenly.
    """
    entry = result.to_dict(arrays=False)
    scenario = request.config.scenario if request is not None else "-"
    solver = result.solver if request is not None else "-"
    entry["scenario"] = scenario
    entry.pop("config", None)  # the request stream already has it
    wall_s = result.timings.get("wall_s")
    wall_col = f"{wall_s * 1e3:>9.1f}" if wall_s is not None else f"{'-':>9}"
    if not result.ok:
        row = (f"{result.id:>16} {scenario:>20} {solver:>12} "
               f"{result.status.upper():>9} {'-':>10} {'-':>8} {wall_col}  "
               f"{result.error}")
        return row, entry
    mode1_col = f"{'-':>10}"
    energy_col = f"{'-':>8}"
    # The summary columns exist only when the request's observables
    # selection recorded them.
    if "mode1" in result.series:
        max_mode1 = float(np.asarray(result.series["mode1"]).max())
        entry["max_mode1"] = max_mode1
        mode1_col = f"{max_mode1:>10.2e}"
    if "total" in result.series:
        energy_var = result.energy_variation()
        entry["energy_variation"] = energy_var
        energy_col = f"{energy_var:>8.2%}"
    status = result.submit_status or result.status
    row = (f"{result.id:>16} {scenario:>20} {solver:>12} "
           f"{status:>9} {mode1_col} {energy_col} {wall_col}")
    return row, entry


def _serve_counts(snapshot: dict) -> "dict[str, int]":
    """The serve summary line's counts, read from a metrics snapshot."""
    from repro.obs.metrics import total

    submits = "repro_service_submits_total"
    return {
        "batches": total(snapshot, "repro_batch_size_total"),
        "executed_runs": total(snapshot, "repro_service_runs_by_tier_total"),
        "cache_hits": total(snapshot, submits, outcome="cached"),
        "dedup_hits": total(snapshot, submits, outcome="inflight"),
        "store_errors": total(snapshot, "repro_service_store_errors_total"),
    }


def _load_dl_solver(model_dir: str):
    """Load a DLFieldSolver for serve modes; (solver, error_message)."""
    from repro.dlpic import DLFieldSolver

    try:
        return DLFieldSolver.load_auto(model_dir), None
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return None, f"cannot load a DL solver from {model_dir!r}: {exc}"


def _cmd_serve(args: argparse.Namespace) -> int:
    import os.path
    import time

    from repro.api import Client
    from repro.service import ResultStore, read_requests

    if args.listen is not None:
        return _cmd_serve_listen(args)
    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.requests) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            print(f"error: cannot read {args.requests!r}: {exc}", file=sys.stderr)
            return 2
    try:
        requests = read_requests(lines)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not requests:
        print("error: no requests in the input stream", file=sys.stderr)
        return 2
    ids = [req.id for req in requests]
    if len(set(ids)) != len(ids):
        print("error: duplicate request ids in the input stream", file=sys.stderr)
        return 2
    dl_solver = None
    if any(req.solver == "dl" for req in requests):
        if args.model_dir is None:
            print("error: requests with solver=dl need --model-dir", file=sys.stderr)
            return 2
        dl_solver, error = _load_dl_solver(args.model_dir)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    store = ResultStore(capacity=args.capacity, directory=args.store)
    start = time.perf_counter()
    with Client(
        max_batch_size=args.max_batch, max_wait=args.max_wait,
        store=store, dl_solver=dl_solver, raise_on_error=False,
        workers=args.workers, model_dir=args.model_dir,
        tracing=args.trace,
    ) as client:
        try:
            results = client.map(requests)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stats = _serve_counts(client.stats)
        traces = []
        if args.trace:
            buffer = client.service.tracer.buffer
            traces = [
                trace.to_payload()
                for trace in map(buffer.get, buffer.ids())
                if trace is not None
            ]
    elapsed = time.perf_counter() - start
    entries = []
    n_failed = 0
    print(_SERVE_HEADER)
    for req, result in zip(requests, results):
        row, entry = _serve_row(req, result)
        entry["n_steps"] = req.config.n_steps
        if not result.ok:
            n_failed += 1
        # Record the archive only if the write-through actually
        # landed (a full disk degrades the store to a cache
        # miss, not a lying manifest).
        elif args.store and os.path.exists(
            os.path.join(args.store, f"{result.key}.npz")
        ):
            entry["file"] = f"{result.key}.npz"
        print(row)
        entries.append(entry)
    print(f"served {len(requests)} requests in {elapsed * 1e3:.0f} ms "
          f"({len(requests) / elapsed:.1f} req/s): "
          f"{stats['batches']} engine batches, {stats['executed_runs']} runs executed, "
          f"{stats['cache_hits']} store hits, {stats['dedup_hits']} in-flight dedups")
    if stats["store_errors"]:
        print(f"warning: {stats['store_errors']} result-store archive(s) could "
              f"not be read or written", file=sys.stderr)
    if args.manifest:
        manifest = {
            "api_version": "v1",
            "requests": entries,
            "stats": {**stats, "elapsed_s": elapsed},
            "store_directory": args.store,
        }
        if args.trace:
            # Full span timelines per request; 'repro trace --manifest'
            # renders them as waterfalls offline.
            manifest["traces"] = traces
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh, indent=2)
        print(f"manifest saved to {args.manifest}")
    return 1 if n_failed else 0


def _parse_listen_address(text: str) -> "tuple[str, int]":
    """Split a ``HOST:PORT`` listen address (raises ValueError)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--listen takes HOST:PORT (e.g. 127.0.0.1:8787), got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"--listen port must be an integer, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--listen port must be in [0, 65535], got {port}")
    return host, port


def _cmd_serve_listen(args: argparse.Namespace) -> int:
    from repro.obs.metrics import total
    from repro.server import SimulationServer
    from repro.service import ResultStore

    try:
        host, port = _parse_listen_address(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dl_solver = None
    if args.model_dir is not None:
        dl_solver, error = _load_dl_solver(args.model_dir)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    store = ResultStore(capacity=args.capacity, directory=args.store)

    def on_ready(server: "SimulationServer") -> None:
        timeout = (f"{args.request_timeout:g}s" if args.request_timeout is not None
                   else "none")
        endpoints = "POST /v1/run, POST /v1/batch, GET /v1/health, GET /v1/metrics"
        if args.trace:
            endpoints += ", GET /v1/trace/<id>"
        print(f"listening on {server.url}  ({endpoints})")
        print(f"max_batch={args.max_batch} max_wait={args.max_wait:g}s "
              f"workers={args.workers} "
              f"max_pending={args.max_pending} request_timeout={timeout} "
              f"max_connections={args.max_connections} "
              f"trace={'on' if args.trace else 'off'}")
        print(_SERVE_HEADER, flush=True)

    def on_result(request, result) -> None:
        row, _ = _serve_row(request, result)
        print(row, flush=True)

    server = SimulationServer(
        host=host, port=port,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        max_connections=args.max_connections,
        max_batch_size=args.max_batch, max_wait=args.max_wait,
        store=store, dl_solver=dl_solver,
        workers=args.workers, model_dir=args.model_dir,
        tracing=args.trace,
        on_result=on_result, on_ready=on_ready,
    )
    try:
        server.run()
    except OSError as exc:  # e.g. address already in use
        print(f"error: cannot listen on {args.listen!r}: {exc}", file=sys.stderr)
        return 2
    stats = _serve_counts(server.service.metrics.snapshot())
    served = total(server.metrics.snapshot(), "repro_requests_total")
    print(f"drained: served {served} requests "
          f"({stats['batches']} engine batches, {stats['executed_runs']} runs "
          f"executed, {stats['cache_hits']} store hits, "
          f"{stats['dedup_hits']} in-flight dedups)")
    return 0


def _trace_from_manifest(args: argparse.Namespace) -> "dict | None":
    """Pick the requested trace payload out of a drain-mode manifest."""
    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read manifest {args.manifest!r}: {exc}",
              file=sys.stderr)
        return None
    traces = manifest.get("traces") or []
    if not traces:
        print("error: the manifest records no traces "
              "(drain with 'repro serve --trace --manifest ...')", file=sys.stderr)
        return None
    if args.trace_id is None:
        return traces[-1]
    by_id = {trace.get("trace_id"): trace for trace in traces}
    payload = by_id.get(args.trace_id)
    if payload is None:
        print(f"error: trace {args.trace_id!r} is not in the manifest "
              f"({len(traces)} trace(s) recorded)", file=sys.stderr)
    return payload


def _trace_from_server(args: argparse.Namespace) -> "dict | None":
    """Fetch the requested trace from a live ``--trace`` server."""
    import urllib.error
    import urllib.request

    url = args.url or "http://127.0.0.1:8787"
    if "://" not in url:
        url = f"http://{url}"
    target = f"{url.rstrip('/')}/v1/trace/{args.trace_id or 'last'}"
    try:
        with urllib.request.urlopen(target) as response:
            return json.load(response)
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            message = json.loads(body)["error"]
        except (ValueError, KeyError, TypeError):
            message = body.decode(errors="replace").strip()
        print(f"error: server answered HTTP {exc.code}: {message}", file=sys.stderr)
    except (OSError, ValueError) as exc:
        print(f"error: cannot fetch {target!r}: {exc} "
              f"(is a 'repro serve --listen ... --trace' server up?)",
              file=sys.stderr)
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_waterfall

    if args.manifest is not None and args.url is not None:
        print("error: pass either --manifest or --url, not both", file=sys.stderr)
        return 2
    if args.manifest is not None:
        payload = _trace_from_manifest(args)
    else:
        payload = _trace_from_server(args)
    if payload is None:
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_waterfall(payload))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.pic.scenarios import available_scenarios, has_distribution, scenario_summaries

    summaries = scenario_summaries()
    width = max(len(name) for name in summaries)
    particle_names = set(available_scenarios())
    for name, doc in summaries.items():
        # A particle factory serves the PIC families; a registered
        # noise-free f0 counterpart serves the Vlasov family.
        if name in particle_names and has_distribution(name):
            families = "pic+vlasov"
        elif name in particle_names:
            families = "pic"
        else:
            families = "vlasov"
        print(f"{name:<{width}}  [{families:<10}]  {doc}")
    return 0


def _campaign_preset(name: str):
    from repro.datagen import fast_campaign, medium_campaign, paper_campaign

    return {"fast": fast_campaign, "medium": medium_campaign,
            "paper": paper_campaign}[name]()


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.datagen import CampaignStream, FieldDataset

    campaign = _campaign_preset(args.preset)
    try:
        stream = CampaignStream(
            campaign, args.dir,
            shard_size=args.shard_size, prefetch_depth=args.prefetch,
            workers=args.workers, resume=not args.fresh,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "status":
        status = stream.status()
        print(f"campaign {status['campaign_hash'][:12]} in {status['out_dir']}: "
              f"{status['shards_intact']}/{status['n_shards']} shards intact "
              f"({status['n_runs']} simulations total)")
        for key in ("shards_recorded", "shards_missing", "complete"):
            print(f"  {key}: {status[key]}")
        return 0
    print(f"streaming {campaign.n_simulations} simulations into {args.dir} "
          f"({len(stream.plan())} shards of {args.shard_size}, "
          f"prefetch {args.prefetch}, {args.workers} worker(s))...")
    shards = []
    try:
        for shard in stream:
            print(f"  shard {shard.index:05d} [{shard.status:>8}] "
                  f"{shard.n_runs} runs, {shard.n_samples:,} samples "
                  f"-> {shard.path.name}")
            shards.append(shard)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = stream.stats
    print(f"done: {stats['shards_executed']} executed, "
          f"{stats['shards_verified']} verified, "
          f"{stats['shards_repaired']} repaired "
          f"({stats['runs_executed']} runs executed, "
          f"{stats['runs_skipped']} skipped)")
    if args.export:
        data = FieldDataset.concatenate([shard.load() for shard in shards])
        out = data.save(args.export)
        print(f"exported {len(data):,} pairs to {out}")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    if args.action == "gc":
        removed = registry.gc()
        print(f"collected {len(removed)} entr{'y' if len(removed) == 1 else 'ies'} "
              f"from {registry.root}")
        for name in removed:
            print(f"  removed {name}")
        return 0
    if args.action == "show":
        if args.ref is None:
            print("error: 'repro models show' needs a fingerprint prefix",
                  file=sys.stderr)
            return 2
        try:
            model = registry.get(args.ref)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"fingerprint": model.fingerprint,
                          "path": str(model.path), **model.meta}, indent=2))
        return 0
    if args.action == "verify":
        refs = [args.ref] if args.ref else [m.fingerprint for m in registry.list()]
        if not refs:
            print(f"no models registered in {registry.root}")
            return 0
        failed = 0
        for ref in refs:
            try:
                ok = registry.verify(ref)
            except (KeyError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(f"  {ref[:16]:<16} {'ok' if ok else 'CORRUPT'}")
            failed += 0 if ok else 1
        return 1 if failed else 0
    models = registry.list()
    if not models:
        print(f"no models registered in {registry.root}")
        return 0
    print(f"{len(models)} model(s) in {registry.root}:")
    for model in models:
        lineage = model.lineage
        campaign = lineage.get("campaign_manifest_hash") or "-"
        print(f"  {model.fingerprint[:16]}  campaign={str(campaign)[:12]}  "
              f"(use --model-dir registry:{model.fingerprint[:12]})")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fast_preset, format_table1, medium_preset, paper_preset,
        run_table1, train_solvers,
    )

    preset = {"fast": fast_preset, "medium": medium_preset,
              "paper": paper_preset}[args.preset]()
    solvers = train_solvers(preset, cache_dir=args.cache,
                            include_cnn=not args.no_cnn,
                            n_workers=args.workers, verbose=True)
    print(format_table1(run_table1(solvers)))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fast_preset, format_table1, medium_preset,
        run_fig4, run_fig5, run_fig6, run_table1, train_solvers,
    )

    preset = {"fast": fast_preset, "medium": medium_preset}[args.preset]()
    solvers = train_solvers(preset, cache_dir=args.cache, include_cnn=True)
    payload: dict
    if args.artifact == "table1":
        rows = run_table1(solvers)
        print(format_table1(rows))
        payload = {f"{r.network}-{r.test_set}": {"mae": r.mae, "max_error": r.max_error}
                   for r in rows}
        payload["cnn_fingerprint"] = solvers.cnn_solver.fingerprint()
    elif args.artifact == "fig4":
        r4 = run_fig4(solvers.mlp_solver, preset.validation_config())
        print(r4.summary())
        payload = {"gamma_theory": r4.gamma_theory,
                   "gamma_traditional": r4.fit_traditional.gamma,
                   "gamma_dl": r4.fit_dl.gamma}
    elif args.artifact == "fig5":
        r5 = run_fig5(solvers.mlp_solver, preset.validation_config())
        print(r5.summary())
        payload = {"energy_variation_traditional": r5.energy_variation_traditional,
                   "energy_variation_dl": r5.energy_variation_dl,
                   "momentum_drift_traditional": r5.momentum_drift_traditional,
                   "momentum_drift_dl": r5.momentum_drift_dl}
    else:
        r6 = run_fig6(solvers.mlp_solver, preset.coldbeam_config())
        print(r6.summary())
        payload = {"spread_traditional": r6.metrics_traditional.max_spread,
                   "spread_dl": r6.metrics_dl.max_spread,
                   "rippled_traditional": r6.metrics_traditional.rippled,
                   "rippled_dl": r6.metrics_dl.rippled}
    # Lineage: the training campaign's manifest hash and the registry
    # fingerprint of the MLP behind the numbers.
    payload.update(campaign_hash=solvers.campaign_hash,
                   model_fingerprint=solvers.mlp_solver.fingerprint())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"summary saved to {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "scenarios": _cmd_scenarios,
    "campaign": _cmd_campaign,
    "models": _cmd_models,
    "train": _cmd_train,
    "reproduce": _cmd_reproduce,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
