"""The four benchmark workloads.

Each workload builds its inputs from a seed, then exposes three phases
that ``run.py`` drives:

* ``setup()`` — everything before the first timed pass (client or
  solver construction, warm-up), timed as ``setup_s``;
* ``run_pass()`` — one timed unit of work, returning a
  :class:`PassRecord` whose ``wall_s`` covers only the timed region;
* ``checks()`` — correctness checks, run after timing.

The workloads reach the program only through its public entry points
(``Client``, ``serve_in_thread``, ``CampaignStream``, ``make_engine``,
the ``DLPIC``/``DLFieldSolver``/``build_mlp`` trio for the neural
solver) and always run the float64 ``numpy`` kernel tier.  Sizes are
constructor arguments, so the tests run every workload shrunk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro.api import Client, RunRequest
from repro.config import SimulationConfig
from repro.datagen.presets import medium_campaign
from repro.datagen.stream import CampaignStream
from repro.dlpic.simulation import DLPIC
from repro.dlpic.solver import DLFieldSolver
from repro.engines import make_engine
from repro.models import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid, bin_phase_space_batch
from repro.phasespace.normalization import MinMaxNormalizer
from repro.server.app import serve_in_thread
from repro.service.store import ResultStore
from repro.theory.dispersion import growth_rate_cold
from repro.theory.growth import fit_growth_rate


@dataclasses.dataclass
class PassRecord:
    """What one timed pass did and how long it took.

    ``latencies_s`` and ``timings`` hold one entry per request
    (client-observed latency and ``RunResult.timings``); ``batch_sizes``
    is the service's engine-batch histogram for this pass.
    """

    wall_s: float
    requests: int
    failed: int
    particle_steps: int
    latencies_s: "list[float]"
    timings: "list[dict]"
    cache_hits: int = 0
    batch_sizes: "dict[int, int]" = dataclasses.field(default_factory=dict)
    shard_bytes: int = 0
    max_inflight_runs: int = 0


@dataclasses.dataclass
class Check:
    """One correctness check: its value and whether it held."""

    name: str
    ok: bool
    value: "float | str"
    limit: str


def _seeds(seed: int, n: int) -> "list[int]":
    """``n`` distinct run seeds derived from the benchmark seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.choice(2**31 - 1, size=n, replace=False)]


def _histogram_delta(after: "dict[int, int]", before: "dict[int, int]") -> "dict[int, int]":
    delta = {size: count - before.get(size, 0) for size, count in after.items()}
    return {size: count for size, count in delta.items() if count}


def _finite_series(result) -> bool:
    return all(np.all(np.isfinite(values)) for values in result.series.values())


def _same_result(a, b) -> bool:
    """Bitwise equality of two results' series and final field."""
    if set(a.series) != set(b.series):
        return False
    for name in a.series:
        x, y = np.asarray(a.series[name]), np.asarray(b.series[name])
        if x.dtype != y.dtype or not np.array_equal(x, y):
            return False
    return np.array_equal(a.efield, b.efield) and a.efield.dtype == b.efield.dtype


class _SweepWorkload:
    """Shared body of the two paper workloads: one ensemble per pass.

    The pass submits the same ``batch`` configs through an in-process
    ``Client(background=False)``, which coalesces them into one engine.
    The store holds nothing (capacity 0), so every pass executes the
    same work.
    """

    solver = "traditional"

    def __init__(
        self,
        seed: int,
        *,
        n_cells: int = 64,
        ppc: int = 1000,
        steps: int = 25,
        batch: int = 8,
        warmup_steps: int = 5,
    ) -> None:
        self.configs = [
            SimulationConfig(
                n_cells=n_cells, particles_per_cell=ppc, n_steps=steps,
                seed=s, solver=self.solver,
            )
            for s in _seeds(seed, batch)
        ]
        self.warmup_steps = warmup_steps
        self.client: "Client | None" = None
        self.last_results: list = []

    def _make_client(self) -> Client:
        return Client(
            background=False, max_batch_size=len(self.configs),
            store=ResultStore(capacity=0), raise_on_error=False,
        )

    def setup(self) -> None:
        self.client = self._make_client()
        self.client.map([c.with_updates(n_steps=self.warmup_steps) for c in self.configs])

    def run_pass(self) -> PassRecord:
        service = self.client.service
        before = service.batch_size_histogram
        t0 = time.perf_counter()
        results = self.client.map(self.configs)
        wall = time.perf_counter() - t0
        self.last_results = results
        ok = [r for r in results if r.ok]
        return PassRecord(
            wall_s=wall,
            requests=len(results),
            failed=len(results) - len(ok),
            particle_steps=sum(r.config.n_particles * r.config.n_steps for r in ok),
            latencies_s=[r.timings["wall_s"] for r in results],
            timings=[dict(r.timings) for r in results],
            cache_hits=sum(r.cache_hit for r in results),
            batch_sizes=_histogram_delta(service.batch_size_histogram, before),
        )

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


class PicPaper(_SweepWorkload):
    """8 traditional two-stream runs at paper resolution, one ensemble."""

    name = "pic_paper"
    #: Layer self times must explain this share of a traced pass.
    coverage_floor_pct = 90.0
    check_rows = 3
    check_steps = 200

    def checks(self) -> "list[Check]":
        # The growth fit of one noisy row swings by ~0.1 from seed to
        # seed; the median of a few rows keeps the 0.25 gate meaningful
        # without making it fail on an unlucky seed.
        runs = self.client.map(
            [c.with_updates(n_steps=self.check_steps) for c in self.configs[: self.check_rows]]
        )
        errors, r2s, drifts = [], [], []
        for result in runs:
            cfg = result.config
            gamma = growth_rate_cold(k=2.0 * np.pi / cfg.box_length, v0=cfg.v0)
            fit = fit_growth_rate(result.series["time"], result.series["mode1"])
            errors.append(fit.relative_error(gamma))
            r2s.append(fit.r_squared)
            drifts.append(result.energy_variation())
        finite = all(r.ok and _finite_series(r) for r in runs + self.last_results)
        return [
            Check("growth_rel_err", median(errors) < 0.25, median(errors), "< 0.25"),
            Check("growth_r2", median(r2s) > 0.9, median(r2s), "> 0.9"),
            Check("energies_finite", finite, str(finite), "all finite"),
            Check("energy_drift", bool(np.isfinite(median(drifts))), median(drifts),
                  "reported"),
        ]


class DlPaper(_SweepWorkload):
    """The same 8 configs through the paper's MLP field solver."""

    name = "dl_paper"
    solver = "dl"
    coverage_floor_pct = None
    prefix_steps = 20

    def __init__(self, seed: int, *, n_v: int = 64, hidden: int = 1024,
                 **sizes: int) -> None:
        super().__init__(seed, **sizes)
        self.n_v = n_v
        self.hidden = hidden
        self.dl_solver: "DLFieldSolver | None" = None

    def _make_client(self) -> Client:
        # Untrained weights: trained checkpoints are not part of the
        # repository, and the cost of a forward does not depend on the
        # weight values.  The normalizer is fitted on the t=0 histograms
        # of the workload's own configs, as training would fit it.
        cfg = self.configs[0]
        grid = PhaseSpaceGrid(n_x=cfg.n_cells, n_v=self.n_v, box_length=cfg.box_length)
        initial = make_engine([c.with_updates(solver="traditional") for c in self.configs])
        histograms = bin_phase_space_batch(
            initial.particles.x, initial.v_at_integer_time, grid
        )
        model = build_mlp(
            input_size=grid.size, output_size=cfg.n_cells, hidden_size=self.hidden,
            rng=2021,
        )
        self.dl_solver = DLFieldSolver(model, grid, MinMaxNormalizer().fit(histograms))
        return Client(
            background=False, max_batch_size=len(self.configs),
            store=ResultStore(capacity=0), dl_solver=self.dl_solver,
            raise_on_error=False,
        )

    def checks(self) -> "list[Check]":
        prefix = min(self.prefix_steps, self.configs[0].n_steps)
        solo = DLPIC(self.configs[0].with_updates(n_steps=prefix), self.dl_solver).run(prefix)
        row0 = self.last_results[0]
        parity = all(
            np.array_equal(solo[name], row0.series[name][: prefix + 1])
            for name in row0.series
        )
        healthy = all(r.ok and _finite_series(r) for r in self.last_results)
        return [
            Check("row0_matches_solo_dlpic", parity, str(parity),
                  f"bitwise over {prefix} steps"),
            Check("results_ok_finite", healthy, str(healthy), "all ok, finite"),
        ]


# The serve_mixed traffic mix, cycled request by request.  Vlasov runs
# are grid solves and push no particles.
_SERVE_KINDS = (
    {"solver": "traditional", "scenario": "two_stream"},
    {"solver": "traditional", "scenario": "cold_beam"},
    {"solver": "vlasov", "scenario": "landau_damping", "perturbation": 0.05},
    {"solver": "energy", "scenario": "two_stream"},
)


class ServeMixed:
    """Small mixed requests over HTTP from two closed-loop clients.

    Every pass stands up a fresh server, so each pass starts from an
    empty result store and does the same work.  Each client repeats
    some of its own earlier (already answered) requests, so repeats are
    guaranteed store hits rather than in-flight duplicates.
    """

    name = "serve_mixed"
    coverage_floor_pct = None
    clients = 2
    server_kwargs = {"max_batch_size": 16, "max_wait": 0.01}

    def __init__(
        self,
        seed: int,
        *,
        n_cells: int = 32,
        ppc: int = 10,
        steps: int = 150,
        unique_per_client: int = 24,
        repeat_every: int = 3,
        parity_samples: int = 8,
    ) -> None:
        seeds = _seeds(seed, self.clients * unique_per_client)
        self.sequences: "list[list[tuple[RunRequest, bool]]]" = []
        for c in range(self.clients):
            uniques = []
            for i in range(unique_per_client):
                kind = _SERVE_KINDS[i % len(_SERVE_KINDS)]
                cfg = SimulationConfig(
                    n_cells=n_cells, particles_per_cell=ppc, n_steps=steps,
                    seed=seeds[c * unique_per_client + i], **kind,
                )
                uniques.append(RunRequest(config=cfg, id=f"c{c}-u{i}"))
            sequence = []
            for i, request in enumerate(uniques):
                sequence.append((request, False))
                if (i + 1) % repeat_every == 0:
                    earlier = uniques[(i + 1) // repeat_every - 1]
                    sequence.append((earlier.with_updates(id=f"{earlier.id}-repeat"), True))
            self.sequences.append(sequence)
        self.parity_rng = np.random.default_rng(seed + 1)
        self.parity_samples = parity_samples
        self.last_results: "list[tuple[RunRequest, bool, object]]" = []

    def setup(self) -> None:
        # Every kind and one store hit, at 2 steps, from every client.
        self._serve([
            [
                (request.with_updates(config=request.config.with_updates(n_steps=2)), repeat)
                for request, repeat in sequence[: len(_SERVE_KINDS) + 1]
            ]
            for sequence in self.sequences
        ])

    def _serve(self, sequences) -> "tuple[float, list, dict[int, int]]":
        """Drive ``sequences`` closed-loop against a fresh server."""
        outcomes: "list[list]" = [[] for _ in sequences]

        def drive(client: Client, index: int) -> None:
            for request, repeat in sequences[index]:
                t0 = time.perf_counter()
                result = client.submit(request).result()
                outcomes[index].append((request, repeat, result, time.perf_counter() - t0))

        t0 = time.perf_counter()
        with serve_in_thread(**self.server_kwargs) as server:
            with Client.connect(
                server.url, max_connections=len(sequences), raise_on_error=False
            ) as client:
                threads = [
                    threading.Thread(target=drive, args=(client, i))
                    for i in range(len(sequences))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            histogram = server.service.batch_size_histogram
        wall = time.perf_counter() - t0
        return wall, [o for per_client in outcomes for o in per_client], histogram

    def run_pass(self) -> PassRecord:
        wall, outcomes, histogram = self._serve(self.sequences)
        self.last_results = [(request, repeat, result) for request, repeat, result, _ in outcomes]
        ok = [result for _, _, result, _ in outcomes if result.ok]
        return PassRecord(
            wall_s=wall,
            requests=len(outcomes),
            failed=len(outcomes) - len(ok),
            particle_steps=sum(
                r.config.n_particles * r.config.n_steps for r in ok if r.solver != "vlasov"
            ),
            latencies_s=[latency for *_, latency in outcomes],
            timings=[dict(result.timings) for _, _, result, _ in outcomes],
            cache_hits=sum(r.cache_hit for r in ok),
            batch_sizes=histogram,
        )

    def checks(self) -> "list[Check]":
        all_ok = all(result.ok for _, _, result in self.last_results)
        repeats_hit = all(result.cache_hit for _, repeat, result in self.last_results if repeat)
        uniques = [(req, res) for req, repeat, res in self.last_results if not repeat]
        picks = self.parity_rng.choice(
            len(uniques), size=min(self.parity_samples, len(uniques)), replace=False
        )
        sampled = [uniques[i] for i in picks]
        with Client(background=False, store=ResultStore(capacity=0)) as local:
            reference = local.map([req for req, _ in sampled])
        parity = all(_same_result(res, ref) for (_, res), ref in zip(sampled, reference))
        return [
            Check("results_ok", all_ok, str(all_ok), "all ok"),
            Check("repeats_cache_hit", repeats_hit, str(repeats_hit), "every repeat"),
            Check("remote_matches_inprocess", parity, str(parity),
                  f"bitwise on {len(sampled)} sampled requests"),
        ]

    def close(self) -> None:
        pass


class _RecordingClient(Client):
    """A ``Client`` that keeps each result's timings (not its arrays)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.records: "list[tuple[bool, bool, dict]]" = []

    def submit(self, request):
        future = super().submit(request)
        future.add_done_callback(self._record)
        return future

    def _record(self, future) -> None:
        result = future.result()
        self.records.append((result.ok, result.cache_hit, dict(result.timings)))


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CampaignStreamWorkload:
    """The Sec. IV-A1-shaped data campaign, streamed into shards."""

    name = "campaign_stream"
    coverage_floor_pct = None
    shard_size = 4
    prefetch_depth = 2

    def __init__(
        self,
        seed: int,
        work_dir: "str | Path",
        *,
        n_cells: int = 64,
        ppc: int = 100,
        steps: int = 200,
        n_v: int = 32,
    ) -> None:
        preset = medium_campaign(master_seed=seed)
        self.campaign = dataclasses.replace(
            preset,
            base_config=preset.base_config.with_updates(
                n_cells=n_cells, particles_per_cell=ppc, n_steps=steps
            ),
            ps_grid=PhaseSpaceGrid(
                n_x=n_cells, n_v=n_v, box_length=preset.base_config.box_length
            ),
        )
        self.work_dir = Path(work_dir)
        self.passes = 0
        self.shard_hashes: "list[list[str]]" = []
        self.manifest_ok: "list[bool]" = []
        self.sample_counts: "list[int]" = []

    def _stream(self, campaign, out_dir: Path):
        """Run ``campaign`` into ``out_dir`` through a client of our own.

        The client mirrors the one ``CampaignStream`` would build for
        itself (background, batches of one shard, no result store); it
        is passed in only so the per-request timings can be kept.
        """
        client = _RecordingClient(
            background=True, max_batch_size=self.shard_size, max_wait=0.005,
            store=ResultStore(capacity=0),
        )
        try:
            t0 = time.perf_counter()
            stream = CampaignStream(
                campaign, out_dir, shard_size=self.shard_size,
                prefetch_depth=self.prefetch_depth, client=client, resume=False,
            )
            shards = list(stream)
            wall = time.perf_counter() - t0
            histogram = client.service.batch_size_histogram
        finally:
            client.close()
        return wall, stream, shards, client.records, histogram

    def setup(self) -> None:
        warm = dataclasses.replace(
            self.campaign,
            base_config=self.campaign.base_config.with_updates(n_steps=2),
        )
        out_dir = self.work_dir / "warmup"
        self._stream(warm, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)

    def run_pass(self) -> PassRecord:
        out_dir = self.work_dir / f"pass-{self.passes}"
        self.passes += 1
        wall, stream, shards, records, histogram = self._stream(self.campaign, out_dir)
        # Verified outside the timed region, then removed so disk use
        # stays at one pass.
        manifest = json.loads(stream.manifest_path.read_text())
        entries = manifest["shards"]
        self.manifest_ok.append(
            len(entries) == len(shards)
            and all(
                _sha256_file(out_dir / entry["file"]) == entry["sha256"]
                for entry in entries.values()
            )
        )
        self.shard_hashes.append([shard.sha256 for shard in shards])
        self.sample_counts.append(sum(shard.n_samples for shard in shards))
        shard_bytes = sum(shard.path.stat().st_size for shard in shards)
        shutil.rmtree(out_dir, ignore_errors=True)
        ok = sum(1 for record_ok, _, _ in records if record_ok)
        base = self.campaign.base_config
        return PassRecord(
            wall_s=wall,
            requests=len(records),
            failed=len(records) - ok,
            particle_steps=ok * base.n_particles * base.n_steps,
            latencies_s=[timings["wall_s"] for _, _, timings in records],
            timings=[timings for _, _, timings in records],
            cache_hits=sum(hit for _, hit, _ in records),
            batch_sizes=histogram,
            shard_bytes=shard_bytes,
            max_inflight_runs=stream.stats["max_inflight_runs"],
        )

    def checks(self) -> "list[Check]":
        expected = self.campaign.n_samples
        hashes_ok = all(self.manifest_ok)
        stable = all(h == self.shard_hashes[0] for h in self.shard_hashes)
        counts_ok = all(n == expected for n in self.sample_counts)
        return [
            Check("shard_sha256_matches_manifest", hashes_ok, str(hashes_ok), "every shard"),
            Check("shard_hashes_stable", stable, str(stable), "identical across passes"),
            Check("samples", counts_ok, min(self.sample_counts, default=0),
                  f"== {expected} per pass"),
        ]

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


#: Name -> workload class, in the order BENCHMARK.json lists them.
WORKLOADS = {
    cls.name: cls
    for cls in (PicPaper, DlPaper, ServeMixed, CampaignStreamWorkload)
}


def make_workload(name: str, seed: int, work_dir: "str | Path", **sizes):
    """Build the named workload (``work_dir`` is used by campaign_stream)."""
    cls = WORKLOADS[name]
    if cls is CampaignStreamWorkload:
        return cls(seed, work_dir, **sizes)
    return cls(seed, **sizes)
