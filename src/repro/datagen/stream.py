"""Streaming data campaigns: bounded-memory, sharded, resumable.

:class:`CampaignStream` rebuilds the materializing harvest of
``repro.datagen.campaign`` as a producer/consumer pipeline:

* the **producer** submits each shard's runs as public-API
  :class:`~repro.api.RunRequest` batches through a background
  :class:`~repro.api.Client` (so micro-batching, the executor pool and
  the result store all apply), keeping at most ``prefetch_depth``
  shards in flight;
* the **consumer** iterates completed shards head-of-line: each shard's
  results are assembled into a :class:`FieldDataset` via the same
  :func:`~repro.datagen.campaign.dataset_from_result` path the
  materializing harvest uses (bitwise interchangeable by construction),
  written to ``shard-00042.npz`` through a temp file + ``os.replace``,
  content-hashed, recorded in the ``manifest.json`` and yielded.

Peak memory is bounded by ``shard_size × prefetch_depth`` runs —
campaign size never enters the bound.  A killed campaign restarts from
its manifest: durable shards are verified by file hash and adopted
without recomputation, truncated/corrupt/missing shards are
re-requested (status ``repaired``), and the repaired output is bitwise
identical to an uninterrupted run because every run's content is fixed
by its config + seed, independent of batch composition.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.config import SimulationConfig
from repro.datagen.campaign import (
    CampaignConfig,
    _ensemble_size,
    _harvest_observables,
    dataset_from_result,
)
from repro.datagen.dataset import FieldDataset
from repro.obs.metrics import CAMPAIGN_SHARDS
from repro.obs.trace import NOOP_TRACER
from repro.utils.io import atomic_write, sha256_file

if TYPE_CHECKING:
    from repro.api.client import Client

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def campaign_hash(campaign: CampaignConfig, shard_size: int) -> str:
    """Content identity of a sharded campaign (sweep + shard plan)."""
    payload = {
        "campaign": campaign.to_canonical_dict(),
        "shard_size": int(shard_size),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """One shard of the deterministic run plan."""

    index: int
    start: int  # index of the shard's first run in spec order
    configs: "tuple[SimulationConfig, ...]"

    @property
    def n_runs(self) -> int:
        return len(self.configs)

    @property
    def filename(self) -> str:
        return f"shard-{self.index:05d}.npz"


@dataclass
class CompletedShard:
    """A durable shard the stream has yielded.

    ``status`` is ``"executed"`` (ran through the client this session),
    ``"verified"`` (an intact shard adopted from a previous session —
    its data stays on disk, call :meth:`load` to read it) or
    ``"repaired"`` (a corrupt/missing shard that was re-executed).
    ``dataset`` holds the in-memory pairs only for shards executed this
    session; verified shards keep the memory bound by not reloading.
    """

    index: int
    path: Path
    sha256: str
    n_runs: int
    n_samples: int
    status: str
    dataset: "FieldDataset | None" = field(default=None, repr=False)

    def load(self) -> FieldDataset:
        """The shard's pairs (from memory if executed, else from disk)."""
        if self.dataset is not None:
            return self.dataset
        return FieldDataset.load(self.path)


class CampaignStream:
    """Producer/consumer pipeline over a sharded data campaign.

    Parameters
    ----------
    campaign:
        The sweep to run.
    out_dir:
        Directory receiving ``shard-*.npz`` + ``manifest.json``.
    shard_size:
        Runs per shard (the yield granularity).
    prefetch_depth:
        Maximum shards in flight at once; together with ``shard_size``
        this bounds peak memory at ``shard_size × prefetch_depth`` runs.
    client:
        An existing :class:`~repro.api.Client` to submit through (kept
        open).  By default the stream owns a background client sized to
        the campaign (``workers``/``max_batch_size`` apply only then).
    workers:
        Executor parallelism of the owned client (``N > 1`` shards
        compatibility groups across spawned worker processes).
    max_batch_size:
        Micro-batch bound of the owned client; defaults to the
        campaign's particle-budget chunk (the materializing harvest's
        ensembles), capped at ``shard_size``.
    resume:
        Verify and adopt durable shards from an existing manifest
        (default).  ``resume=False`` ignores (and overwrites) any
        previous progress.

    Iterating the stream yields one :class:`CompletedShard` per shard,
    in plan order; ``stats`` accumulates shard/run accounting
    (``max_inflight_runs`` is the observed memory bound).
    """

    def __init__(
        self,
        campaign: CampaignConfig,
        out_dir: "str | os.PathLike[str]",
        *,
        shard_size: int = 8,
        prefetch_depth: int = 2,
        client: "Client | None" = None,
        workers: int = 1,
        max_batch_size: "int | None" = None,
        resume: bool = True,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if prefetch_depth < 1:
            raise ValueError(f"prefetch_depth must be >= 1, got {prefetch_depth}")
        self.campaign = campaign
        self.out_dir = Path(out_dir)
        self.shard_size = shard_size
        self.prefetch_depth = prefetch_depth
        self.resume = resume
        self._client = client
        self._owns_client = client is None
        self._workers = workers
        if max_batch_size is None:
            chunk = _ensemble_size(campaign.base_config.n_particles, campaign.n_simulations)
            max_batch_size = min(shard_size, chunk)
        self._max_batch_size = max_batch_size
        self.campaign_hash = campaign_hash(campaign, shard_size)
        self.stats = {
            "shards_total": len(self.plan()),
            "shards_executed": 0,
            "shards_verified": 0,
            "shards_repaired": 0,
            "runs_executed": 0,
            "runs_skipped": 0,
            "inflight_runs": 0,
            "max_inflight_runs": 0,
        }

    # -- the plan ---------------------------------------------------------
    def plan(self) -> "list[ShardSpec]":
        """The deterministic shard plan (spec order, fixed shard size)."""
        configs = self.campaign.run_configs()
        return [
            ShardSpec(
                index=i,
                start=start,
                configs=tuple(configs[start:start + self.shard_size]),
            )
            for i, start in enumerate(range(0, len(configs), self.shard_size))
        ]

    # -- manifest ---------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.out_dir / MANIFEST_NAME

    def _load_manifest(self) -> dict:
        """Read (or initialize) the manifest, checking campaign identity."""
        if self.resume and self.manifest_path.exists():
            try:
                manifest = json.loads(self.manifest_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(
                    f"unreadable campaign manifest {self.manifest_path}: {exc}; "
                    f"pass resume=False to start over"
                ) from None
            found = manifest.get("campaign_hash")
            if found != self.campaign_hash:
                raise ValueError(
                    f"manifest in {self.out_dir} belongs to a different campaign "
                    f"(hash {str(found)[:12]}... != {self.campaign_hash[:12]}...); "
                    f"use a fresh out_dir or pass resume=False to overwrite"
                )
            manifest.setdefault("shards", {})
            return manifest
        return {
            "version": MANIFEST_VERSION,
            "campaign_hash": self.campaign_hash,
            "campaign": self.campaign.to_canonical_dict(),
            "shard_size": self.shard_size,
            "n_shards": len(self.plan()),
            "shards": {},
        }

    def _write_manifest(self, manifest: dict) -> None:
        """Atomically replace the manifest (temp file + ``os.replace``)."""
        text = json.dumps(manifest, indent=2)
        atomic_write(self.manifest_path, lambda tmp: tmp.write_text(text))

    def _verify_durable(self, spec: ShardSpec, manifest: dict) -> "CompletedShard | None":
        """Adopt an intact durable shard; ``None`` means re-execute."""
        entry = manifest["shards"].get(str(spec.index))
        if entry is None:
            return None
        path = self.out_dir / entry.get("file", spec.filename)
        if not path.exists() or sha256_file(path) != entry.get("sha256"):
            return None  # truncated, corrupt or deleted — re-request
        return CompletedShard(
            index=spec.index,
            path=path,
            sha256=entry["sha256"],
            n_runs=int(entry.get("n_runs", spec.n_runs)),
            n_samples=int(entry.get("n_samples", 0)),
            status="verified",
        )

    # -- execution --------------------------------------------------------
    def _make_client(self) -> "Client":
        from repro.api.client import Client
        from repro.service.store import ResultStore

        # Background mode: prefetched shards execute on the service
        # worker while the consumer assembles/writes the head shard.
        # Campaign outputs are huge and single-use — store disabled.
        return Client(
            background=True,
            max_batch_size=self._max_batch_size,
            max_wait=0.005,
            store=ResultStore(capacity=0),
            workers=self._workers,
        )

    def _submit_shard(self, client: "Client", spec: ShardSpec) -> list:
        """File one shard's run requests (does not wait)."""
        from repro.api.envelope import RunRequest

        selection = _harvest_observables(self.campaign.ps_grid, self.campaign.binning)
        futures = [
            client.submit(
                RunRequest(
                    config=cfg.with_updates(solver="traditional"),
                    id=f"campaign-{spec.index:05d}-{row}",
                    observables=selection,
                )
            )
            for row, cfg in enumerate(spec.configs)
        ]
        self.stats["inflight_runs"] += spec.n_runs
        self.stats["max_inflight_runs"] = max(
            self.stats["max_inflight_runs"], self.stats["inflight_runs"]
        )
        return futures

    def _write_shard(
        self, spec: ShardSpec, dataset: FieldDataset, manifest: dict, status: str
    ) -> CompletedShard:
        """Durably publish one executed shard and record it."""
        path = self.out_dir / spec.filename
        atomic_write(path, dataset.save)
        digest = sha256_file(path)
        manifest["shards"][str(spec.index)] = {
            "file": spec.filename,
            "sha256": digest,
            "n_runs": spec.n_runs,
            "n_samples": len(dataset),
        }
        self._write_manifest(manifest)
        return CompletedShard(
            index=spec.index,
            path=path,
            sha256=digest,
            n_runs=spec.n_runs,
            n_samples=len(dataset),
            status=status,
            dataset=dataset,
        )

    def __iter__(self) -> "Iterator[CompletedShard]":
        """Yield every shard in plan order, executing what is missing."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = self._load_manifest()
        self._write_manifest(manifest)  # durable before the first run
        plan = self.plan()
        client = self._client if self._client is not None else self._make_client()
        service = getattr(getattr(client, "transport", None), "service", None)
        tracer = getattr(service, "tracer", NOOP_TRACER)
        trace = tracer.start_trace("campaign") if tracer.enabled else None
        try:
            # (spec, adopted | None, futures | None, recorded): at most
            # prefetch_depth entries holding result data at any moment.
            inflight: "deque[tuple[ShardSpec, CompletedShard | None, list | None, bool]]"
            inflight = deque()
            next_index = 0
            while next_index < len(plan) or inflight:
                while next_index < len(plan) and len(inflight) < self.prefetch_depth:
                    spec = plan[next_index]
                    next_index += 1
                    recorded = str(spec.index) in manifest["shards"]
                    durable = self._verify_durable(spec, manifest)
                    if durable is not None:
                        inflight.append((spec, durable, None, recorded))
                    else:
                        inflight.append(
                            (spec, None, self._submit_shard(client, spec), recorded)
                        )
                spec, durable, futures, recorded = inflight.popleft()
                span = trace.start_span("campaign.shard") if trace else None
                if durable is not None:
                    self.stats["shards_verified"] += 1
                    self.stats["runs_skipped"] += durable.n_runs
                    CAMPAIGN_SHARDS.inc(status="verified")
                    shard = durable
                else:
                    results = [f.result() for f in futures]
                    for result in results:
                        result.raise_for_status()
                    dataset = FieldDataset.concatenate([
                        dataset_from_result(
                            cfg,
                            result,
                            self.campaign.ps_grid,
                            self.campaign.include_initial_state,
                        )
                        for cfg, result in zip(spec.configs, results)
                    ])
                    # A shard the manifest recorded but that failed hash
                    # verification was lost/corrupt: that re-execution is
                    # a repair; never-recorded shards are first runs.
                    status = "repaired" if recorded else "executed"
                    shard = self._write_shard(spec, dataset, manifest, status)
                    self.stats["inflight_runs"] -= spec.n_runs
                    self.stats[f"shards_{status}"] += 1
                    self.stats["runs_executed"] += spec.n_runs
                    CAMPAIGN_SHARDS.inc(status=status)
                if span:
                    span.set_attribute("shard", spec.index)
                    span.set_attribute("status", shard.status)
                    span.set_attribute("n_runs", shard.n_runs)
                    span.finish()
                yield shard
        finally:
            if trace:
                trace.finish()
            if self._owns_client:
                client.close()

    # -- conveniences -----------------------------------------------------
    def run(self) -> "dict[str, object]":
        """Drive the stream to completion; returns the stats snapshot."""
        for _ in self:
            pass
        return dict(self.stats)

    def dataset(self) -> FieldDataset:
        """Run (or resume) the campaign and concatenate every shard.

        This is the materializing endpoint — the result is bitwise
        identical to :func:`~repro.datagen.campaign.run_campaign` on
        the same campaign, whatever mix of executed/verified/repaired
        shards produced it.
        """
        return FieldDataset.concatenate([shard.load() for shard in self])

    def status(self) -> "dict[str, object]":
        """Progress summary from the durable manifest (no execution)."""
        plan = self.plan()
        manifest: dict = {"shards": {}}
        if self.manifest_path.exists():
            manifest = self._load_manifest()
        done = intact = 0
        for spec in plan:
            entry = manifest["shards"].get(str(spec.index))
            if entry is None:
                continue
            done += 1
            if self._verify_durable(spec, manifest) is not None:
                intact += 1
        return {
            "out_dir": str(self.out_dir),
            "campaign_hash": self.campaign_hash,
            "n_shards": len(plan),
            "shards_recorded": done,
            "shards_intact": intact,
            "shards_missing": len(plan) - intact,
            "n_runs": self.campaign.n_simulations,
            "complete": intact == len(plan),
        }

