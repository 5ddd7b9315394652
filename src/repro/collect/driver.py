"""Scenario driver for the resilient collector.

:func:`run_collection` is the chaos-capable sibling of
:func:`repro.analysis.experiment.run_experiment`: it generates the same
deterministic population and replays the same submission/rescan events,
but consumes the feed through a :class:`~repro.collect.collector.FeedCollector`
stepping minute by minute — optionally with a
:class:`~repro.faults.FaultPlan` injecting failures along the way.

Crash/resume is modelled faithfully: ``stop_at`` kills a run after a
given minute *without* flushing (only what the collector persisted on
its own cadence survives), and a second call with ``resume_from`` loads
the store snapshot + checkpoint, deterministically re-executes the
simulation up to the resume point with the feed detached (the service is
server-side state a collector crash never touches), and lets the
collector detect and backfill whatever the dead process lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.collect.backoff import BackoffPolicy
from repro.collect.checkpoint import load_checkpoint
from repro.collect.collector import CollectorStats, FeedCollector
from repro.errors import CheckpointError
from repro.faults import ChaosFeed, FaultPlan, chaos_wrap
from repro.store.reportstore import ReportStore
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig
from repro.vt.api import VTClient
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.feed import (
    DEFAULT_ARCHIVE_RETENTION_MINUTES,
    FeedArchive,
    PremiumFeed,
)
from repro.vt.service import VirusTotalService

#: Default checkpoint cadence: once per simulated day.
DEFAULT_PERSIST_EVERY = 24 * 60


@dataclass(frozen=True)
class CollectionPaths:
    """Well-known file layout inside a collection working directory."""

    root: Path

    @property
    def store(self) -> Path:
        return self.root / "store.rpr"

    @property
    def checkpoint(self) -> Path:
        return self.root / "checkpoint.json"

    @property
    def deadletters(self) -> Path:
        return self.root / "deadletters.jsonl"


@dataclass
class CollectionResult:
    """Everything a test or analysis needs from one collection run."""

    config: ScenarioConfig
    plan: FaultPlan | None
    service: VirusTotalService
    archive: FeedArchive
    store: ReportStore
    collector: FeedCollector
    chaos_feed: ChaosFeed | None
    crashed: bool
    paths: CollectionPaths | None

    @property
    def stats(self) -> CollectorStats:
        return self.collector.stats()


def collection_paths(out_dir: str | Path) -> CollectionPaths:
    return CollectionPaths(Path(out_dir))


def auto_resume_minute(out_dir: str | Path) -> int:
    """The minute a crashed run in ``out_dir`` should resume from."""
    paths = collection_paths(out_dir)
    if not paths.checkpoint.exists():
        raise CheckpointError(f"no checkpoint to resume from in {paths.root}")
    return load_checkpoint(paths.checkpoint).last_minute + 1


def run_collection(
    config: ScenarioConfig,
    *,
    plan: FaultPlan | None = None,
    fleet: EngineFleet | None = None,
    out_dir: str | Path | None = None,
    persist_every: int | None = DEFAULT_PERSIST_EVERY,
    resume_from: int | None = None,
    stop_at: int | None = None,
    until_minute: int | None = None,
    archive_retention: int = DEFAULT_ARCHIVE_RETENTION_MINUTES,
    backoff: BackoffPolicy | None = None,
    metrics=None,
) -> CollectionResult:
    """Run one scenario through the resilient collection pipeline.

    ``plan`` defaults to ``config.fault_plan``; ``None``/disabled means
    the chaos layer is bypassed entirely (the collector drives the raw
    objects).  ``until_minute`` truncates the simulation horizon — handy
    for tests that only need the first weeks of the window.  ``stop_at``
    simulates a crash: the run returns (``crashed=True``) right after
    stepping that minute, without the final backfill/persist.
    ``resume_from`` continues a crashed run from its ``out_dir``; use
    :func:`auto_resume_minute` to pick the minute after the checkpoint.
    ``metrics`` threads one registry through the service, store,
    collector and chaos wrappers.
    """
    if plan is None:
        plan = config.fault_plan
    paths = collection_paths(out_dir) if out_dir is not None else None
    if resume_from is not None:
        if paths is None:
            raise CheckpointError("resume requires out_dir")
        if not paths.checkpoint.exists() or not paths.store.exists():
            raise CheckpointError(
                f"cannot resume: missing checkpoint or store snapshot "
                f"in {paths.root}"
            )
    elif paths is not None:
        # A fresh run owns its working directory: stale state from a
        # previous run must not be mistaken for something to resume.
        paths.root.mkdir(parents=True, exist_ok=True)
        paths.checkpoint.unlink(missing_ok=True)
        paths.deadletters.unlink(missing_ok=True)

    if fleet is None:
        fleet = default_fleet(config.seed)
    service = VirusTotalService(fleet=fleet, params=config.behavior,
                                seed=config.seed, metrics=metrics)
    archive = FeedArchive(service, retention_minutes=archive_retention)
    feed = PremiumFeed(service)
    if resume_from is not None:
        store = ReportStore.load(paths.store, reopen=True, metrics=metrics)
    else:
        store_kwargs = {"block_records": config.block_records}
        if config.store_cache_bytes is not None:
            store_kwargs["cache_bytes"] = config.store_cache_bytes
        store = ReportStore(metrics=metrics, **store_kwargs)
    client = VTClient(service, premium=True, archive=archive)

    try:
        cfeed, cstore, cclient = chaos_wrap(feed, store, client, plan,
                                            metrics=metrics)
        collector = FeedCollector(
            cfeed,
            cstore,
            cclient,
            checkpoint_path=paths.checkpoint if paths else None,
            store_path=paths.store if paths else None,
            deadletter_path=paths.deadletters if paths else None,
            backoff=backoff,
            persist_every=persist_every if paths else None,
            seed=config.seed,
            metrics=metrics,
        )

        # Same deterministic population + event schedule as run_experiment.
        generator = PopulationGenerator(config)
        # Register clones: the service applies the pre-window submission
        # backfill at registration time, and the generator's spec objects
        # stay pristine for any later re-run from the same specs.
        samples: list = []
        events: list[tuple[int, int, int]] = []
        for sample_idx, spec in enumerate(generator):
            sample = spec.sample.clone()
            service.register(sample)
            samples.append(sample)
            for ordinal, when in enumerate(spec.scan_times):
                events.append((when, sample_idx, ordinal))
        events.sort()

        end = (events[-1][0] + 1) if events else 0
        if until_minute is not None:
            end = min(end, until_minute)
        start = resume_from if resume_from is not None else 0

        crashed = False
        archive.attach()
        try:
            idx = 0
            n_events = len(events)
            for minute in range(end):
                if minute == start:
                    # The collector's live subscription begins here; earlier
                    # minutes are re-executed server-side only (resume path).
                    feed.attach()
                while idx < n_events and events[idx][0] == minute:
                    _, sample_idx, ordinal = events[idx]
                    sample = samples[sample_idx]
                    if ordinal == 0 and sample.fresh:
                        service.upload(sample, minute)
                    else:
                        service.rescan(sample.sha256, minute)
                    idx += 1
                if minute >= start:
                    collector.step(minute)
                    if stop_at is not None and minute >= stop_at:
                        crashed = True  # simulated crash: no finalize/flush
                        break
            if not crashed:
                collector.finalize()
        finally:
            feed.detach()
            archive.detach()
    except BaseException:
        # A simulated crash (stop_at) exits normally via `crashed`;
        # a real exception abandons the run, so release the store
        # (resume-loaded or fresh) before propagating.
        store.close()
        raise

    return CollectionResult(
        config=config,
        plan=plan,
        service=service,
        archive=archive,
        store=cstore.wrapped if hasattr(cstore, "wrapped") else cstore,
        collector=collector,
        chaos_feed=cfeed if isinstance(cfeed, ChaosFeed) else None,
        crashed=crashed,
        paths=paths,
    )
