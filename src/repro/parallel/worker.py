"""The per-shard generate→scan→ingest loop.

:func:`execute_range` is the single implementation of the experiment
event loop: the serial runner calls it over ``[0, n_samples)`` in
process, and each parallel worker calls it over its shard's range with
its own :class:`~repro.vt.service.VirusTotalService`, engine fleet and
:class:`~repro.store.reportstore.ReportStore`.  Both paths replay the
shard's scan events in global time order, so every sample's per-scan RNG
stream advances exactly as it would in a serial run — per-report bytes
are identical by construction.

:func:`run_shard` wraps ``execute_range`` for a worker process: it runs
the shard, freezes the store, and repackages it as a picklable
:class:`ShardRun`: per month, the compressed blocks plus one ``<i8``
array of each record's global sample index, which with the blocks' own
scan times is all the driver's merge needs to restore serial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import NULL_REGISTRY, MetricsRegistry, MetricsSnapshot
from repro.parallel.sharding import ShardSpec
from repro.store.merge import FrozenMonth
from repro.store.reportstore import ReportStore
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig
from repro.vt.clock import month_index
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.feed import PremiumFeed
from repro.vt.service import VirusTotalService

#: Drain the feed into the store every this many scan events.
FEED_DRAIN_EVERY = 10_000

#: Invoke the caller's progress callback every this many scan events.
#: Cheap relative to a scan (one callable invocation per 64 events, and
#: the heartbeat emitter behind it throttles to one clock read per
#: call); small enough that even short shards beat a few times.
PROGRESS_EVERY = 64

@dataclass
class RangeRun:
    """Everything one in-process event-loop execution produced."""

    service: VirusTotalService
    fleet: EngineFleet
    store: ReportStore
    events_executed: int
    #: Per-month global sample index of every ingested record, in
    #: ingest order.
    keys_by_month: dict[int, list[int]] = field(repr=False)


@dataclass
class ShardRun:
    """A worker's result: its frozen months, ready for the merge."""

    shard_index: int
    months: dict[int, FrozenMonth]
    events_executed: int
    report_count: int
    #: Snapshot of the worker's metrics registry (None when the driver
    #: ran without observability).  Folded into the parent registry in
    #: shard order; merge commutativity makes the order irrelevant.
    metrics: MetricsSnapshot | None = None


def execute_range(
    config: ScenarioConfig,
    start: int,
    stop: int,
    fleet: EngineFleet | None = None,
    collect_keys: bool = False,
    metrics=None,
    progress=None,
) -> RangeRun:
    """Generate, scan and store samples ``[start, stop)`` of the scenario.

    Registers a *clone* of every generated sample, so the generator's
    spec objects are never mutated (the pre-window submission backfill
    happens at registration time, on the clone).  With ``collect_keys``
    each record's global sample index is recorded alongside ingest — the
    worker path; the serial path skips the bookkeeping.

    ``metrics`` is handed to the service and the store.  Everything this
    loop records is per-sample work (partition-invariant), so the merged
    registries of a sharded run reproduce the serial registry exactly.

    ``progress`` (optional zero-arg callable) is invoked every
    ``PROGRESS_EVERY`` events.  It must not affect simulation state: the
    executor layer hangs throttled heartbeat emission off it.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    if fleet is None:
        fleet = default_fleet(config.seed)
    service = VirusTotalService(fleet=fleet, params=config.behavior,
                                seed=config.seed, metrics=metrics)
    store_kwargs = {"block_records": config.block_records}
    if config.store_cache_bytes is not None:
        store_kwargs["cache_bytes"] = config.store_cache_bytes
    store = ReportStore(metrics=metrics, **store_kwargs)
    feed = PremiumFeed(service)
    m_events = metrics.counter("run.events.total")

    generator = PopulationGenerator(config)
    samples = {}
    events: list[tuple[int, int, int]] = []
    for index, spec in generator.iter_range(start, stop):
        sample = spec.sample.clone()
        service.register(sample)
        samples[index] = sample
        for ordinal, when in enumerate(spec.scan_times):
            events.append((when, index, ordinal))
    events.sort()

    keys_by_month: dict[int, list[int]] = {}
    executed = 0
    with feed:
        for when, index, ordinal in events:
            sample = samples[index]
            if ordinal == 0 and sample.fresh:
                service.upload(sample, when)
            else:
                service.rescan(sample, when)
            if collect_keys:
                keys_by_month.setdefault(month_index(when), []).append(index)
            executed += 1
            m_events.inc()
            if progress is not None and executed % PROGRESS_EVERY == 0:
                progress()
            if executed % FEED_DRAIN_EVERY == 0:
                store.ingest_batch(feed.poll())
        store.ingest_batch(feed.poll())
    store.close()

    return RangeRun(service=service, fleet=fleet, store=store,
                    events_executed=executed, keys_by_month=keys_by_month)


def run_shard(
    config: ScenarioConfig,
    shard: ShardSpec,
    fleet: EngineFleet | None = None,
    with_metrics: bool = False,
    progress=None,
) -> ShardRun:
    """Execute one shard and package the frozen store for the driver.

    With ``with_metrics`` the shard records into its own fresh registry
    and ships the picklable snapshot back with the result.
    """
    registry = MetricsRegistry() if with_metrics else None
    run = execute_range(config, shard.start, shard.stop, fleet=fleet,
                        collect_keys=True, metrics=registry,
                        progress=progress)
    months = {
        month: FrozenMonth(
            blocks=list(mshard.blocks),
            keys=np.asarray(run.keys_by_month.get(month, []), "<i8"),
        )
        for month, mshard in run.store.shards.items()
    }
    return ShardRun(
        shard_index=shard.shard_index,
        months=months,
        events_executed=run.events_executed,
        report_count=run.store.report_count,
        metrics=registry.snapshot() if registry is not None else None,
    )
