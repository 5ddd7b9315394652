"""Parallel experiment orchestration: fan out shard ranges, merge stores.

``run_parallel`` partitions the scenario into more ranges than workers
(``policy.fanout`` per worker), submits them to an elastic executor
(:mod:`repro.parallel.executors`) driven by the failure-aware scheduler
(:mod:`repro.parallel.scheduler`), and streams completed frozen shards
into the merge (:class:`~repro.store.merge.StreamingMerge`).  The result
is bit-identical to a serial run — and, by the same construction, to a
chaos run with injected crashes, hangs and corrupted payloads: per-shard
bytes are a pure function of ``(config, range)``, merge keys reproduce
the serial ingest order, and the merge re-blocks purely by record
sequence, so neither worker count, executor kind, completion order nor
retry history can perturb the final store.

Executor selection: ``auto`` prefers fork and falls back to spawn;
platforms without fork get real multi-process execution rather than the
old silent serial fallback.  The single-range case (and ``workers=1``)
still short-circuits to the in-process serial path.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs import get_registry
from repro.parallel.executors import make_executor
from repro.parallel.executors import fork_available as _pool_fork_available
from repro.parallel.executors.base import ShardTask
from repro.parallel.scheduler import ExecutorPolicy, ShardScheduler
from repro.parallel.sharding import partition_samples
from repro.parallel.worker import ShardRun, _run_shard_task  # noqa: F401  (re-export)
from repro.store.cache import DEFAULT_CACHE_BYTES
from repro.store.merge import (
    FrozenMonth,
    FrozenShard,
    MergeStats,
    StreamingMerge,
    concat_frozen,
)
from repro.store.reportstore import ReportStore
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig
from repro.vt.engines import EngineFleet, default_fleet


def fork_available() -> bool:
    """Whether this platform supports fork-based worker processes.

    Kept as a module-level indirection (rather than importing the
    executors' copy directly into callers) so tests can monkeypatch
    ``runner.fork_available`` to simulate fork-less platforms.
    """
    return _pool_fork_available()


def coerce_policy(executor) -> ExecutorPolicy:
    """Accept ``None`` / a kind string / a full policy, uniformly."""
    if executor is None:
        return ExecutorPolicy()
    if isinstance(executor, ExecutorPolicy):
        return executor
    if isinstance(executor, str):
        return ExecutorPolicy(kind=executor)
    raise ConfigError(
        f"executor must be None, a kind string or an ExecutorPolicy, "
        f"got {type(executor).__name__}")


def frozen_shard_of(run: ShardRun, shas: list[str]) -> FrozenShard:
    """Repackage one worker's result for the merge.

    The merge key shipped by workers is ``(scan_time, global index)``;
    the sample hash for the index is recomputed by the driver (it is a
    pure function of ``(seed, index)``), which keeps worker payloads
    free of 64-byte hash strings for every record.
    """
    months = {}
    for month, sm in run.months.items():
        months[month] = FrozenMonth(
            blocks=sm.compressed_blocks(),
            report_count=sm.report_count,
            verbose_bytes=sm.verbose_bytes,
            encoded_bytes=sm.encoded_bytes,
            keys=sm.keys,
            shas=[shas[index] for _, index in sm.keys],
            scan_times=[when for when, _ in sm.keys],
        )
    return FrozenShard(months=months, sample_meta=run.sample_meta)


def merge_shard_runs(
    config: ScenarioConfig, runs: list[ShardRun], metrics=None
) -> tuple[ReportStore, MergeStats]:
    """Merge worker results into one sealed store in serial ingest order."""
    generator = PopulationGenerator(config)
    shas = [generator.sha_for(i) for i in range(config.n_samples)]
    sources = [frozen_shard_of(run, shas)
               for run in sorted(runs, key=lambda r: r.shard_index)]
    cache_bytes = (config.store_cache_bytes
                   if config.store_cache_bytes is not None
                   else DEFAULT_CACHE_BYTES)
    return concat_frozen(sources, block_records=config.block_records,
                         cache_bytes=cache_bytes, metrics=metrics)


def run_parallel(
    config: ScenarioConfig,
    fleet: EngineFleet | None = None,
    workers: int = 2,
    metrics=None,
    executor=None,
):
    """Run one scenario across ``workers`` processes; returns the data.

    ``executor`` is ``None``, an executor kind string (``auto``,
    ``in-process``, ``fork``, ``spawn``) or a full
    :class:`~repro.parallel.scheduler.ExecutorPolicy` (fan-out,
    heartbeat deadline, retry budget, chaos plan).

    The returned :class:`~repro.analysis.experiment.ExperimentData` has
    ``service=None`` — worker services die with their processes, and no
    analysis pipeline needs a live service (the CLI's load-from-store
    path already runs without one).  Callers that need the service (e.g.
    the snapshot-campaign comparison) run serially.

    With an enabled ``metrics`` registry each worker records into its
    own registry and ships a snapshot; the snapshots are folded into
    ``metrics`` in shard order and the merged store's whole-run gauges
    are published, so the final export is byte-identical to a serial
    run's (the metric side of the equivalence gate).  Scheduling
    telemetry — retries, steals, lost workers, heartbeat lag — goes to
    the process-wide registry instead, via
    :meth:`~repro.parallel.scheduler.ExecutorReport.publish`.
    """
    from repro.analysis.experiment import ExperimentData, run_experiment

    policy = coerce_policy(executor)
    kind = policy.kind
    if kind == "auto":
        kind = "fork" if fork_available() else "spawn"
    elif kind == "fork" and not fork_available():
        raise ConfigError("executor kind 'fork' is unavailable on this "
                          "platform; use 'spawn' or 'auto'")

    ranges = [s for s in partition_samples(config.n_samples,
                                           workers * policy.fanout)
              if s.size]
    if len(ranges) <= 1:
        return run_experiment(config, fleet=fleet, workers=1,
                              metrics=metrics)
    workers_started = min(workers, len(ranges))

    with_metrics = metrics is not None and metrics.enabled
    tasks = [
        ShardTask(key=f"shard-{shard.shard_index:03d}", shard=shard,
                  attempt=0, config=config, fleet=fleet,
                  with_metrics=with_metrics, plan=policy.fault_plan)
        for shard in ranges
    ]

    generator = PopulationGenerator(config)
    shas = [generator.sha_for(i) for i in range(config.n_samples)]
    cache_bytes = (config.store_cache_bytes
                   if config.store_cache_bytes is not None
                   else DEFAULT_CACHE_BYTES)
    streaming = StreamingMerge(block_records=config.block_records,
                               cache_bytes=cache_bytes, metrics=metrics)
    snapshots: dict[int, object] = {}
    events_total = 0

    def on_result(run: ShardRun) -> None:
        nonlocal events_total
        events_total += run.events_executed
        if with_metrics and run.metrics is not None:
            snapshots[run.shard_index] = run.metrics
        streaming.add(frozen_shard_of(run, shas))

    engine = make_executor(
        kind, heartbeat_interval=policy.effective_heartbeat_interval)
    scheduler = ShardScheduler(engine, policy, tasks, on_result)
    report = scheduler.run(workers_started)

    if with_metrics:
        for shard_index in sorted(snapshots):
            metrics.merge(snapshots[shard_index])
    store, merge_stats = streaming.finish()
    store.publish_metrics()
    report.publish(get_registry())
    return ExperimentData(
        config=config,
        fleet=fleet if fleet is not None else default_fleet(config.seed),
        service=None,
        store=store,
        events_executed=events_total,
        workers=workers_started,
        merge_stats=merge_stats,
        metrics=metrics,
        executor_report=report,
    )
