"""Deterministic sharded parallel execution of scenario experiments.

The serial experiment loop simulates every scan on one core.  This
package partitions a scenario's sample population into contiguous index
ranges — finer-grained than the worker count — and drives them through a
fault-tolerant elastic executor, merging the frozen shard stores back
into one **bit-identically** to the serial run:

* every sample's randomness is keyed by its global index and hash, so a
  shard's reports do not depend on the partition, on scheduling, or on
  which worker ran it (:mod:`repro.parallel.sharding`);
* each worker replays its shard's events in global time order, so
  per-sample RNG streams advance exactly as serially
  (:mod:`repro.parallel.worker`);
* workers live behind a pluggable :class:`~repro.parallel.executors.base.Executor`
  (in-process | fork | spawn) and a work-queue scheduler with
  heartbeats, work-stealing, bounded keyed-backoff retries and
  per-shard digest checkpoints (:mod:`repro.parallel.executors`,
  :mod:`repro.parallel.scheduler`, :mod:`repro.parallel.heartbeat`);
* completed shards are collected as they finish; once the last is in,
  the merge sorts each month's records once by ``(scan_time,
  global_sample_index)`` — the serial ingest order — and re-blocks them
  through the serial freeze path (:mod:`repro.store.merge`).

The equivalence contract: ``run_experiment(config, workers=K)`` yields a
store whose :meth:`~repro.store.reportstore.ReportStore.digest` equals
the serial run's, for every K, every executor kind — and under any
injected crash/hang/corruption chaos the retry budget survives.
"""

from repro.parallel.executors import (
    EXECUTOR_KINDS,
    fork_available,
    make_executor,
    resolve_kind,
)
from repro.parallel.scheduler import ExecutorPolicy, ExecutorReport, ShardScheduler
from repro.parallel.sharding import ShardSpec, partition_samples, resolve_workers
from repro.parallel.worker import RangeRun, ShardRun, execute_range, run_shard

__all__ = [
    "EXECUTOR_KINDS",
    "ExecutorPolicy",
    "ExecutorReport",
    "RangeRun",
    "ShardRun",
    "ShardScheduler",
    "ShardSpec",
    "execute_range",
    "fork_available",
    "make_executor",
    "partition_samples",
    "resolve_kind",
    "resolve_workers",
    "run_shard",
]
