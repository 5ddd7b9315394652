"""The elastic executor layer: policy, kinds, streaming merge, reports.

The chaos-free half of the executor test surface: configuration
validation, kind resolution and fallback, the ``REPRO_MAX_WORKERS``
worker cap, streaming-merge equivalence, report telemetry, and the
executor × workers digest-equivalence property.  Fault injection lives
in ``tests/test_executor_chaos.py``.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiment import run_experiment
from repro.errors import ConfigError
from repro.faults import ExecutorFaultPlan, hashed_fraction
from repro.obs import MetricsRegistry
from repro.parallel import (
    EXECUTOR_KINDS,
    ExecutorPolicy,
    ExecutorReport,
    make_executor,
    resolve_kind,
)
from repro.parallel.executors import InProcessExecutor, ProcessExecutor
from repro.parallel.runner import coerce_policy, frozen_shard_of
from repro.parallel.sharding import (
    MAX_WORKERS_ENV,
    partition_samples,
    resolve_workers,
)
from repro.parallel.worker import run_shard
from repro.store import merge
from repro.store.merge import StreamingMerge
from repro.synth.scenario import tiny_scenario


# ----------------------------------------------------------------------
# ExecutorPolicy
# ----------------------------------------------------------------------


class TestExecutorPolicy:
    def test_defaults(self):
        policy = ExecutorPolicy()
        assert policy.kind == "auto"
        assert policy.fanout == 4
        assert policy.max_attempts == 4
        assert policy.fault_plan is None

    def test_derived_intervals(self):
        policy = ExecutorPolicy(heartbeat_deadline=8.0)
        assert policy.effective_heartbeat_interval == pytest.approx(2.0)
        assert policy.effective_poll_interval == pytest.approx(0.05)
        tight = ExecutorPolicy(heartbeat_deadline=0.2)
        assert tight.effective_poll_interval == pytest.approx(0.025)
        explicit = ExecutorPolicy(heartbeat_interval=1.25, poll_interval=0.3)
        assert explicit.effective_heartbeat_interval == 1.25
        assert explicit.effective_poll_interval == 0.3

    @pytest.mark.parametrize("kwargs", [
        {"fanout": 0},
        {"heartbeat_deadline": 0.0},
        {"heartbeat_deadline": -1.0},
        {"max_attempts": 0},
        {"retry_backoff": -0.1},
        {"heartbeat_interval": 0.0},
        {"poll_interval": -2.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ExecutorPolicy(**kwargs)


class TestCoercePolicy:
    def test_none_is_default_policy(self):
        assert coerce_policy(None) == ExecutorPolicy()

    def test_string_becomes_kind(self):
        assert coerce_policy("spawn").kind == "spawn"

    def test_policy_passes_through(self):
        policy = ExecutorPolicy(kind="in-process", fanout=2)
        assert coerce_policy(policy) is policy

    def test_bad_type_raises(self):
        with pytest.raises(ConfigError):
            coerce_policy(7)


# ----------------------------------------------------------------------
# Kind resolution and executor construction
# ----------------------------------------------------------------------


class TestResolveKind:
    def test_auto_prefers_fork(self):
        assert resolve_kind("auto") in ("fork", "spawn")

    def test_concrete_kinds_resolve_to_themselves(self):
        assert resolve_kind("in-process") == "in-process"
        assert resolve_kind("spawn") == "spawn"

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            resolve_kind("threads")

    def test_auto_falls_back_to_spawn_without_fork(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.executors.fork_available",
                            lambda: False)
        assert resolve_kind("auto") == "spawn"

    def test_explicit_fork_without_fork_raises(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.executors.fork_available",
                            lambda: False)
        with pytest.raises(ConfigError):
            resolve_kind("fork")

    def test_make_executor_kinds(self):
        executor = make_executor("in-process")
        assert isinstance(executor, InProcessExecutor)
        spawned = make_executor("spawn")
        try:
            assert isinstance(spawned, ProcessExecutor)
            assert spawned.kind == "spawn"
        finally:
            spawned.shutdown()

    def test_executor_kinds_table(self):
        assert EXECUTOR_KINDS == ("auto", "in-process", "fork", "spawn")


# ----------------------------------------------------------------------
# Worker resolution: REPRO_MAX_WORKERS and cpu_count edge cases
# ----------------------------------------------------------------------


class TestResolveWorkersAuto:
    def test_auto_with_no_cpu_count_clamps_to_one(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers("auto") == 1

    def test_env_caps_auto(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setenv(MAX_WORKERS_ENV, "3")
        assert resolve_workers("auto") == 3

    def test_env_cap_does_not_raise_auto_above_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv(MAX_WORKERS_ENV, "16")
        assert resolve_workers("auto") == 2

    def test_explicit_workers_never_capped(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert resolve_workers(8) == 8

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", "2.5"])
    def test_bad_env_value_raises(self, monkeypatch, raw):
        monkeypatch.setenv(MAX_WORKERS_ENV, raw)
        with pytest.raises(ConfigError):
            resolve_workers("auto")

    def test_blank_env_value_ignored(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "  ")
        assert resolve_workers("auto") >= 1


# ----------------------------------------------------------------------
# Fault-plan determinism
# ----------------------------------------------------------------------


class TestExecutorFaultPlan:
    @pytest.mark.parametrize("kwargs", [
        {"crash_before_result_rate": -0.1},
        {"hang_rate": 1.5},
        {"hang_seconds": 0.0},
        {"max_faulty_attempts": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ExecutorFaultPlan(**kwargs)

    def test_disabled(self):
        assert ExecutorFaultPlan().disabled
        assert not ExecutorFaultPlan(hang_rate=0.5).disabled

    def test_decisions_are_pure(self):
        plan = ExecutorFaultPlan(seed=4, crash_before_result_rate=0.5,
                                 hang_rate=0.5)
        for key in ("shard-000", "shard-011"):
            assert (plan.crashes_before_result(key, 0)
                    == plan.crashes_before_result(key, 0))
            assert plan.hangs(key, 0) == plan.hangs(key, 0)

    def test_attempts_beyond_budget_never_fault(self):
        plan = ExecutorFaultPlan(seed=0, crash_before_result_rate=1.0,
                                 crash_mid_shard_rate=1.0, hang_rate=1.0,
                                 corrupt_payload_rate=1.0,
                                 max_faulty_attempts=2)
        for key in (f"shard-{i:03d}" for i in range(20)):
            assert plan.crashes_before_result(key, 0)
            assert not plan.crashes_before_result(key, 2)
            assert not plan.hangs(key, 5)
            assert not plan.corrupts_payload(key, 3)

    def test_hashed_fraction_is_roughly_uniform(self):
        # The reason the executor plan hashes with sha256 instead of the
        # delivery layer's crc32: structured shard keys must still draw
        # uniformly, or configured rates are fiction.
        draws = [hashed_fraction(0, "exec", "crash_before",
                                 f"shard-{i:03d}", 0) for i in range(400)]
        hits = sum(1 for d in draws if d < 0.15)
        assert 30 <= hits <= 90  # 400 × 0.15 = 60 expected
        assert 0.40 <= sum(draws) / len(draws) <= 0.60

    def test_corrupt_payload_damages_deterministically(self):
        plan = ExecutorFaultPlan(seed=9, corrupt_payload_rate=1.0)
        payload = bytes(range(256))
        mangled = plan.corrupt_payload(payload, "shard-001", 0)
        assert mangled != payload
        assert mangled == plan.corrupt_payload(payload, "shard-001", 0)
        assert plan.corrupt_payload(b"", "shard-001", 0) == b""


# ----------------------------------------------------------------------
# ExecutorReport telemetry
# ----------------------------------------------------------------------


class TestExecutorReport:
    def test_clean_property(self):
        assert ExecutorReport(executor="fork").clean
        assert not ExecutorReport(executor="fork", retried=1).clean
        assert not ExecutorReport(executor="fork",
                                  dead_shards=["shard-000"]).clean

    def test_publish_records_into_given_registry(self):
        registry = MetricsRegistry()
        report = ExecutorReport(executor="fork", tasks=12, retried=3,
                                workers_lost=2, workers_respawned=2,
                                ranges_stolen=1, corrupt_payloads=1,
                                duplicate_results=1, heartbeats=40,
                                heartbeat_lags=[0.01, 0.2])
        report.publish(registry)
        labels = {"executor": "fork"}
        assert registry.counter("parallel.tasks.total",
                                **labels).value == 12
        assert registry.counter("parallel.shards.retried",
                                **labels).value == 3
        assert registry.counter("parallel.workers.lost",
                                **labels).value == 2
        assert registry.counter("parallel.workers.respawned",
                                **labels).value == 2
        assert registry.counter("parallel.ranges.stolen",
                                **labels).value == 1
        assert registry.counter("parallel.shards.corrupt",
                                **labels).value == 1
        assert registry.counter("parallel.shards.duplicate",
                                **labels).value == 1
        assert registry.counter("parallel.heartbeats.total",
                                **labels).value == 40


# ----------------------------------------------------------------------
# Streaming merge: completion order must not matter
# ----------------------------------------------------------------------


class TestStreamingMerge:
    @pytest.fixture(scope="class")
    def shard_runs(self):
        config = tiny_scenario(n_samples=90, seed=21)
        shards = [s for s in partition_samples(config.n_samples, 6)
                  if s.size]
        runs = [run_shard(config, shard) for shard in shards]
        return config, runs

    def _frozen(self, shard_runs, order):
        _, runs = shard_runs
        return [frozen_shard_of(runs[i]) for i in order]

    def test_any_completion_order_matches_one_shot_concat(self, shard_runs):
        config, runs = shard_runs
        reference = run_experiment(config).store
        ref_digest = reference.digest()
        orders = [list(range(len(runs)))]
        rng = random.Random(5)
        for _ in range(3):
            order = list(range(len(runs)))
            rng.shuffle(order)
            orders.append(order)
        for order in orders:
            streaming = StreamingMerge(block_records=config.block_records)
            for shard in self._frozen(shard_runs, order):
                streaming.add(shard)
            store, stats = streaming.finish()
            assert store.digest() == ref_digest
            assert store.report_count == reference.report_count
            assert stats.records == reference.report_count

    def test_add_collects_and_finish_merges_once(self, shard_runs,
                                                 monkeypatch):
        config, runs = shard_runs
        calls = []
        real = merge.merge_shards

        def counting(shards, **kwargs):
            calls.append(len(shards))
            return real(shards, **kwargs)

        monkeypatch.setattr(merge, "merge_shards", counting)
        streaming = StreamingMerge(block_records=config.block_records)
        for shard in self._frozen(shard_runs, range(len(runs))):
            streaming.add(shard)
        assert calls == []  # add() only keeps the shard
        store, stats = streaming.finish()
        assert calls == [len(runs)]
        assert stats.records == store.report_count == reference_count(runs)
        assert stats.blocks_recompressed == sum(
            len(shard.blocks) for shard in store.shards.values())
        # finish() drains: a second call merges nothing.
        empty, _ = streaming.finish()
        assert empty.report_count == 0


def reference_count(runs) -> int:
    return sum(run.report_count for run in runs)


# ----------------------------------------------------------------------
# The digest-equivalence property over the executor grid
# ----------------------------------------------------------------------


_GRID_CONFIG = tiny_scenario(n_samples=48, seed=2)


@pytest.fixture(scope="module")
def grid_reference_digest():
    return run_experiment(_GRID_CONFIG).store.digest()


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["in-process", "fork", "spawn"]),
       workers=st.sampled_from([1, 2, 4]))
def test_digest_identical_across_executor_grid(grid_reference_digest,
                                               kind, workers):
    if kind == "fork" and resolve_kind("auto") != "fork":
        kind = "spawn"  # platform without fork: exercise spawn twice
    data = run_experiment(_GRID_CONFIG, workers=workers, executor=kind)
    assert data.store.digest() == grid_reference_digest
    if workers > 1:
        assert data.executor_report is not None
        assert data.executor_report.executor == kind
