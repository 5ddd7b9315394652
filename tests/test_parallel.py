"""Parallel scenario engine: sharding, equivalence, fallbacks.

The central contract under test is the serial/parallel equivalence gate:
``run_experiment(config, workers=K)`` must produce a store whose
canonical digest is byte-identical to the serial run's for every K.
Everything else here — partition properties, worker resolution, the
in-process fast path — supports that contract.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiment import run_experiment
from repro.errors import ConfigError
from repro.parallel.sharding import ShardSpec, partition_samples, resolve_workers
from repro.parallel.worker import execute_range, run_shard
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig, tiny_scenario
from repro.vt.samples import Sample
from repro.vt.service import VirusTotalService


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


def test_partition_covers_all_samples_contiguously():
    shards = partition_samples(101, 7)
    assert shards[0].start == 0
    assert shards[-1].stop == 101
    for left, right in zip(shards, shards[1:], strict=False):
        assert left.stop == right.start
    assert sum(s.size for s in shards) == 101


def test_partition_is_balanced():
    for n, k in ((100, 7), (5, 3), (1, 1), (64, 8)):
        sizes = [s.size for s in partition_samples(n, k)]
        assert max(sizes) - min(sizes) <= 1


def test_partition_more_shards_than_samples_leaves_empties():
    shards = partition_samples(3, 8)
    assert len(shards) == 8
    assert sum(s.size for s in shards) == 3
    assert sorted(i for s in shards for i in s.indices()) == [0, 1, 2]
    assert any(s.size == 0 for s in shards)


def test_partition_is_pure():
    assert partition_samples(977, 13) == partition_samples(977, 13)


def test_partition_rejects_bad_shard_count():
    with pytest.raises(ConfigError):
        partition_samples(10, 0)
    with pytest.raises(ConfigError):
        partition_samples(-1, 2)


def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers("auto") >= 1
    for bad in (0, -3, 2.5, "four", None, True):
        with pytest.raises(ConfigError):
            resolve_workers(bad)


def test_shard_spec_indices():
    shard = ShardSpec(shard_index=1, n_shards=3, start=4, stop=9)
    assert shard.size == 5
    assert list(shard.indices()) == [4, 5, 6, 7, 8]


# ----------------------------------------------------------------------
# Serial/parallel equivalence
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_digest(tiny_store) -> str:
    return tiny_store.digest()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_parallel_digest_matches_serial(tiny_config, serial_digest, workers):
    data = run_experiment(tiny_config, workers=workers)
    assert data.store.digest() == serial_digest
    assert data.workers == workers
    assert data.service is None
    assert data.merge_stats is not None
    assert data.merge_stats.records == data.store.report_count


def test_parallel_store_is_fully_queryable(tiny_config, tiny_store):
    parallel = run_experiment(tiny_config, workers=3)
    assert parallel.store.sample_count == tiny_store.sample_count
    for sha in list(tiny_store.samples())[:20]:
        assert [r.scan_time for r in parallel.store.reports_for(sha)] == \
            [r.scan_time for r in tiny_store.reports_for(sha)]
        assert (parallel.store.sample_file_type(sha)
                == tiny_store.sample_file_type(sha))


def test_workers_exceeding_samples(tiny_config, serial_digest):
    data = run_experiment(tiny_config, workers=200)
    assert data.store.digest() == serial_digest
    # Empty shards are skipped, so at most n_samples workers really ran.
    assert data.workers <= tiny_config.n_samples


def test_single_report_samples_parallelise():
    # forced_report_count=1 → every shard holds only single-report
    # samples, the degenerate case for the merge-key ordering.
    config = tiny_scenario(n_samples=80, seed=5).with_(
        min_reports=1, forced_report_count=1)
    serial = run_experiment(config)
    parallel = run_experiment(config, workers=4)
    assert serial.store.report_count == config.n_samples
    assert parallel.store.digest() == serial.store.digest()


def test_workers_one_never_touches_multiprocessing(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("multiprocessing used with workers=1")

    monkeypatch.setattr(multiprocessing, "get_context", boom)
    monkeypatch.setattr(multiprocessing, "Pool", boom)
    data = run_experiment(tiny_scenario(n_samples=40, seed=1), workers=1)
    assert data.workers == 1
    assert data.service is not None


def test_no_fork_falls_back_to_spawn(monkeypatch):
    """Without fork, 'auto' now degrades to the spawn pool — still a
    real parallel run, still digest-identical to serial."""
    monkeypatch.setattr("repro.parallel.executors.fork_available",
                        lambda: False)
    config = tiny_scenario(n_samples=40, seed=1)
    data = run_experiment(config, workers=4)
    assert data.workers == 4
    assert data.service is None
    assert data.executor_report is not None
    assert data.executor_report.executor == "spawn"
    assert data.store.digest() == run_experiment(config).store.digest()


def test_run_experiment_rejects_bad_workers():
    config = tiny_scenario(n_samples=10, seed=0)
    with pytest.raises(ConfigError):
        run_experiment(config, workers=0)
    with pytest.raises(ConfigError):
        run_experiment(config, workers=-2)
    with pytest.raises(ConfigError):
        run_experiment(config, workers="many")


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_samples=st.integers(min_value=10, max_value=60),
       seed=st.integers(min_value=0, max_value=1000))
def test_digest_equivalence_property(n_samples, seed):
    config = tiny_scenario(n_samples=n_samples, seed=seed)
    reference = run_experiment(config).store.digest()
    for workers in (2, 3, 5):
        data = run_experiment(config, workers=workers)
        assert data.store.digest() == reference, (
            f"digest diverged at workers={workers} "
            f"(n={n_samples}, seed={seed})")


# ----------------------------------------------------------------------
# Worker internals
# ----------------------------------------------------------------------


def test_execute_range_covers_exact_slice():
    config = tiny_scenario(n_samples=30, seed=9)
    generator = PopulationGenerator(config)
    expected = {generator.sha_for(i) for i in range(10, 20)}
    run = execute_range(config, 10, 20)
    assert set(run.store.samples()) == expected


def test_run_shard_ships_all_merge_keys():
    config = tiny_scenario(n_samples=30, seed=9)
    shard = partition_samples(config.n_samples, 3)[1]
    result = run_shard(config, shard)
    shipped = sum(len(m.keys) for m in result.months.values())
    assert shipped == result.report_count
    for month in result.months.values():
        assert month.keys.dtype == np.dtype("<i8")
        assert ((shard.start <= month.keys) & (month.keys < shard.stop)).all()
        times = np.concatenate([block.batch(planes=False).scan_time
                                for block in month.blocks])
        keys = list(zip(times.tolist(), month.keys.tolist()))
        assert keys == sorted(keys)


def test_iter_range_bounds_checked():
    generator = PopulationGenerator(tiny_scenario(n_samples=10, seed=0))
    with pytest.raises(IndexError):
        list(generator.iter_range(-1, 5))
    with pytest.raises(IndexError):
        list(generator.iter_range(0, 11))


# ----------------------------------------------------------------------
# Benchmark artifact schema
# ----------------------------------------------------------------------


def test_bench_artifact_schema(tmp_path):
    import importlib.util
    from pathlib import Path

    bench_path = (Path(__file__).resolve().parent.parent
                  / "benchmarks" / "bench_parallel_scaling.py")
    spec = importlib.util.spec_from_file_location("bench_parallel", bench_path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    out = tmp_path / "BENCH_results.json"
    rc = bench.main(["--samples", "60", "--workers", "1,2",
                     "--output", str(out)])
    assert rc == 0
    results = __import__("json").loads(out.read_text())

    assert results["schema"] == "repro-bench/1"
    assert results["python"]
    assert results["cpu_count"] >= 1
    assert results["scenario"]["n_samples"] == 60
    assert results["equivalent"] is True
    names = set()
    for entry in results["benchmarks"]:
        for key in ("name", "workers", "wall_seconds", "speedup",
                    "reports", "dataset_digest", "digest_matches_serial"):
            assert key in entry, f"missing {key}"
        assert entry["wall_seconds"] >= 0
        assert len(entry["dataset_digest"]) == 64
        names.add(entry["name"])
    assert len(names) == len(results["benchmarks"])
    assert any(e["workers"] == 1 for e in results["benchmarks"])
    overhead = results["metrics_overhead"]
    for key in ("n_samples", "reports", "disabled_seconds",
                "enabled_seconds", "enabled_over_disabled"):
        assert key in overhead, f"missing metrics_overhead.{key}"
    assert overhead["enabled_over_disabled"] > 0


# ----------------------------------------------------------------------
# Spec immutability (the in-place mutation fix)
# ----------------------------------------------------------------------


def test_run_does_not_mutate_generator_specs():
    config = ScenarioConfig(seed=21, n_samples=60)  # mixed fresh/pre-window
    specs = list(PopulationGenerator(config))
    run_experiment(config)
    for spec in specs:
        assert spec.sample.times_submitted == 0
        assert spec.sample.last_submission_date is None
        assert spec.sample.last_analysis_date is None


def test_register_backfills_prewindow_state_on_the_clone():
    original = Sample(sha256="a" * 64, file_type="Win32 EXE",
                      malicious=False, first_seen=-500)
    clone = original.clone()
    service = VirusTotalService(seed=0)
    service.register(clone)
    # The pre-window sample arrives with one historical submission …
    assert clone.times_submitted == 1
    assert clone.last_submission_date == -500
    # … and the source object is untouched.
    assert original.times_submitted == 0
    assert original.last_submission_date is None


def test_register_does_not_backfill_fresh_samples():
    fresh = Sample(sha256="b" * 64, file_type="Win32 EXE",
                   malicious=False, first_seen=100)
    service = VirusTotalService(seed=0)
    service.register(fresh)
    assert fresh.times_submitted == 0
    assert fresh.last_submission_date is None
