"""The benchmark's own tests, on a tiny scenario.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload is smoke-run through ``run.py`` with a config that sizes
the scenario at a few hundred reports, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CONFIG = json.loads((BENCH_DIR / "config.json").read_text(encoding="utf-8"))
SEED = 5
TINY_REPORTS = 600

#: Per-layer metrics that are legitimately 0 on a healthy run.
MAY_BE_ZERO = {"parallel.retried", "parallel.ranges_stolen",
               "store.cache_hit_ratio", "trace_overhead", "failed_ratio"}


def _config(tmp_path: Path, pins=None) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"reports": TINY_REPORTS, "pins": pins or {},
                                "probe_reference_s": CONFIG["probe_reference_s"]}),
                    encoding="utf-8")
    return path


def _bench(config: Path, workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--config", str(config)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced run of every workload."""
    config = _config(tmp_path_factory.mktemp("smoke"))
    return {(w["name"], trace): _bench(config, w["name"], trace)
            for w in BENCHMARK["workloads"] for trace in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(smoke, trace, section):
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        result = smoke[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, workload
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == expected, workload


def test_end_to_end_metrics_are_never_zero(smoke):
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        metrics = smoke[workload, 0]["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)


def test_layer_metrics_move_on_their_workload(smoke):
    """A layer mapped to a workload measures something there."""
    for name, entry in CONFIG["layers"].items():
        if name in MAY_BE_ZERO:
            continue
        for workload in entry["workloads"]:
            value = smoke[workload, 1]["metrics"][name]["value"]
            assert value > 0, (name, workload)


def test_planted_wrong_digest_is_a_failure(tmp_path):
    config = _config(tmp_path, {str(SEED): {"digest": "0" * 64}})
    for workload in ("generate", "generate-parallel"):
        result = _bench(config, workload, 1)
        assert not result["correct"]
        assert result["failed"] == result["attempted"]
        assert result["metrics"]["failed_ratio"]["value"] == 1.0


def test_planted_wrong_figure_text_is_a_failure(tmp_path):
    config = _config(tmp_path, {str(SEED): {"all_sha256": "0" * 64}})
    result = _bench(config, "analyze", 1)
    assert not result["correct"]
    # Only the set-up generate renders no text.
    assert result["failed"] == result["attempted"] - 1
    assert result["metrics"]["failed_ratio"]["value"] > 0


def _checked(run: bench_run.Run, **result) -> list[str]:
    return run._problems({"status": 0, **result})


def test_references_catch_disagreeing_outputs(tmp_path):
    run = bench_run.Run(tmp_path, samples=10, seed=SEED, pin=None,
                        probe_reference_s=CONFIG["probe_reference_s"])
    # The set-up store is the reference; a repetition must reproduce it.
    assert _checked(run, digest="a" * 64, memory_digest="a" * 64) == []
    assert _checked(run, digest="b" * 64, memory_digest="b" * 64)
    # A store that does not load back to its in-memory digest.
    assert _checked(run, digest="a" * 64, memory_digest="c" * 64)
    # Rendered text must match the in-memory reference.
    assert _checked(run, digest="a" * 64, text_sha256="d" * 64) == []
    assert _checked(run, digest="a" * 64, text_sha256="e" * 64)
    assert run._problems({"status": 2, "digest": "a" * 64})


@pytest.mark.parametrize("workload", ["generate", "generate-parallel", "analyze"])
def test_untraced_runs_install_no_wrappers(tmp_path, workload):
    store = tmp_path / "in.store"
    samples = bench_run.samples_for(SEED, TINY_REPORTS)

    def once(name, trace):
        out = tmp_path / f"{name}-{trace}.json"
        cmd = [sys.executable, str(BENCH_DIR / "workload.py"),
               "--workload", name, "--seed", str(SEED),
               "--samples", str(samples), "--store", str(store),
               "--out", str(out), "--spawned-at", "0"]
        subprocess.run(cmd + (["--trace"] if trace else []), cwd=ROOT,
                       check=True, capture_output=True, timeout=170)
        return json.loads(out.read_text(encoding="utf-8"))

    if workload == "analyze":
        once("generate", False)
    plain, traced = once(workload, False), once(workload, True)
    assert plain["probe_s"] > 0 and traced["probe_s"] > 0
    assert not plain["tracer_imported"]
    assert plain["wrappers_installed"] == 0
    assert "layers" not in plain
    assert traced["wrappers_installed"] > 0
    assert traced["digest"] == plain["digest"]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
