"""The repository benchmark: generate, generate-parallel and analyze.

Run from the root of a checkout::

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

One run prepares what its workload needs, then starts fresh
``workload.py`` processes one after another until ``--seconds`` have
passed, checks every process's outputs, and prints one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the run's repetitions.  ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics: medians over
the traced ones, plus ``trace_overhead`` (traced over untraced median
``wall_s``, minus one), ``failed_ratio``, and the untraced medians of
``raw_wall_s``, ``raw_setup_s`` and ``probe_s``.  A per-layer metric of
a layer that does not run on the workload reads 0.

``wall_s`` and ``setup_s`` are a repetition's times at the reference
host speed: ``raw_wall_s`` and ``raw_setup_s`` as the workload process
measured them, times ``probe_reference_s / probe_s``.  ``probe_s`` is
the host-speed probe that ``workload.py`` times just before and just
after its timed window; ``probe_reference_s`` (``config.json``) is a
fixed constant near the probe's time on a quiet reference host.  On a
shared host the speed a process gets drifts by 20 % to 2x for tens of
seconds at a time; the probe drifts with it, so the quotient keeps what
the program's code decides.

A repetition fails when its process exits non-zero or its output is
wrong.  Outputs are checked against references made in the same run and
against the digests pinned in ``config.json`` for the default and
held-out seeds:

* every generated store must load back to its in-memory digest;
* ``generate`` repetitions must agree with each other;
* ``generate-parallel`` must match a serial ``generate`` made during
  set-up;
* ``analyze`` reads a store saved during set-up by the code under test:
  the store it read must have that store's digest, and its rendered
  ``all`` text must equal the text that ``repro-vt all`` renders from an
  in-memory run of the same scenario.

The run exits 2 without a result when the checkout holds no ``src/repro``
package, and 1 when set-up fails or no repetition produced timings.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("generate", "generate-parallel", "analyze")

#: Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    """Set-up failed or time ran out: the run prints no result."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", type=Path, default=BENCH_DIR / "config.json",
                        help="sizes and pinned digests (default: %(default)s)")
    return parser.parse_args(argv)


class Run:
    """The repetitions of one run, their checks and their accounting."""

    def __init__(self, workdir: Path, samples: int, seed: int,
                 pin: dict | None, probe_reference_s: float) -> None:
        self.workdir = workdir
        self.samples = samples
        self.seed = seed
        self.pin = pin or {}
        self.probe_reference_s = probe_reference_s
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        #: Values every later repetition must reproduce.
        self.refs: dict[str, str] = {}

    def _spawn(self, workload: str, store: Path, trace: bool) -> dict | None:
        out = self.workdir / f"rep{self.attempted}.json"
        cmd = [sys.executable, str(BENCH_DIR / "workload.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--samples", str(self.samples), "--store", str(store),
               "--out", str(out), "--spawned-at", repr(time.monotonic())]
        if trace:
            cmd.append("--trace")
        # Own session, so a timeout can kill the workers with the parent.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                                start_new_session=True)
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        try:
            code = proc.wait(timeout=max(remaining, 0.0))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RunFailed(f"{workload} repetition killed at the "
                                f"{RUN_LIMIT_S:.0f} s run limit") from None
            raise
        if code != 0 or not out.is_file():
            return None
        return json.loads(out.read_text(encoding="utf-8"))

    def _problems(self, result: dict) -> list[str]:
        problems = []
        if result["status"] != 0:
            problems.append(f"repro-vt exited {result['status']}")
        if "memory_digest" in result and result["memory_digest"] != result["digest"]:
            problems.append("saved store does not load back to its digest")
        for key, pin_key in (("digest", "digest"), ("text_sha256", "all_sha256")):
            if key not in result:
                continue
            want = self.pin.get(pin_key)
            if want is not None and result[key] != want:
                problems.append(f"{key} {result[key][:12]} != pinned {want[:12]}")
            self.refs.setdefault(key, result[key])
            if result[key] != self.refs[key]:
                problems.append(f"{key} {result[key][:12]} != reference "
                                f"{self.refs[key][:12]}")
        return problems

    def rep(self, workload: str, store: Path, trace: bool = False) -> dict | None:
        """Run one repetition; returns its checked result (None on a crash)."""
        self.attempted += 1
        result = self._spawn(workload, store, trace)
        if result is None:
            self.failed += 1
            print(f"perfbench: {workload} repetition failed", file=sys.stderr)
            return None
        result["traced"] = trace
        result["problems"] = self._problems(result)
        scale = self.probe_reference_s / result["probe_s"]
        result["wall_s"] = result["raw_wall_s"] * scale
        result["setup_s"] = result["raw_setup_s"] * scale
        print(f"perfbench: {workload}{' traced' if trace else ''} "
              f"raw_wall_s={result['raw_wall_s']:.3f} "
              f"raw_setup_s={result['raw_setup_s']:.3f} "
              f"probe_s={result['probe_s']:.4f} wall_s={result['wall_s']:.3f} "
              f"setup_s={result['setup_s']:.3f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f}", file=sys.stderr)
        if result["problems"]:
            self.failed += 1
            print(f"perfbench: {workload} wrong: {'; '.join(result['problems'])}",
                  file=sys.stderr)
        return result


def samples_for(seed: int, reports: int) -> int:
    """The smallest population whose scan schedule reaches ``reports``.

    Sizing by reports rather than samples keeps the work of a run nearly
    the same on every seed: at a fixed sample count the report count of
    the dynamics preset swings by about 8 % between seeds.  Sample ``i``
    of a scenario does not depend on the population size, so the first
    ``n`` specs are exactly those of the scenario of size ``n``.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.synth.population import PopulationGenerator
    from repro.synth.scenario import dynamics_scenario

    generator = PopulationGenerator(dynamics_scenario(n_samples=1, seed=seed))
    samples = total = 0
    while total < reports:
        total += generator.spec_for(samples).n_reports
        samples += 1
    return samples


def _median_of(results, traced: bool, key) -> float:
    """Median of ``key(result)`` over the repetitions of one kind.

    Wrong answers count only when no repetition of the kind was right.
    """
    kind = [r for r in results if r["traced"] == traced]
    chosen = [r for r in kind if not r["problems"]] or kind
    return statistics.median(key(r) for r in chosen)


def _measure(run: Run, workload: str, seconds: float, trace: bool) -> list[dict]:
    """Set up, then repeat the workload until ``seconds`` have passed."""
    store = run.workdir / "workload.store"
    if workload == "generate-parallel":
        # The serial store every parallel repetition must reproduce.
        if run.rep("generate", run.workdir / "serial.store") is None:
            raise RunFailed("set-up: serial reference generate failed")
    elif workload == "analyze":
        # The input store, saved by the code under test, and the text an
        # in-memory `repro-vt all` renders for the same scenario.
        if run.rep("generate", store) is None:
            raise RunFailed("set-up: generating the input store failed")
        if run.rep("reference-all", store) is None:
            raise RunFailed("set-up: reference `repro-vt all` failed")
    kinds = (False, True) if trace else (False,)
    results = []
    window_end = time.monotonic() + seconds
    reps = 0
    while time.monotonic() < window_end or reps < len(kinds):
        result = run.rep(workload, store, kinds[reps % len(kinds)])
        reps += 1
        if result is not None:
            results.append(result)
    return results


#: Per-layer metrics taken from the untraced repetitions of a traced run.
UNTRACED_LAYER_METRICS = ("raw_wall_s", "raw_setup_s", "probe_s")


def _metrics(results, names_units, trace: bool, run: Run) -> dict:
    metrics = {}
    for name, unit in names_units:
        if not trace or name in UNTRACED_LAYER_METRICS:
            value = _median_of(results, False, lambda r: r[name])
        elif name == "trace_overhead":
            value = (_median_of(results, True, lambda r: r["wall_s"])
                     / _median_of(results, False, lambda r: r["wall_s"]) - 1.0)
        elif name == "failed_ratio":
            value = run.failed / run.attempted
        else:
            value = _median_of(results, True,
                               lambda r: r["layers"].get(name, 0))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = json.loads(args.config.read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    names_units = [(m["name"], m["unit"]) for m in bench[section]]
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=workroot) as tmp:
            run = Run(Path(tmp), samples_for(args.seed, config["reports"]),
                      args.seed, config["pins"].get(str(args.seed)),
                      config["probe_reference_s"])
            results = _measure(run, args.workload, args.seconds,
                               bool(args.trace))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            workroot.rmdir()
        except OSError:
            pass
    if {r["traced"] for r in results} != {False, bool(args.trace)}:
        print("perfbench: no repetition of each kind produced timings",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": _metrics(results, names_units, bool(args.trace), run),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
