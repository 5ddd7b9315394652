"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, because every
``repro-vt`` call pays interpreter start-up and imports.  It imports the
package from the checkout's ``src/``, runs the workload once, and writes
one JSON result to ``--out``:

* ``generate`` — ``run_experiment(dynamics_scenario(n, seed))`` with one
  worker, then ``store.save``: what ``repro-vt generate`` does;
* ``generate-parallel`` — the same with two forked workers;
* ``analyze`` — ``repro.cli.main(["--store", PATH, ..., "all"])`` with
  stdout captured;
* ``reference-all`` — ``repro.cli.main([..., "all"])`` without a store:
  simulates in memory and renders every figure.  ``run.py`` uses it only
  as the reference text for ``analyze``; it is never timed.

``raw_wall_s`` runs from the workload's first call to its complete
result (the store on disk, or every figure rendered).  ``raw_setup_s``
runs from the moment ``run.py`` started the process (``--spawned-at``, a
``time.monotonic()`` reading, which is system-wide on Linux) to the end
of imports and config.  Digests and other output checks run after the
timed window.

``probe_s`` is the host-speed probe: one fixed pure-Python loop, with
the cyclic garbage collector off, run at once in this process and in a
bare companion interpreter (so on two CPUs, as ``generate-parallel``
uses them), just before and just after the timed window; ``probe_s`` is
the mean of the four loop times.  The probe imports nothing from
``repro``, so no change to the program moves it; on a shared host it
moves with the speed the host gives the processes, and ``run.py``
divides it out of both times.

With ``--trace`` the layer wrappers of ``tracer.py`` are installed before
the workload and removed when its window closes; without it the tracer
module is imported only after the window, to count the live wrappers
(there must be none).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKERS = {"generate": 1, "generate-parallel": 2}

#: Iterations of the host-speed probe loop: 0.08 to 0.15 s on a shared
#: 2.1 GHz Xeon vCPU, depending on the host's load.
PROBE_LOOPS = 600_000

#: The probe loop, run by this process and by its companion interpreter.
PROBE_SOURCE = """
import gc, time

def probe_loop(loops):
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(loops):
            key = i & 1023
            table[key] = table.get(key, 0) + (i * i) % 7
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
"""

_probe_namespace: dict = {}
exec(PROBE_SOURCE, _probe_namespace)
_probe_loop = _probe_namespace["probe_loop"]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKERS, "analyze", "reference-all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--store", required=True,
                        help="store path: written by the generate "
                             "workloads, read by analyze")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def _rss_mb(who) -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _probe_s() -> float:
    """Mean seconds of the probe loop, run here and in a companion at once."""
    companion = subprocess.Popen(
        [sys.executable, "-S", "-E", "-c",
         f"{PROBE_SOURCE}\nprint(repr(probe_loop({PROBE_LOOPS})))"],
        stdout=subprocess.PIPE, text=True)
    try:
        own = _probe_loop(PROBE_LOOPS)
        out, _ = companion.communicate(timeout=60)
    finally:
        if companion.poll() is None:
            companion.kill()
            companion.wait()
    if companion.returncode != 0:
        raise RuntimeError(f"probe companion exited {companion.returncode}")
    return (own + float(out)) / 2


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _layer_metrics(tracer, wall_s, store, data) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    metrics = {f"{layer}_s": t for layer, t in tracer.self_s.items()}
    metrics.update(tracer.counts)
    covered = sum(tracer.self_s.values())
    metrics["trace_coverage"] = covered / wall_s
    metrics["store.merge_share"] = tracer.self_s.get("store.merge", 0.0) / wall_s
    metrics["store.decode_passes"] = (tracer.counts.get("store.reports_decoded", 0)
                                      / store.report_count)
    cache = store.cache_stats()
    metrics["store.blocks_decoded"] = cache.blocks_decoded
    metrics["store.cache_hit_ratio"] = cache.hit_rate
    merge_stats = getattr(data, "merge_stats", None)
    if merge_stats is not None:
        metrics["store.merge_blocks_recompressed"] = merge_stats.blocks_recompressed
    report = getattr(data, "executor_report", None)
    if report is not None:
        metrics["parallel.attempts"] = report.attempts
        metrics["parallel.retried"] = report.retried
        metrics["parallel.ranges_stolen"] = report.ranges_stolen
        metrics["parallel.useful_attempt_ratio"] = report.tasks / report.attempts
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import repro
    from repro.analysis.experiment import run_experiment
    from repro.store.reportstore import ReportStore
    from repro.synth.scenario import dynamics_scenario

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload in ("analyze", "reference-all"):
        import repro.cli

    config = dynamics_scenario(n_samples=args.samples, seed=args.seed)
    scale = ["--samples", str(args.samples), "--seed", str(args.seed)]
    data = None
    text = io.StringIO()

    ready = time.monotonic()
    probe_before = _probe_s()
    first = time.monotonic()
    if args.workload in WORKERS:
        workers = WORKERS[args.workload]
        data = run_experiment(config, workers=workers,
                              executor="fork" if workers > 1 else None)
        data.store.save(args.store)
        status = 0
    else:
        store_args = (["--store", args.store]
                      if args.workload == "analyze" else [])
        with contextlib.redirect_stdout(text):
            status = repro.cli.main([*store_args, *scale, "all"])
    wall_s = time.monotonic() - first
    peak_rss = _rss_mb(resource.RUSAGE_SELF)
    children_rss = _rss_mb(resource.RUSAGE_CHILDREN)
    probe_s = (probe_before + _probe_s()) / 2
    tracer_imported = "tracer" in sys.modules
    from tracer import installed_wrappers

    wrappers = installed_wrappers()
    if tracer is not None:
        tracer.uninstall()

    # -- checks and accounting, outside the timed window -----------------
    result = {
        "workload": args.workload,
        "status": status,
        "raw_wall_s": wall_s,
        "raw_setup_s": ready - args.spawned_at,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss,
        # A one-worker run executes its only shard in this process.
        "worker_peak_rss_mb": (children_rss if args.workload == "generate-parallel"
                               else peak_rss),
    }
    if args.workload != "reference-all":
        # The generate workloads check their save round trip; analyze
        # reports the digest of the store it read.
        with contextlib.closing(ReportStore.load(args.store)) as saved:
            result["digest"] = saved.digest()
            result["reports"] = saved.report_count
        result["store_bytes_per_report"] = (os.path.getsize(args.store)
                                            / result["reports"])
    if data is not None:
        result["memory_digest"] = data.store.digest()
    else:
        result["text_sha256"] = _sha256(text.getvalue())
    if tracer is not None:
        traced = data.store if data is not None else tracer.loaded_stores[0]
        result["layers"] = _layer_metrics(tracer, wall_s, traced, data)
    result["tracer_imported"] = tracer_imported
    result["wrappers_installed"] = wrappers
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
