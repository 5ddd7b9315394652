"""Store hot path: columnar throughput, streaming bound, cache behaviour.

Two benches share this module:

**Columnar ingest+scan throughput.**  The bulk columnar pipeline — array
ingest (`ReportStore.ingest_arrays`), dictionary/delta block encoding
and the `SeriesFrame` numpy kernels — against the per-report pipeline
doing the same work into the same store: one `ScanReport` per
`ReportStore.ingest` call, then the python analysis helpers over
decoded report objects.  Both legs run the identical paper workload (samples scanned in
interleaved waves, ~14 reports per sample as in the 847 M / 60 M ratio
of Table 2) and must agree on the store digest *and* on every analysis
result before either wall-clock counts; the throughput ratio is the
headline number recorded in ``BENCH_results.json``.

**Streaming memory bound.**  The write-aware retrieval rebuild replaced
"materialise every report in one dict" grouping with a block-order
streaming pass whose resident set is bounded by the samples *live*
across the current block window; the bench checks the high-water mark
against the bound and reports the block cache's hit rate.

Dual mode, mirroring ``bench_parallel_scaling.py``:

* under pytest-benchmark (``pytest benchmarks/ --benchmark-only``) both
  benches run once at harness scale and print their tables;
* as a script (``python benchmarks/bench_store_streaming.py``) the
  columnar A/B runs standalone and writes a schema'd results artifact —
  the file the CI benchmarks job uploads beside the scaling results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.avrank import collect_series, select_dataset_s, split_stable_dynamic
from repro.core.metrics import pairwise_differences
from repro.store.columnar import ColumnarBatch
from repro.store.reportstore import ReportStore
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.reports import ScanReport, encode_labels
from repro.vt.samples import sha256_of

try:  # pytest mode — absent when run as a plain script
    from conftest import run_once, say
except ImportError:  # pragma: no cover - script mode
    run_once = None

    def say(*args: object) -> None:
        print(*args)

#: Schema identifier for the benchmark artifact.
RESULTS_SCHEMA = "repro-bench/1"

#: Workload shape: samples arrive in waves; scans of one wave interleave.
N_SAMPLES = 5_000
SCANS_EACH = 4
WAVE = 50
BLOCK_RECORDS = 256
_N_ENGINES = 70

#: Columnar A/B defaults: paper-shaped workload (≈14 reports/sample as
#: in Table 2's 847 M reports over 60 M samples), fleet of 70 engines.
AB_SAMPLES = 2_000
AB_SCANS_EACH = 14
AB_WIDTH = 70
AB_BLOCK_RECORDS = 1_024
AB_REPS = 3
AB_SEED = 42
#: Voting thresholds for the §6.2 label-flip counts.
AB_THRESHOLDS = (2, 5, 11)
#: Dataset-S file-type filter for the §5 pairwise extraction.
AB_TOP_TYPES = frozenset(["Win32 EXE", "PDF"])
_AB_FTYPES = ("Win32 EXE", "PDF", "Android", "ELF")


# ---------------------------------------------------------------------------
# Columnar ingest+scan A/B


def _ab_workload(n_samples: int, scans_each: int, width: int, seed: int):
    """Array-form scan feed: every column the two legs will consume.

    Scans interleave across samples (wave order, like the collector's
    rescan queue), ranks random-walk around a per-sample base, and the
    fleet version vector advances one engine every ~1000 records.
    """
    rng = np.random.default_rng(seed)
    n = n_samples * scans_each
    sample = np.repeat(np.arange(n_samples), scans_each)
    wave = np.tile(np.arange(scans_each), n_samples)
    times = (wave * 7200 + sample).astype(np.int64)
    order = np.argsort(times, kind="stable")
    sample, times = sample[order], times[order]
    sha_digests = rng.integers(0, 256, (n_samples, 32), dtype=np.uint8)
    ranks = np.clip(
        rng.integers(0, 30, n_samples)[sample] + rng.integers(-2, 3, n),
        0, width).astype(np.int64)
    ft_codes = (sample % len(_AB_FTYPES)).astype("<u2")
    fresh = (sample % 5 != 0)
    labels = np.zeros((n, width), np.uint8)
    labels[np.repeat(np.arange(n), ranks),
           np.concatenate([np.arange(r) for r in ranks.tolist()])] = 1
    versions = np.full((n, width), 7, "<u4")
    steps = np.arange(n) // 1000
    versions[np.arange(n), steps % width] += steps.astype("<u4")
    return sample, times, sha_digests, ranks, ft_codes, fresh, labels, versions


def _columnar_leg(work, width: int, block_records: int) -> ReportStore:
    """Bulk array ingest through the v3 columnar path."""
    sample, times, sha_digests, ranks, ft_codes, fresh, labels, versions = work
    n = len(times)
    batch = ColumnarBatch(
        scan_time=times.astype("<i8"),
        positives=ranks.astype("<u2"),
        total=np.full(n, width, "<u2"),
        first_submission=np.where(fresh[sample], 0, -1).astype("<i8"),
        last_submission=np.zeros(n, "<i8"),
        last_analysis=times.astype("<i8"),
        times_submitted=np.ones(n, "<u4"),
        n_engines=np.full(n, width, "<u2"),
        ftype_codes=ft_codes[sample].astype("<u2"),
        ftypes=_AB_FTYPES,
        shas=np.ascontiguousarray(sha_digests[sample]).view("S32").ravel(),
        labels=labels.ravel(),
        versions=versions.ravel(),
    )
    store = ReportStore(block_records=block_records)
    store.ingest_arrays(batch)
    store.close()
    return store


def _columnar_scan(store: ReportStore, thresholds, top_types) -> tuple:
    """The analysis suite as SeriesFrame kernel passes."""
    frame = store.series_frame()
    multi = frame.multi_mask()
    delta = frame.delta_overall()
    s_mask = frame.dataset_s_mask(top_types)
    sub = frame.select(s_mask)
    intervals, diffs = sub.pairwise_diffs()
    return (int(frame.stable_mask().sum()),
            int(frame.dynamic_mask().sum()),
            int(delta[multi].sum()),
            int(frame.adjacent_deltas().sum()),
            int(s_mask.sum()),
            int(frame.span_minutes().sum()),
            tuple(frame.label_flips(t) for t in thresholds),
            len(diffs), int(diffs.sum()), int(intervals.sum()))


def _per_report_leg(work, width: int, block_records: int) -> ReportStore:
    """Per-report ingest: one ``ScanReport`` object per ``ingest`` call."""
    sample, times, sha_digests, ranks, ft_codes, fresh, labels, versions = work
    n = len(times)
    hexes = [sha_digests[i].tobytes().hex() for i in range(len(sha_digests))]
    firsts = np.where(fresh[sample], 0, -1).tolist()
    tl, rl = times.tolist(), ranks.tolist()
    sl, fl = sample.tolist(), ft_codes.tolist()
    lab_blob = labels.tobytes()
    vl = versions.tolist()
    store = ReportStore(block_records=block_records)
    for i in range(n):
        s = sl[i]
        store.ingest(ScanReport(
            sha256=hexes[s],
            file_type=_AB_FTYPES[fl[s]],
            scan_time=tl[i],
            positives=rl[i],
            total=width,
            labels=lab_blob[i * width:(i + 1) * width],
            versions=tuple(vl[i]),
            first_submission_date=firsts[i],
            last_submission_date=0,
            last_analysis_date=tl[i],
            times_submitted=1,
        ))
    store.close()
    return store


def _per_report_scan(store: ReportStore, thresholds, top_types) -> tuple:
    """The same analysis suite over python AVRankSeries objects."""
    series = collect_series(store.iter_sample_reports())
    stable, dynamic = split_stable_dynamic(series)
    flips = []
    for t in thresholds:
        count = 0
        for s in series:
            lab = s.labels_under(t)
            count += sum(1 for a, b in zip(lab, lab[1:]) if a != b)
        flips.append(count)
    dataset_s = select_dataset_s(series, top_types)
    pairs = pairwise_differences(dataset_s, max_pairs_per_sample=10 ** 9)
    interval_minutes = round(sum(pairs.interval_days) * MINUTES_PER_DAY)
    return (len(stable), len(dynamic),
            sum(s.delta_overall for s in series if s.multi),
            sum(d for s in series for d in s.adjacent_deltas()),
            len(dataset_s),
            sum(s.span_minutes for s in series),
            tuple(flips),
            len(pairs), sum(pairs.rank_diffs), interval_minutes)


def run_columnar_ab(n_samples: int = AB_SAMPLES,
                    scans_each: int = AB_SCANS_EACH,
                    reps: int = AB_REPS,
                    seed: int = AB_SEED,
                    block_records: int = AB_BLOCK_RECORDS) -> dict:
    """Best-of-``reps`` A/B; returns the BENCH artifact payload.

    Every rep cross-checks the two legs: store digests byte-identical,
    all integer analysis results equal, and the float-accumulated
    pairwise interval sum within one minute of the integer kernel's.
    """
    width = AB_WIDTH
    work = _ab_workload(n_samples, scans_each, width, seed)
    best = {"col_ingest": None, "col_scan": None,
            "per_report_ingest": None, "per_report_scan": None}

    def keep(key: str, wall: float) -> None:
        if best[key] is None or wall < best[key]:
            best[key] = wall

    digest = None
    for _ in range(max(reps, 1)):
        started = time.perf_counter()
        col_store = _columnar_leg(work, width, block_records)
        keep("col_ingest", time.perf_counter() - started)

        started = time.perf_counter()
        col_metrics = _columnar_scan(col_store, AB_THRESHOLDS, AB_TOP_TYPES)
        keep("col_scan", time.perf_counter() - started)

        started = time.perf_counter()
        pr_store = _per_report_leg(work, width, block_records)
        keep("per_report_ingest", time.perf_counter() - started)

        started = time.perf_counter()
        pr_metrics = _per_report_scan(pr_store, AB_THRESHOLDS, AB_TOP_TYPES)
        keep("per_report_scan", time.perf_counter() - started)

        digest = col_store.digest()
        if digest != pr_store.digest():
            raise AssertionError("columnar digest diverged from per-report")
        if list(col_metrics)[:9] != list(pr_metrics)[:9]:
            raise AssertionError(
                f"analysis mismatch: {col_metrics} != {pr_metrics}")
        # The per-report leg accumulates intervals in float days; allow
        # one minute of rounding drift on the sum.
        if abs(col_metrics[9] - pr_metrics[9]) > 1:
            raise AssertionError(
                f"interval sum drift: {col_metrics[9]} vs {pr_metrics[9]}")

    n_reports = n_samples * scans_each
    col_wall = best["col_ingest"] + best["col_scan"]
    pr_wall = best["per_report_ingest"] + best["per_report_scan"]
    return {
        "schema": RESULTS_SCHEMA,
        "suite": "store_columnar",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "scenario": {
            "n_samples": n_samples,
            "scans_each": scans_each,
            "reports": n_reports,
            "engines": width,
            "block_records": block_records,
            "seed": seed,
            "reps_best_of": reps,
        },
        "benchmarks": [
            {"name": "columnar_ingest", "wall_seconds": round(best["col_ingest"], 4),
             "reports_per_second": round(n_reports / best["col_ingest"])},
            {"name": "columnar_scan", "wall_seconds": round(best["col_scan"], 4),
             "reports_per_second": round(n_reports / best["col_scan"])},
            {"name": "per_report_ingest",
             "wall_seconds": round(best["per_report_ingest"], 4),
             "reports_per_second": round(n_reports
                                         / best["per_report_ingest"])},
            {"name": "per_report_scan",
             "wall_seconds": round(best["per_report_scan"], 4),
             "reports_per_second": round(n_reports
                                         / best["per_report_scan"])},
        ],
        "speedup": {
            "ingest": round(best["per_report_ingest"] / best["col_ingest"], 2),
            "scan": round(best["per_report_scan"] / best["col_scan"], 2),
            "combined": round(pr_wall / col_wall, 2),
        },
        "dataset_digest": digest,
        "digest_matches_per_report": True,
        "metrics_match_per_report": True,
    }


def render_columnar(results: dict) -> None:
    scenario = results["scenario"]
    say()
    say(f"Columnar vs per-report ingest+scan bench "
        f"(n={scenario['reports']:,} reports, "
        f"{scenario['n_samples']:,} samples x {scenario['scans_each']}, "
        f"{scenario['engines']} engines, block={scenario['block_records']}, "
        f"best of {scenario['reps_best_of']})")
    walls = {e["name"]: e["wall_seconds"] for e in results["benchmarks"]}
    say(f"  columnar   : ingest {walls['columnar_ingest']:7.3f}s  "
        f"scan {walls['columnar_scan']:7.3f}s")
    say(f"  per-report : ingest {walls['per_report_ingest']:7.3f}s  "
        f"scan {walls['per_report_scan']:7.3f}s")
    sp = results["speedup"]
    say(f"  speedup    : ingest {sp['ingest']:5.1f}x  "
        f"scan {sp['scan']:5.1f}x  combined {sp['combined']:5.1f}x")
    say(f"  digest     : {results['dataset_digest'][:16]}… "
        f"(per-report and columnar identical, all analyses equal)")


def test_columnar_throughput(benchmark):
    """pytest-benchmark entry point: the A/B at a reduced scale.

    The equality gates (digest + every analysis result) run at full
    strength; only the wall-clock floor is relaxed because CI machines
    are noisy.
    """
    results = run_once(
        benchmark,
        lambda: run_columnar_ab(n_samples=600, scans_each=8, reps=1))
    render_columnar(results)
    assert results["digest_matches_per_report"]
    assert results["metrics_match_per_report"]
    assert results["speedup"]["combined"] >= 2.0


# ---------------------------------------------------------------------------
# Streaming memory bound


def _report(sha: str, when: int, rank: int) -> ScanReport:
    labels = [1] * rank + [0] * (_N_ENGINES - rank)
    return ScanReport(
        sha256=sha,
        file_type="Win32 EXE",
        scan_time=when,
        positives=rank,
        total=_N_ENGINES,
        labels=encode_labels(labels),
        versions=tuple([1] * _N_ENGINES),
        first_submission_date=0,
        last_submission_date=0,
        last_analysis_date=when,
        times_submitted=1,
    )


def _build_store() -> ReportStore:
    store = ReportStore(block_records=BLOCK_RECORDS)
    events = []
    for i in range(N_SAMPLES):
        sha = sha256_of(f"stream{i}")
        wave_start = (i // WAVE) * (WAVE * SCANS_EACH)
        for k in range(SCANS_EACH):
            when = wave_start + k * WAVE + (i % WAVE)
            events.append((when, sha))
    events.sort()
    for when, sha in events:
        store.ingest(_report(sha, when, rank=(when % 30)))
    store.close()
    return store


def test_streaming_memory_bound(benchmark):
    store = _build_store()

    def stream():
        count = 0
        for _, reports in store.iter_sample_reports():
            count += len(reports)
        return count

    streamed = run_once(benchmark, stream)
    stats = store.cache_stats()
    total = store.report_count
    bound = WAVE * SCANS_EACH + BLOCK_RECORDS

    # Random access re-reads over a shuffled sample order, twice, to
    # exercise the bytes-bounded LRU.
    shas = [sha256_of(f"stream{i}") for i in range(N_SAMPLES)]
    random.Random(7).shuffle(shas)
    for sha in shas * 2:
        store.reports_for(sha)
    cache = store.cache_stats()

    say()
    say("Store streaming / cache bench "
        f"(n={total:,} reports, {N_SAMPLES:,} samples, "
        f"block={BLOCK_RECORDS}, wave={WAVE}x{SCANS_EACH})")
    say(f"  peak resident reports : {stats.peak_stream_reports:7,} "
        f"(bound {bound:,}; dict grouping held {total:,})")
    say(f"  residency vs store    : {stats.peak_stream_reports / total:7.1%}")
    say(f"  cache hit rate        : {cache.hit_rate:7.1%} "
        f"({cache.hits:,} hits / {cache.lookups:,} lookups)")
    say(f"  cache resident        : {cache.bytes_resident / 1e6:7.2f} MB "
        f"of {cache.bytes_limit / 1e6:.0f} MB, "
        f"{cache.evictions:,} evictions")

    assert streamed == total
    # The memory bound: block size x live samples per window, not store size.
    assert stats.peak_stream_reports <= bound
    assert stats.peak_stream_reports < total / 10
    # The re-read pass must be mostly cache hits.
    assert cache.hit_rate > 0.5


# ---------------------------------------------------------------------------
# Script mode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the columnar (v3) store hot path against "
                    "the per-report pipeline and write a schema'd results "
                    "file.")
    parser.add_argument("--samples", type=int, default=AB_SAMPLES,
                        help=f"sample count (default: {AB_SAMPLES})")
    parser.add_argument("--scans-each", type=int, default=AB_SCANS_EACH,
                        help=f"reports per sample (default: {AB_SCANS_EACH})")
    parser.add_argument("--reps", type=int, default=AB_REPS,
                        help=f"best-of repetitions (default: {AB_REPS})")
    parser.add_argument("--seed", type=int, default=AB_SEED)
    parser.add_argument("--block-records", type=int,
                        default=AB_BLOCK_RECORDS)
    parser.add_argument("--output", default="BENCH_results.json",
                        help="artifact path (default: BENCH_results.json)")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless the combined "
                             "ingest+scan speedup reaches X×")
    args = parser.parse_args(argv)

    results = run_columnar_ab(
        n_samples=args.samples, scans_each=args.scans_each,
        reps=args.reps, seed=args.seed, block_records=args.block_records)
    render_columnar(results)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n",
                                 encoding="utf-8")
    say(f"\nwrote {args.output}")

    if args.require_speedup is not None:
        combined = results["speedup"]["combined"]
        if combined < args.require_speedup:
            say(f"FAIL: combined speedup {combined:.2f}x < "
                f"required {args.require_speedup:.2f}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
