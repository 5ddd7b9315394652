"""Workload trace export and replay.

A downstream user may want to replay *their own* submission history (or a
recorded one) against the simulator instead of the synthetic population.
A trace is a JSON-lines file, one record per sample::

    {"sha256": "…", "file_type": "Win32 EXE", "malicious": true,
     "first_seen": 43200, "scan_times": [43200, 51840, 120960],
     "size_bytes": 94208, "family": "emotet"}

:func:`export_trace` writes a scenario's population in this format;
:func:`load_trace` reads one back into :class:`SampleSpec` records, which
:func:`replay_trace` runs through the full service → feed → store
pipeline.  Export/replay round-trips bit-identically for a fixed seed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ConfigError
from repro.store.reportstore import ReportStore
from repro.synth.population import PopulationGenerator, SampleSpec
from repro.synth.scenario import ScenarioConfig
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.feed import PremiumFeed
from repro.vt.filetypes import FILE_TYPES
from repro.vt.samples import Sample
from repro.vt.service import VirusTotalService


def export_trace(
    specs: Iterable[SampleSpec], path: str | Path
) -> int:
    """Write sample specs as a JSON-lines trace; returns the count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for spec in specs:
            sample = spec.sample
            fh.write(json.dumps({
                "sha256": sample.sha256,
                "file_type": sample.file_type,
                "malicious": sample.malicious,
                "first_seen": sample.first_seen,
                "scan_times": list(spec.scan_times),
                "size_bytes": sample.size_bytes,
                "family": sample.family,
            }, sort_keys=True) + "\n")
            count += 1
    return count


def export_scenario_trace(config: ScenarioConfig, path: str | Path) -> int:
    """Export the population a scenario would generate."""
    return export_trace(PopulationGenerator(config), path)


def load_trace(path: str | Path) -> Iterator[SampleSpec]:
    """Read a JSON-lines trace back into sample specs.

    Validates each record; raises :class:`~repro.errors.ConfigError` with
    the offending line number on malformed input.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                file_type = record["file_type"]
                if file_type not in FILE_TYPES:
                    raise KeyError(f"unknown file type {file_type!r}")
                scan_times = [int(t) for t in record["scan_times"]]
                if not scan_times:
                    raise KeyError("empty scan_times")
                if any(b <= a for a, b in zip(scan_times, scan_times[1:], strict=False)):
                    raise KeyError("scan_times must be strictly increasing")
                sample = Sample(
                    sha256=record["sha256"],
                    file_type=file_type,
                    malicious=bool(record["malicious"]),
                    first_seen=int(record["first_seen"]),
                    size_bytes=int(record.get("size_bytes", 65536)),
                    family=record.get("family"),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ConfigError(
                    f"{path}:{lineno}: invalid trace record: {exc}"
                ) from exc
            yield SampleSpec(sample=sample, scan_times=tuple(scan_times))


def replay_trace(
    path: str | Path,
    seed: int = 0,
    fleet: EngineFleet | None = None,
    block_records: int = 256,
) -> tuple[VirusTotalService, ReportStore]:
    """Run a trace through the full scan pipeline.

    Returns the populated service and the sealed report store.  The
    engine behaviour is still governed by ``seed`` (and the trace's
    sample hashes), so replaying the same trace twice is deterministic.
    """
    if fleet is None:
        fleet = default_fleet(seed)
    service = VirusTotalService(fleet=fleet, seed=seed)
    store = ReportStore(block_records=block_records)
    feed = PremiumFeed(service)

    events: list[tuple[int, Sample, int]] = []
    for spec in load_trace(path):
        # Register a clone; the service backfills the pre-window
        # submission at registration time (Table 1 state for files that
        # predate the window), leaving the loaded spec untouched.
        sample = spec.sample.clone()
        service.register(sample)
        for ordinal, when in enumerate(spec.scan_times):
            events.append((when, sample, ordinal))
    events.sort(key=lambda e: (e[0], e[1].sha256, e[2]))

    with feed:
        for i, (when, sample, ordinal) in enumerate(events):
            if ordinal == 0 and sample.fresh:
                service.upload(sample, when)
            else:
                service.rescan(sample, when)
            if i % 10_000 == 0:
                store.ingest_batch(feed.poll())
        store.ingest_batch(feed.poll())
    store.close()
    return service, store
