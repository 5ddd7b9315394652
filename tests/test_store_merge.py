"""Frozen-shard merge: serial order, serial block bytes, validation.

Built on hand-made frozen shards so interleaved, disjoint, partial-tail,
multi-month and same-minute layouts can each be forced deliberately —
the end-to-end equivalence gate lives in ``test_parallel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ingest_rows, make_report, make_sha
from repro.errors import ConfigError
from repro.store import codec, merge
from repro.store.merge import FrozenMonth, merge_shards
from repro.store.reportstore import ReportStore
from repro.store.shard import CompressedBlock
from repro.vt.clock import MONTH_STARTS, month_index

BLOCK = 4  # tiny block size so a handful of reports spans several blocks


def _reports(indices, scan_time_of):
    """One single-scan report per global sample index."""
    return [(i, make_report(sha=make_sha(f"s{i}"), scan_time=scan_time_of(i),
                            first_submission=0))
            for i in indices]


def _freeze(indexed_reports, block_records=BLOCK) -> dict[int, FrozenMonth]:
    """Package ``(global index, report)`` pairs the way a worker would."""
    by_month: dict[int, list] = {}
    for index, report in indexed_reports:
        by_month.setdefault(month_index(report.scan_time), []).append(
            (index, report))
    months = {}
    for month, items in by_month.items():
        records = [codec.encode_report(r) for _, r in items]
        months[month] = FrozenMonth(
            blocks=[CompressedBlock.from_records(records[i:i + block_records])
                    for i in range(0, len(records), block_records)],
            keys=np.asarray([i for i, _ in items], "<i8"),
        )
    return months


def _serial_reference(all_indexed, block_records=BLOCK,
                      fill=ingest_rows) -> ReportStore:
    """What serial ingest of the same records produces: they arrive in
    ``(scan_time, global index)`` order."""
    store = ReportStore(block_records=block_records)
    ordered = sorted(all_indexed, key=lambda ir: (ir[1].scan_time, ir[0]))
    fill(store, [r for _, r in ordered])
    store.close()
    return store


def _payloads(store: ReportStore) -> list[bytes]:
    return [bytes(b.payload) for month in sorted(store.shards)
            for b in store.shards[month].blocks]


def _assert_matches_serial(merged: ReportStore, reference: ReportStore):
    assert merged.digest() == reference.digest()
    # Both sides freeze through the same columnar path, so the merged
    # blocks equal the serial reference's byte for byte.
    assert _payloads(merged) == _payloads(reference)


def test_interleaved_merge_matches_serial_ingest(store_fill):
    a = _reports(range(0, 10, 2), lambda i: 1000 + i)   # even minutes
    b = _reports(range(1, 10, 2), lambda i: 1000 + i)   # odd minutes
    merged, stats = merge_shards([_freeze(a), _freeze(b)],
                                 block_records=BLOCK)
    _assert_matches_serial(merged,
                           _serial_reference(a + b, fill=store_fill))
    assert merged.report_count == 10
    assert stats.records == 10
    assert stats.blocks_recompressed == 3  # 4 + 4 + 2 records


def test_disjoint_shards_merge_to_serial_blocks(store_fill):
    a = _reports(range(0, 8), lambda i: 1000 + i)       # 2 full blocks
    b = _reports(range(8, 16), lambda i: 2000 + i)      # strictly later
    merged, stats = merge_shards([_freeze(a), _freeze(b)],
                                 block_records=BLOCK)
    _assert_matches_serial(merged,
                           _serial_reference(a + b, fill=store_fill))
    assert stats.blocks_recompressed == 4


def test_partial_tail_block_interleaves(store_fill):
    a = _reports(range(0, 6), lambda i: 1000 + i)       # 1 full + 1 partial
    b = _reports(range(6, 12), lambda i: 2000 + i)
    merged, _ = merge_shards([_freeze(a), _freeze(b)], block_records=BLOCK)
    _assert_matches_serial(merged,
                           _serial_reference(a + b, fill=store_fill))


def test_same_minute_scans_order_by_global_index(monkeypatch):
    # Different samples scanned in the same minutes: only the global
    # index can restore serial order, and a's records come first in the
    # concatenated month although b holds the lower indices.
    a = _reports(range(1, 12, 2), lambda i: 1000 + i // 4)
    b = _reports(range(0, 12, 2), lambda i: 1000 + i // 4)
    reference = _serial_reference(a + b)
    for sources in ([_freeze(a), _freeze(b)], [_freeze(b), _freeze(a)]):
        merged, _ = merge_shards(sources, block_records=BLOCK)
        _assert_matches_serial(merged, reference)

    class _ScanTimeOnly:
        """numpy, except that lexsort orders by its primary key alone."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def lexsort(keys):
            return np.argsort(keys[-1], kind="stable")

    monkeypatch.setattr(merge, "np", _ScanTimeOnly())
    planted, _ = merge_shards([_freeze(a), _freeze(b)], block_records=BLOCK)
    assert planted.report_count == reference.report_count
    assert planted.digest() != reference.digest()


def test_merged_store_is_sealed_and_indexed():
    a = _reports(range(0, 5), lambda i: 1000 + i)
    b = _reports(range(5, 9), lambda i: 1500 + i)
    merged, _ = merge_shards([_freeze(a), _freeze(b)], block_records=BLOCK)
    assert merged.closed
    assert merged.sample_count == 9
    for _index, report in a + b:
        assert report.sha256 in merged
        got = merged.reports_for(report.sha256)
        assert [r.scan_time for r in got] == [report.scan_time]
        assert merged.sample_file_type(report.sha256) == report.file_type
        assert merged.has_report(report.sha256, report.scan_time)


def test_multi_month_merge_keeps_months_separate():
    month_minutes = MONTH_STARTS[1]
    a = _reports(range(0, 4), lambda i: 100 + i)
    b = _reports(range(4, 8), lambda i: month_minutes + 100 + i)
    merged, stats = merge_shards([_freeze(a), _freeze(b)],
                                 block_records=BLOCK)
    assert stats.months == 2
    assert sorted(merged.shards) == [month_index(100),
                                     month_index(month_minutes + 100)]
    _assert_matches_serial(merged, _serial_reference(a + b))


def test_empty_sources_merge_to_empty_store():
    merged, stats = merge_shards([], block_records=BLOCK)
    assert merged.report_count == 0
    assert stats.records == 0
    assert merged.closed


def test_frozen_month_rejects_mismatched_metadata():
    indexed = _reports(range(3), lambda i: 1000 + i)
    records = [codec.encode_report(r) for _, r in indexed]
    with pytest.raises(ConfigError):
        FrozenMonth(
            blocks=[CompressedBlock.from_records(records)],
            keys=np.arange(2, dtype="<i8"),  # one key short
        )


def test_merge_accounting_matches_serial():
    a = _reports(range(0, 7), lambda i: 1000 + 3 * i)
    b = _reports(range(7, 13), lambda i: 1001 + 3 * i)
    merged, _ = merge_shards([_freeze(a), _freeze(b)], block_records=BLOCK)
    reference = _serial_reference(a + b)
    month = month_index(1000)
    assert merged.shards[month].verbose_bytes == \
        reference.shards[month].verbose_bytes
    assert merged.shards[month].encoded_bytes == \
        reference.shards[month].encoded_bytes
    assert merged.stats().total_reports == reference.stats().total_reports
