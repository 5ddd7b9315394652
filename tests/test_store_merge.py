"""Frozen-shard merge: block splicing, interleave, validation.

Built on hand-made frozen shards so the block-splice fast path and the
record-level interleave can each be forced deliberately — the end-to-end
equivalence gate lives in ``test_parallel.py``.
"""

from __future__ import annotations

import pytest

from conftest import ingest_rows, make_report, make_sha
from repro.errors import ConfigError
from repro.store import codec
from repro.store.merge import FrozenMonth, FrozenShard, concat_frozen
from repro.store.reportstore import ReportStore
from repro.store.shard import CompressedBlock
from repro.vt.clock import month_index

BLOCK = 4  # tiny block size so a handful of reports spans several blocks


def _reports(indices, scan_time_of):
    """One single-scan report per index, keyed ``(scan_time, index)``."""
    out = []
    for i in indices:
        t = scan_time_of(i)
        out.append(((t, i), make_report(sha=make_sha(f"s{i}"),
                                        scan_time=t, first_submission=0)))
    return out


def _freeze(keyed_reports, block_records=BLOCK) -> FrozenShard:
    """Package ``(key, report)`` pairs the way a worker would."""
    by_month: dict[int, list] = {}
    for key, report in keyed_reports:
        by_month.setdefault(month_index(report.scan_time), []).append(
            (key, report))
    months = {}
    for month, items in by_month.items():
        records = [codec.encode_report(r) for _, r in items]
        months[month] = FrozenMonth(
            blocks=[CompressedBlock.from_records(records[i:i + block_records])
                    for i in range(0, len(records), block_records)],
            report_count=len(records),
            verbose_bytes=sum(codec.verbose_json_size(r) for _, r in items),
            encoded_bytes=sum(len(rec) for rec in records),
            keys=[k for k, _ in items],
            shas=[r.sha256 for _, r in items],
            scan_times=[r.scan_time for _, r in items],
        )
    meta = {}
    for _, r in keyed_reports:
        meta.setdefault(r.sha256, (r.file_type, r.first_submission_date >= 0))
    return FrozenShard(months=months, sample_meta=meta)


def _serial_reference(all_keyed, block_records=BLOCK,
                      fill=ingest_rows) -> ReportStore:
    """What serial ingest of the same records in key order produces."""
    store = ReportStore(block_records=block_records)
    fill(store, [r for _, r in sorted(all_keyed, key=lambda kr: kr[0])])
    store.close()
    return store


def test_interleaved_merge_matches_serial_ingest(store_fill):
    a = _reports(range(0, 10, 2), lambda i: 1000 + i)   # even minutes
    b = _reports(range(1, 10, 2), lambda i: 1000 + i)   # odd minutes
    merged, stats = concat_frozen([_freeze(a), _freeze(b)],
                                  block_records=BLOCK)
    reference = _serial_reference(a + b, fill=store_fill)
    assert merged.digest() == reference.digest()
    assert merged.report_count == 10
    assert stats.records == 10
    # Fully interleaved: nothing can splice, every block decompresses.
    assert stats.blocks_spliced == 0
    assert stats.blocks_decompressed == len(_freeze(a).months[0].blocks) + \
        len(_freeze(b).months[0].blocks)


def test_disjoint_full_blocks_splice_without_decompression(store_fill):
    a = _reports(range(0, 8), lambda i: 1000 + i)       # 2 full blocks
    b = _reports(range(8, 16), lambda i: 2000 + i)      # strictly later
    merged, stats = concat_frozen([_freeze(a), _freeze(b)],
                                  block_records=BLOCK)
    reference = _serial_reference(a + b, fill=store_fill)
    assert merged.digest() == reference.digest()
    # Spliced blocks are adopted untouched, so the merged blocks equal
    # the serial reference's byte for byte on either ingest path.
    assert stats.blocks_spliced == 4
    assert stats.blocks_decompressed == 0
    assert stats.blocks_recompressed == 0
    assert [b.payload for s in merged.shards.values() for b in s.blocks] == \
        [b.payload for s in reference.shards.values() for b in s.blocks]


def test_partial_tail_block_interleaves(store_fill):
    a = _reports(range(0, 6), lambda i: 1000 + i)       # 1 full + 1 partial
    b = _reports(range(6, 12), lambda i: 2000 + i)
    merged, stats = concat_frozen([_freeze(a), _freeze(b)],
                                  block_records=BLOCK)
    assert merged.digest() == \
        _serial_reference(a + b, fill=store_fill).digest()
    # a's full first block splices; its 2-record tail forces the buffer
    # open, so b's records re-block from there.
    assert stats.blocks_spliced == 1
    assert stats.blocks_decompressed >= 1
    assert stats.blocks_recompressed >= 1


def test_merged_store_is_sealed_and_indexed():
    a = _reports(range(0, 5), lambda i: 1000 + i)
    b = _reports(range(5, 9), lambda i: 1500 + i)
    merged, _ = concat_frozen([_freeze(a), _freeze(b)],
                              block_records=BLOCK)
    assert merged.closed
    assert merged.sample_count == 9
    for _key, report in a + b:
        assert report.sha256 in merged
        got = merged.reports_for(report.sha256)
        assert [r.scan_time for r in got] == [report.scan_time]
        assert merged.sample_file_type(report.sha256) == report.file_type
        assert merged.has_report(report.sha256, report.scan_time)


def test_multi_month_merge_keeps_months_separate():
    from repro.vt.clock import MONTH_STARTS

    month_minutes = MONTH_STARTS[1]
    a = _reports(range(0, 4), lambda i: 100 + i)
    b = _reports(range(4, 8), lambda i: month_minutes + 100 + i)
    merged, stats = concat_frozen([_freeze(a), _freeze(b)],
                                  block_records=BLOCK)
    assert stats.months == 2
    assert sorted(merged.shards) == [month_index(100),
                                     month_index(month_minutes + 100)]
    assert merged.digest() == _serial_reference(a + b).digest()


def test_empty_sources_merge_to_empty_store():
    merged, stats = concat_frozen([], block_records=BLOCK)
    assert merged.report_count == 0
    assert stats.records == 0
    assert merged.closed


def test_frozen_month_rejects_mismatched_metadata():
    keyed = _reports(range(3), lambda i: 1000 + i)
    records = [codec.encode_report(r) for _, r in keyed]
    with pytest.raises(ConfigError):
        FrozenMonth(
            blocks=[CompressedBlock.from_records(records)],
            report_count=3,
            verbose_bytes=0,
            encoded_bytes=0,
            keys=[k for k, _ in keyed],
            shas=[r.sha256 for _, r in keyed[:2]],  # one sha short
            scan_times=[r.scan_time for _, r in keyed],
        )


def test_merge_accounting_matches_serial():
    a = _reports(range(0, 7), lambda i: 1000 + 3 * i)
    b = _reports(range(7, 13), lambda i: 1001 + 3 * i)
    merged, _ = concat_frozen([_freeze(a), _freeze(b)],
                              block_records=BLOCK)
    reference = _serial_reference(a + b)
    month = month_index(1000)
    assert merged.shards[month].verbose_bytes == \
        reference.shards[month].verbose_bytes
    assert merged.shards[month].encoded_bytes == \
        reference.shards[month].encoded_bytes
    assert merged.stats().total_reports == reference.stats().total_reports
