"""Unit tests for monthly shards (repro.store.shard)."""

import pytest

from repro.errors import ShardClosedError
from repro.store.codec import encode_report
from repro.store.shard import CompressedBlock, MonthlyShard
from tests.conftest import make_report, make_sha


def _records(n: int) -> list[bytes]:
    """``n`` distinct encoded reports (blocks freeze real records)."""
    return [encode_report(make_report(sha=make_sha(f"record-{i}"),
                                      scan_time=i, labels=[i % 2] * 5))
            for i in range(n)]


A, B, C = _records(3)


class TestCompressedBlock:
    def test_round_trip(self):
        records = _records(10)
        block = CompressedBlock.from_records(records)
        assert block.records() == records
        assert block.record_count == 10

    def test_compression_shrinks_repetitive_data(self):
        wide = encode_report(make_report(n_engines=70))
        block = CompressedBlock.from_records([wide] * 20)
        assert block.compressed_bytes < block.raw_bytes / 10


class TestMonthlyShard:
    def test_append_returns_stable_addresses(self):
        shard = MonthlyShard(month=0, block_records=3)
        addresses = [shard.append(r, 100) for r in _records(7)]
        assert addresses == [(0, 0), (0, 1), (0, 2),
                             (1, 0), (1, 1), (1, 2),
                             (2, 0)]

    def test_blocks_freeze_at_block_records(self):
        shard = MonthlyShard(month=0, block_records=3)
        for r in _records(7):
            shard.append(r, 100)
        assert len(shard.blocks) == 2  # two frozen, one open buffer

    def test_record_at_spans_frozen_and_open(self):
        shard = MonthlyShard(month=0, block_records=3)
        records = _records(5)
        for r in records:
            shard.append(r, 100)
        assert shard.record_at(0, 1) == records[1]
        assert shard.record_at(1, 1) == records[4]  # still in buffer

    def test_record_at_out_of_range(self):
        shard = MonthlyShard(month=0, block_records=3)
        shard.append(A, 10)
        with pytest.raises(IndexError):
            shard.record_at(5, 0)
        with pytest.raises(IndexError):
            shard.record_at(0, 9)

    def test_iter_records_preserves_order(self):
        shard = MonthlyShard(month=0, block_records=2)
        records = _records(5)
        for r in records:
            shard.append(r, 100)
        assert list(shard.iter_records()) == records

    def test_flush_freezes_partial_buffer(self):
        shard = MonthlyShard(month=0, block_records=100)
        shard.append(A, 10)
        shard.flush()
        assert len(shard.blocks) == 1
        assert shard.blocks[0].record_count == 1

    def test_close_seals_shard(self):
        shard = MonthlyShard(month=0)
        shard.append(A, 10)
        shard.close()
        assert shard.closed
        with pytest.raises(ShardClosedError):
            shard.append(B, 10)

    def test_accounting(self):
        shard = MonthlyShard(month=2, block_records=2)
        for r in _records(4):
            shard.append(r, verbose_size=500)
        assert shard.report_count == 4
        assert shard.verbose_bytes == 2000
        assert shard.encoded_bytes == sum(len(r) for r in _records(4))
        assert shard.compressed_bytes > 0

    def test_open_buffer_counted_as_buffered_not_compressed(self):
        # Regression: the open buffer's raw record bytes used to be
        # reported as "compressed" size, skewing Table 2 ratios.
        shard = MonthlyShard(month=0, block_records=100)
        shard.append(A, 10)
        assert shard.compressed_bytes == 0
        assert shard.buffered_bytes == len(A)
        assert shard.stored_bytes == len(A)
        shard.flush()
        assert shard.buffered_bytes == 0
        assert shard.compressed_bytes > 0
        assert shard.stored_bytes == shard.compressed_bytes

    def test_generation_bumps_on_append_and_flush(self):
        shard = MonthlyShard(month=0, block_records=100)
        assert shard.generation == 0
        shard.append(A, 1)
        shard.append(B, 1)
        assert shard.generation == 2
        shard.flush()
        assert shard.generation == 3
        shard.flush()  # empty buffer: no mutation
        assert shard.generation == 3

    def test_buffered_records_is_a_snapshot(self):
        shard = MonthlyShard(month=0, block_records=100)
        shard.append(A, 1)
        snapshot = shard.buffered_records()
        shard.append(B, 1)
        assert snapshot == [A]
        assert shard.buffered_records() == [A, B]

    def test_iter_record_blocks_covers_frozen_and_open(self):
        shard = MonthlyShard(month=0, block_records=2)
        for r in (A, B, C):
            shard.append(r, 1)
        blocks = list(shard.iter_record_blocks())
        assert blocks == [(0, [A, B]), (1, [C])]
