"""Monthly shards of compressed report blocks.

The paper stores its dataset "by month" (Table 2).  A :class:`MonthlyShard`
accumulates encoded report records, freezing them into zlib-compressed
:class:`CompressedBlock` units of a fixed record count.  Blocks are the
random-access granularity: the store's per-sample index addresses a report
as ``(month, block, slot)`` and only that block must be decompressed to
fetch it.

Blocks freeze in the columnar layout of :mod:`repro.store.columnar`
(RPR3, dictionary/delta-encoded columns), which decodes back to the
identical record bytes, and compress at one fixed zlib level, so a
block's payload is a pure function of its record sequence.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import (
    BlockAddressError,
    CorruptRecordError,
    ShardClosedError,
)
from repro.store import codec
from repro.store.columnar import ColumnarBatch, encode_columnar

#: Default records per compressed block.
DEFAULT_BLOCK_RECORDS = 256

#: zlib level.  The dictionary/delta/XOR pre-conditioning has already
#: removed most entropy (the planes are near-all-zero), so the fast level
#: costs about one point of ratio and halves the freeze cost.  The store
#: digest covers decompressed record bytes, so the level is not part of
#: the digest contract; but every site that freezes a block must use this
#: one level, or saved files stop being byte-identical across the serial,
#: merged and reloaded paths.
_BLOCK_ZLIB_LEVEL = 1


@dataclass(frozen=True)
class CompressedBlock:
    """One immutable zlib-compressed run of report records."""

    payload: bytes
    record_count: int
    raw_bytes: int

    @property
    def compressed_bytes(self) -> int:
        return len(self.payload)

    def records(self) -> list[bytes]:
        """Decompress and split the block into its records."""
        try:
            framed = zlib.decompress(self.payload)
        except zlib.error as exc:
            raise CorruptRecordError(
                f"undecompressable block: {exc}") from exc
        return codec.decode_block(framed)

    def batch(self, planes: bool = True) -> ColumnarBatch:
        """Decode the block into a columnar batch.

        With ``planes=False`` only the fixed-column prefix is
        decompressed (the label/version planes stay compressed).
        """
        return codec.decode_compressed_batch(self.payload, planes=planes)

    @classmethod
    def from_records(cls, records: list[bytes]) -> "CompressedBlock":
        """Freeze encoded records (bulk-parsed into columns first)."""
        return cls.from_batch(ColumnarBatch.from_records(records))

    @classmethod
    def from_batch(cls, batch: ColumnarBatch) -> "CompressedBlock":
        """Freeze a columnar batch directly (no row materialisation).

        Byte-identical to ``from_records(batch.to_records())``: the
        columnar encoding is a pure function of the record sequence.
        """
        framed = encode_columnar(batch)
        return cls(
            payload=zlib.compress(framed, _BLOCK_ZLIB_LEVEL),
            record_count=len(batch),
            raw_bytes=len(framed),
        )


@dataclass
class MonthlyShard:
    """All reports of one collection-window month.

    Appended records buffer until ``block_records`` accumulate, then the
    buffer freezes into a :class:`CompressedBlock`.  ``flush`` freezes a
    partial buffer; ``close`` flushes and rejects further appends.
    """

    month: int
    block_records: int = DEFAULT_BLOCK_RECORDS
    blocks: list[CompressedBlock] = field(default_factory=list)
    _buffer: list[bytes] = field(default_factory=list, repr=False)
    closed: bool = False
    report_count: int = 0
    #: Estimated verbose-JSON bytes of everything ingested (Table 2 size).
    verbose_bytes: int = 0
    #: Encoded (pre-compression) bytes of everything ingested.
    encoded_bytes: int = 0
    #: Mutation counter: bumped on every append and every flush.  Readers
    #: holding derived state (e.g. a snapshot of the open buffer) can
    #: stamp it with the generation and detect staleness.
    generation: int = 0

    def append(self, record: bytes, verbose_size: int) -> tuple[int, int]:
        """Add one encoded record; returns its ``(block, slot)`` address.

        The address is valid immediately: slots in the open buffer belong
        to the block that the buffer will freeze into.
        """
        if self.closed:
            raise ShardClosedError(f"shard for month {self.month} is closed")
        block_idx = len(self.blocks)
        slot = len(self._buffer)
        self._buffer.append(record)
        self.report_count += 1
        self.verbose_bytes += verbose_size
        self.encoded_bytes += len(record)
        self.generation += 1
        if len(self._buffer) >= self.block_records:
            self.flush()
        return block_idx, slot

    def extend_batch(self, batch: ColumnarBatch) -> None:
        """Bulk-append a columnar batch (the array-ingest fast path).

        Equivalent to appending ``batch.to_records()`` one by one —
        identical block layout, identical accounting — but full blocks
        are encoded straight from array slices, so no per-record bytes
        are ever materialised for them.
        """
        if self.closed:
            raise ShardClosedError(f"shard for month {self.month} is closed")
        n = len(batch)
        if n == 0:
            return
        pos = 0
        if self._buffer:
            # Top up the open buffer to a block boundary first.
            take = min(self.block_records - len(self._buffer), n)
            self._buffer.extend(batch.slice(0, take).to_records())
            pos = take
            if len(self._buffer) >= self.block_records:
                self.flush()
        while n - pos >= self.block_records:
            chunk = batch.slice(pos, pos + self.block_records)
            self.blocks.append(CompressedBlock.from_batch(chunk))
            pos += self.block_records
        if pos < n:
            self._buffer.extend(batch.slice(pos, n).to_records())
        self.report_count += n
        self.verbose_bytes += batch.verbose_bytes()
        self.encoded_bytes += batch.encoded_bytes()
        self.generation += 1

    def flush(self) -> None:
        """Freeze the open buffer into a compressed block."""
        if self._buffer:
            self.blocks.append(CompressedBlock.from_records(self._buffer))
            self._buffer = []
            self.generation += 1

    def close(self) -> None:
        """Flush and seal the shard."""
        self.flush()
        self.closed = True

    @property
    def compressed_bytes(self) -> int:
        """Compressed size of the frozen blocks — and only those.

        Records still sitting in the open buffer are *uncompressed*;
        counting them here (as an earlier revision did) inflated the
        "compressed" size of any unflushed shard with raw record bytes
        and skewed the Table 2 compression-rate accounting.  They are
        reported separately as :attr:`buffered_bytes`.
        """
        return sum(b.compressed_bytes for b in self.blocks)

    @property
    def buffered_bytes(self) -> int:
        """Raw encoded bytes waiting in the open (unsealed) buffer."""
        return sum(len(r) for r in self._buffer)

    @property
    def stored_bytes(self) -> int:
        """Actual resident payload: compressed blocks + raw buffer."""
        return self.compressed_bytes + self.buffered_bytes

    @property
    def open_record_count(self) -> int:
        """Records in the open buffer (0 once flushed or closed)."""
        return len(self._buffer)

    def buffered_records(self) -> list[bytes]:
        """A snapshot copy of the open buffer (safe across later appends)."""
        return list(self._buffer)

    def record_at(self, block_idx: int, slot: int) -> bytes:
        """Random access to one record by block address."""
        if block_idx < len(self.blocks):
            return self.blocks[block_idx].records()[slot]
        if block_idx == len(self.blocks) and slot < len(self._buffer):
            return self._buffer[slot]
        raise BlockAddressError(
            f"no record at block={block_idx} slot={slot}")

    def block_records_at(self, block_idx: int) -> list[bytes]:
        """All records of one block (decompressing frozen blocks)."""
        if block_idx < len(self.blocks):
            return self.blocks[block_idx].records()
        if block_idx == len(self.blocks):
            return list(self._buffer)
        raise BlockAddressError(f"no block {block_idx}")

    def iter_records(self) -> Iterator[bytes]:
        """All records in ingest order."""
        for block in self.blocks:
            yield from block.records()
        yield from self._buffer

    def iter_record_blocks(self) -> Iterator[tuple[int, list[bytes]]]:
        """``(block_idx, records)`` in order, decoding each block once.

        The open buffer, if any, is yielded last as a snapshot under the
        block index it will freeze into — the same index its records'
        addresses already carry.
        """
        for block_idx, block in enumerate(self.blocks):
            yield block_idx, block.records()
        if self._buffer:
            yield len(self.blocks), list(self._buffer)

    def iter_batches(self, planes: bool = True) -> Iterator[ColumnarBatch]:
        """Per-block columnar batches in order, buffer snapshot last.

        The columnar analogue of :meth:`iter_record_blocks`: frozen
        blocks decode straight to arrays (metadata-only when ``planes``
        is off), the open buffer bulk-parses its records.
        """
        for block in self.blocks:
            yield block.batch(planes=planes)
        if self._buffer:
            yield ColumnarBatch.from_records(list(self._buffer))
