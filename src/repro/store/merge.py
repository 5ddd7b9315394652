"""Frozen-shard merge: splice K sharded stores into one, in key order.

The parallel scenario engine (:mod:`repro.parallel`) runs each sample
shard's generate→scan→ingest loop in its own process, producing K frozen
:class:`~repro.store.reportstore.ReportStore` equivalents.  This module
owns the merge: interleave every shard's per-month record stream into a
single store whose record order — and therefore canonical
:meth:`~repro.store.reportstore.ReportStore.digest` — is byte-identical
to the serial run's.

The merge works on *encoded records*, never decoding a report:

* each source month arrives as compressed blocks plus three parallel
  per-record arrays — a globally unique, per-stream non-decreasing sort
  ``key``, the record's ``sha256`` and its ``scan_time`` — which is
  everything needed to order records and rebuild the per-sample index
  without touching payload bytes;
* a K-way merge interleaves records by key; output blocks freeze every
  ``block_records`` records, exactly as live ingest would have, so the
  merged block layout (and each block's zlib payload) matches the serial
  store's bit for bit;
* **block splice fast path**: when one stream's entire next block sorts
  before every other stream's head (and the output buffer is at a block
  boundary), the compressed block is adopted wholesale — no decompress,
  no recompress.  Shards that do not overlap in time merge at block
  granularity; overlapping regions fall back to record-level interleave,
  decompressing each source block at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigError
from repro.obs import traced
from repro.store.cache import DEFAULT_CACHE_BYTES
from repro.store.reportstore import ReportStore
from repro.store.shard import DEFAULT_BLOCK_RECORDS, CompressedBlock, MonthlyShard


@dataclass
class FrozenMonth:
    """One source shard's records for one month, ready to merge.

    ``keys``/``shas``/``scan_times`` are parallel arrays with one entry
    per record, in block order.  Keys must be non-decreasing within the
    month and globally unique across all sources being merged (the
    parallel runner uses ``(scan_time, global_sample_index)``).
    """

    blocks: list[CompressedBlock]
    report_count: int
    verbose_bytes: int
    encoded_bytes: int
    keys: list = field(repr=False)
    shas: list[str] = field(repr=False)
    scan_times: list[int] = field(repr=False)

    def __post_init__(self) -> None:
        n = sum(b.record_count for b in self.blocks)
        if not (len(self.keys) == len(self.shas)
                == len(self.scan_times) == n == self.report_count):
            raise ConfigError(
                f"frozen month metadata mismatch: {len(self.keys)} keys, "
                f"{len(self.shas)} shas, {len(self.scan_times)} scan times "
                f"for {n} block records ({self.report_count} counted)"
            )


@dataclass
class FrozenShard:
    """One source shard: its months plus the per-sample metadata."""

    months: dict[int, FrozenMonth]
    sample_meta: dict[str, tuple[str, bool]]


class _Stream:
    """Cursor over one source month's record stream."""

    __slots__ = ("blocks", "keys", "shas", "scan_times", "meta",
                 "pos", "n", "block_idx", "block_start", "_records",
                 "blocks_spliced", "blocks_decompressed")

    def __init__(self, month: FrozenMonth, meta: dict[str, tuple[str, bool]]):
        self.blocks = month.blocks
        self.keys = month.keys
        self.shas = month.shas
        self.scan_times = month.scan_times
        self.meta = meta
        self.pos = 0
        self.n = len(month.keys)
        self.block_idx = 0
        self.block_start = 0
        self._records: list[bytes] | None = None
        self.blocks_spliced = 0
        self.blocks_decompressed = 0

    @property
    def exhausted(self) -> bool:
        return self.pos >= self.n

    @property
    def key(self):
        return self.keys[self.pos]

    def block_span(self) -> tuple[int, int]:
        """``(start, end)`` record positions of the current block."""
        end = self.block_start + self.blocks[self.block_idx].record_count
        return self.block_start, end

    def at_block_start(self) -> bool:
        return self.pos == self.block_start

    def take_record(self) -> bytes:
        """The current record's encoded bytes (decompressing lazily)."""
        if self._records is None:
            self._records = self.blocks[self.block_idx].records()
            self.blocks_decompressed += 1
        record = self._records[self.pos - self.block_start]
        self._advance(1)
        return record

    def take_block(self) -> CompressedBlock:
        """Adopt the whole current block without decompressing it."""
        block = self.blocks[self.block_idx]
        self.blocks_spliced += 1
        self._advance(block.record_count)
        return block

    def _advance(self, count: int) -> None:
        self.pos += count
        _, end = self.block_span()
        if self.pos >= end and self.pos < self.n:
            self.block_idx += 1
            self.block_start = end
            self._records = None


@dataclass(frozen=True)
class MergeStats:
    """How the merge moved data: spliced vs re-blocked."""

    months: int
    records: int
    blocks_spliced: int
    blocks_decompressed: int
    blocks_recompressed: int


def _merge_streams(streams, block_records, on_record, on_block):
    """The K-way merge core, shared by every merge entry point.

    ``on_record(stream, at, block_idx, slot)`` fires once per record in
    output order with the record's destination slot address (``block_idx``
    counts output blocks of this month, ``slot`` positions within the
    block); ``on_block(block)`` appends each finished output block.
    Output blocks hold exactly ``block_records`` records apart from the
    final partial one, so the output layout is a pure function of the
    merged record sequence — *not* of how the sources were blocked or
    grouped.  That invariant is what lets the streaming merge fold runs
    in completion order and still converge on the serial store bit for
    bit.

    Returns ``(spliced, decompressed, recompressed)`` block counts.
    """
    streams = list(streams)
    buffer: list[bytes] = []
    n_blocks = 0
    spliced = decompressed = recompressed = 0
    while streams:
        stream = min(streams, key=lambda s: s.key)
        start, end = stream.block_span()
        block = stream.blocks[stream.block_idx]
        can_splice = (
            not buffer
            and stream.at_block_start()
            and block.record_count == block_records
            and all(s is stream or stream.keys[end - 1] < s.key
                    for s in streams)
        )
        if can_splice:
            for slot, at in enumerate(range(start, end)):
                on_record(stream, at, n_blocks, slot)
            on_block(stream.take_block())
            n_blocks += 1
        else:
            on_record(stream, stream.pos, n_blocks, len(buffer))
            buffer.append(stream.take_record())
            if len(buffer) >= block_records:
                on_block(CompressedBlock.from_records(buffer))
                n_blocks += 1
                recompressed += 1
                buffer = []
        if stream.exhausted:
            spliced += stream.blocks_spliced
            decompressed += stream.blocks_decompressed
            streams.remove(stream)
    if buffer:
        on_block(CompressedBlock.from_records(buffer))
        recompressed += 1
    return spliced, decompressed, recompressed


@traced("store.merge.seconds")
def concat_frozen(
    sources: Sequence[FrozenShard],
    block_records: int = DEFAULT_BLOCK_RECORDS,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    metrics=None,
) -> tuple[ReportStore, MergeStats]:
    """Merge frozen shards into one sealed store, in global key order.

    Returns the store plus :class:`MergeStats`.  The store is
    indistinguishable from one that ingested the same records serially in
    key order with the same ``block_records``: identical block layout,
    identical per-month accounting, identical index — and therefore an
    identical canonical digest and an identical ``save()`` file.
    """
    store = ReportStore(block_records=block_records, cache_bytes=cache_bytes,
                        metrics=metrics)
    months = sorted({m for src in sources for m in src.months})
    total_records = 0
    spliced = decompressed = recompressed = 0

    for month in months:
        present = [src for src in sources if month in src.months]
        streams = [
            _Stream(src.months[month], src.sample_meta)
            for src in present
            if src.months[month].report_count
        ]
        dest = MonthlyShard(month, block_records=block_records)
        dest.report_count = sum(src.months[month].report_count
                                for src in present)
        dest.verbose_bytes = sum(src.months[month].verbose_bytes
                                 for src in present)
        dest.encoded_bytes = sum(src.months[month].encoded_bytes
                                 for src in present)
        total_records += dest.report_count

        def register(stream: _Stream, at: int, block_idx: int,
                     slot: int) -> None:
            sha = stream.shas[at]
            scan_time = stream.scan_times[at]
            # Index entries carry the scan time so point lookups
            # (latest_report) never decode a block to find "latest".
            store._index.setdefault(sha, []).append(
                (month, block_idx, slot, scan_time))
            store._scan_index.setdefault(sha, set()).add(scan_time)
            if sha not in store._sample_meta:
                store._sample_meta[sha] = stream.meta[sha]

        s, d, r = _merge_streams(streams, block_records,
                                 register, dest.blocks.append)
        spliced += s
        decompressed += d
        recompressed += r
        dest.closed = True
        store.shards[month] = dest

    store.closed = True
    stats = MergeStats(
        months=len(months),
        records=total_records,
        blocks_spliced=spliced,
        blocks_decompressed=decompressed,
        blocks_recompressed=recompressed,
    )
    return store, stats


def merge_frozen(
    sources: Sequence[FrozenShard],
    block_records: int = DEFAULT_BLOCK_RECORDS,
) -> tuple[FrozenShard, MergeStats]:
    """Merge frozen shards into one *frozen shard*, in global key order.

    The frozen→frozen counterpart of :func:`concat_frozen`: same K-way
    loop, but the result stays mergeable — the streaming merge uses it to
    fold completed shards together long before the last one arrives,
    deferring store/index construction to the final pass.
    """
    months_out: dict[int, FrozenMonth] = {}
    sample_meta: dict[str, tuple[str, bool]] = {}
    total_records = 0
    spliced = decompressed = recompressed = 0

    for month in sorted({m for src in sources for m in src.months}):
        present = [src for src in sources if month in src.months]
        streams = [
            _Stream(src.months[month], src.sample_meta)
            for src in present
            if src.months[month].report_count
        ]
        blocks: list[CompressedBlock] = []
        keys: list = []
        shas: list[str] = []
        scan_times: list[int] = []

        def collect(stream: _Stream, at: int, block_idx: int,
                    slot: int) -> None:
            keys.append(stream.keys[at])
            shas.append(stream.shas[at])
            scan_times.append(stream.scan_times[at])
            sha = stream.shas[at]
            if sha not in sample_meta:
                sample_meta[sha] = stream.meta[sha]

        s, d, r = _merge_streams(streams, block_records,
                                 collect, blocks.append)
        spliced += s
        decompressed += d
        recompressed += r
        report_count = sum(src.months[month].report_count for src in present)
        total_records += report_count
        months_out[month] = FrozenMonth(
            blocks=blocks,
            report_count=report_count,
            verbose_bytes=sum(src.months[month].verbose_bytes
                              for src in present),
            encoded_bytes=sum(src.months[month].encoded_bytes
                              for src in present),
            keys=keys,
            shas=shas,
            scan_times=scan_times,
        )

    stats = MergeStats(
        months=len(months_out),
        records=total_records,
        blocks_spliced=spliced,
        blocks_decompressed=decompressed,
        blocks_recompressed=recompressed,
    )
    return FrozenShard(months=months_out, sample_meta=sample_meta), stats


class StreamingMerge:
    """Incrementally merge frozen shards as they complete.

    The elastic scheduler hands over shards in *completion* order, which
    under chaos bears no relation to shard order.  ``add()`` appends each
    shard as a run and folds neighbouring runs whenever the second-newest
    is no more than twice the newest (the classic logarithmic run stack),
    so merge work overlaps shard execution and no more than
    ``O(log n_shards)`` runs are ever held.  ``finish()`` concatenates
    the surviving runs into the sealed store.

    Order-independence is structural, not probabilistic: merge keys are
    globally unique, and :func:`_merge_streams` re-blocks output purely
    by record sequence, so any fold order converges to the same final
    store — identical digest, identical ``save()`` bytes.  Only
    :class:`MergeStats` (how much was spliced vs re-blocked along the
    way) varies with fold order; ``records`` always equals the final
    store's report count.
    """

    def __init__(self, block_records: int = DEFAULT_BLOCK_RECORDS,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 metrics=None) -> None:
        self._block_records = block_records
        self._cache_bytes = cache_bytes
        self._metrics = metrics
        self._runs: list[FrozenShard] = []
        self._counts: list[int] = []
        self._spliced = 0
        self._decompressed = 0
        self._recompressed = 0
        #: How many incremental fold passes add() performed.
        self.folds = 0

    @staticmethod
    def _size(shard: FrozenShard) -> int:
        return sum(m.report_count for m in shard.months.values())

    def add(self, shard: FrozenShard) -> None:
        """Accept one completed shard, folding runs as the stack allows."""
        self._runs.append(shard)
        self._counts.append(self._size(shard))
        while (len(self._runs) > 1
               and self._counts[-2] <= 2 * self._counts[-1]):
            merged, stats = merge_frozen(self._runs[-2:],
                                         block_records=self._block_records)
            self._runs[-2:] = [merged]
            self._counts[-2:] = [stats.records]
            self._spliced += stats.blocks_spliced
            self._decompressed += stats.blocks_decompressed
            self._recompressed += stats.blocks_recompressed
            self.folds += 1

    def finish(self) -> tuple[ReportStore, MergeStats]:
        """Concatenate the surviving runs into one sealed store."""
        store, stats = concat_frozen(self._runs,
                                     block_records=self._block_records,
                                     cache_bytes=self._cache_bytes,
                                     metrics=self._metrics)
        self._runs = []
        self._counts = []
        return store, MergeStats(
            months=stats.months,
            records=stats.records,
            blocks_spliced=stats.blocks_spliced + self._spliced,
            blocks_decompressed=stats.blocks_decompressed
            + self._decompressed,
            blocks_recompressed=stats.blocks_recompressed
            + self._recompressed,
        )
