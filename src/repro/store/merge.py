"""Frozen-shard merge: put K sharded stores back into serial order.

The parallel scenario engine (:mod:`repro.parallel`) runs each sample
shard's generate→scan→ingest loop in its own process, producing K frozen
stores.  This module owns the merge: one store whose record order — and
therefore canonical
:meth:`~repro.store.reportstore.ReportStore.digest` — is byte-identical
to the serial run's.

Each source month arrives as compressed columnar blocks plus one ``<i8``
array of global sample indices, one per record in block order.  For
every month the merge decodes all source blocks, concatenates them into
one :class:`~repro.store.columnar.ColumnarBatch`, sorts once by
``(scan_time, global_sample_index)`` — the serial ingest order — and
re-blocks through :meth:`~repro.store.shard.MonthlyShard.extend_batch`.
Every freeze site, serial ingest included, ends in
:meth:`~repro.store.shard.CompressedBlock.from_batch`, whose payload is
a pure function of the record sequence, so block payloads, per-month
accounting and the saved file are byte-identical to the serial store's
by construction.  The per-sample index and sample metadata are
left to the store's lazy rebuild, exactly as after
:meth:`~repro.store.reportstore.ReportStore.ingest_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.obs import traced
from repro.store.cache import DEFAULT_CACHE_BYTES
from repro.store.columnar import ColumnarBatch
from repro.store.reportstore import ReportStore
from repro.store.shard import DEFAULT_BLOCK_RECORDS, CompressedBlock, MonthlyShard


@dataclass
class FrozenMonth:
    """One source shard's records for one month, ready to merge.

    ``keys`` holds each record's global sample index, in block order.  A
    sample never scans twice in one minute, so ``(scan_time, key)`` is
    unique across every source being merged.
    """

    blocks: list[CompressedBlock]
    keys: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = sum(b.record_count for b in self.blocks)
        if len(self.keys) != n:
            raise ConfigError(
                f"frozen month metadata mismatch: {len(self.keys)} keys "
                f"for {n} block records")


#: One source shard: its frozen months by month index.
FrozenShard = Mapping[int, FrozenMonth]


@dataclass(frozen=True)
class MergeStats:
    """What the merge did: months, records and blocks it froze."""

    months: int
    records: int
    blocks_recompressed: int


@traced("store.merge.seconds")
def merge_shards(
    sources: Sequence[FrozenShard],
    block_records: int = DEFAULT_BLOCK_RECORDS,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    metrics=None,
) -> tuple[ReportStore, MergeStats]:
    """Merge frozen shards into one sealed store, in serial ingest order.

    The store is indistinguishable from one that ingested the same
    records serially with the same ``block_records``: identical block
    payloads, per-month accounting and index — and therefore an
    identical canonical digest and an identical ``save()`` file.  The
    order of ``sources`` does not matter.
    """
    store = ReportStore(block_records=block_records, cache_bytes=cache_bytes,
                        metrics=metrics)
    months = sorted({month for src in sources for month in src})
    records = blocks = 0
    for month in months:
        parts = [src[month] for src in sources if month in src]
        batch = ColumnarBatch.concat(
            [block.batch() for part in parts for block in part.blocks])
        keys = np.concatenate([part.keys for part in parts])
        order = np.lexsort((keys, batch.scan_time))
        dest = MonthlyShard(month, block_records=block_records)
        for start in range(0, len(order), block_records):
            dest.extend_batch(batch.take(order[start:start + block_records]))
        dest.close()
        store.shards[month] = dest
        records += dest.report_count
        blocks += len(dest.blocks)
    store._index_ready = False
    store.closed = True
    return store, MergeStats(months=len(months), records=records,
                             blocks_recompressed=blocks)


class StreamingMerge:
    """Collect frozen shards as they complete, then merge them once.

    The elastic scheduler hands over shards in *completion* order, which
    under chaos bears no relation to shard order.  ``add()`` only keeps
    each shard; ``finish()`` runs :func:`merge_shards` over all of them.
    The merge sorts every month by its globally unique keys, so any
    completion order yields the same store — identical digest, identical
    ``save()`` bytes, identical :class:`MergeStats`.
    """

    def __init__(self, block_records: int = DEFAULT_BLOCK_RECORDS,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 metrics=None) -> None:
        self._block_records = block_records
        self._cache_bytes = cache_bytes
        self._metrics = metrics
        self._shards: list[FrozenShard] = []

    def add(self, shard: FrozenShard) -> None:
        """Accept one completed shard."""
        self._shards.append(shard)

    def finish(self) -> tuple[ReportStore, MergeStats]:
        """Merge every accepted shard into one sealed store."""
        shards, self._shards = self._shards, []
        return merge_shards(shards, block_records=self._block_records,
                            cache_bytes=self._cache_bytes,
                            metrics=self._metrics)
