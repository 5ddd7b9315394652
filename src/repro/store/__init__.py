"""The report store substrate.

The paper cached the premium feed into MongoDB, storing sample metadata
and scan results separately and compressing aggressively (10.06× — §4.1).
This subpackage is that pipeline as an embedded library: a compact binary
record codec (:mod:`repro.store.codec`), monthly shards of zlib-compressed
record blocks (:mod:`repro.store.shard`), and :class:`ReportStore`
(:mod:`repro.store.reportstore`) which adds the per-sample index and the
Table 2 style accounting (:mod:`repro.store.stats`).  Blocks freeze in
the columnar RPR3 layout (:mod:`repro.store.columnar`), whose batches
back the numpy analysis kernels.
"""

from repro.store.cache import BlockCache, CacheStats
from repro.store.codec import decode_report, encode_report, verbose_json_size
from repro.store.columnar import ColumnarBatch, SeriesFrame
from repro.store.index import IndexEntry, decode_index, encode_index, sample_ranks
from repro.store.merge import FrozenMonth, FrozenShard, MergeStats, concat_frozen
from repro.store.query import ReportQuery
from repro.store.reportstore import ReportStore
from repro.store.shard import CompressedBlock, MonthlyShard
from repro.store.stats import MonthStats, StoreStats

__all__ = [
    "ColumnarBatch",
    "SeriesFrame",
    "decode_report",
    "encode_report",
    "sample_ranks",
    "verbose_json_size",
    "decode_index",
    "encode_index",
    "BlockCache",
    "CacheStats",
    "IndexEntry",
    "ReportQuery",
    "FrozenMonth",
    "FrozenShard",
    "MergeStats",
    "concat_frozen",
    "ReportStore",
    "CompressedBlock",
    "MonthlyShard",
    "MonthStats",
    "StoreStats",
]
