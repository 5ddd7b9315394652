"""Columnar (v3) block layout and the numpy analysis kernels over it.

The paper's pipeline survives 847 M reports by exploiting cross-report
redundancy: consecutive reports of a block share their engine fleet,
their file-type strings and most of their metadata.  The v3 block format
stores a block's records **by column** instead of by row:

* the fixed header fields become one packed array per field;
* scan timestamps are **delta-encoded** (records within a block are
  near-sorted by time, so deltas are tiny and compress to almost
  nothing) and ``last_analysis_date`` is stored relative to the scan
  time;
* file-type strings are **dictionary-encoded** per block (a handful of
  distinct strings per 256 records);
* the per-engine label and version planes are XOR-delta-encoded along
  the record axis when every record shares the fleet width — version
  vectors change a few entries per scan, so the plane is almost all
  zeros after the transform.

Decoding a v3 block yields a :class:`ColumnarBatch` — numpy arrays, one
element per record — instead of per-report python objects.  The analysis
kernels in :class:`SeriesFrame` (AV-Rank series grouping, the paper's
stable/dynamic split, the δ/Δ extractions of §5.1-5.3) then run as
vectorised array passes, and :meth:`ColumnarBatch.to_records` rebuilds
the exact row-format record bytes (:func:`repro.store.codec.encode_report`),
which is what :meth:`~repro.store.reportstore.ReportStore.digest` hashes.

Everything here must satisfy the same corruption contract as the record
codec: any truncated, bit-flipped or out-of-range payload surfaces
:class:`~repro.errors.CorruptRecordError`, never ``struct.error`` or
``IndexError``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.avrank import AVRankSeries
from repro.errors import BlockAddressError, CorruptRecordError
from repro.vt.clock import COLLECTION_MONTHS, MONTH_STARTS
from repro.vt.reports import ScanReport

#: Magic prefix of a block payload.
COLUMNAR_MAGIC = b"RPR3"

#: Fixed block header: magic, record count, total engine entries,
#: dictionary size, flags, dictionary byte length.
_V3_HEADER = struct.Struct("<4sIIHBI")

#: Flag bit: every record shares one fleet width, so the label/version
#: planes are rectangular and XOR-delta-encoded along the record axis.
_FLAG_UNIFORM = 0x01

#: Flag bit (uniform blocks only): the XOR-delta version plane is stored
#: sparsely — a row count, the indices of the rows that are not all
#: zero, then just those rows.  Engine versions change rarely within a
#: block, so after the XOR transform most rows vanish entirely and the
#: dominant plane (4 bytes per engine per record) shrinks to almost
#: nothing *before* compression ever sees it.
_FLAG_SPARSE_VERSIONS = 0x02

#: Bytes per record across the fixed (meta) columns:
#: scan_time(8) positives(2) total(2) first(8) last(8) last_analysis(8)
#: times_submitted(4) n_engines(2) ftype_code(2) sha256(32).
_META_BYTES_PER_RECORD = 76

#: Row-format record header (see repro.store.codec._HEADER) as a packed
#: little-endian structured dtype, for bulk record (de)serialisation.
_RECORD_HEADER_DTYPE = np.dtype([
    ("scan_time", "<i8"),
    ("positives", "<u2"),
    ("total", "<u2"),
    ("first_submission", "<i8"),
    ("last_submission", "<i8"),
    ("last_analysis", "<i8"),
    ("times_submitted", "<u4"),
    ("n_engines", "<u2"),
    ("ftype_len", "<u2"),
])
assert _RECORD_HEADER_DTYPE.itemsize == 44

#: Month boundaries (exclusive upper edges) for the vectorised
#: month_index: one entry per month of the collection window.
_MONTH_EDGES = np.asarray(MONTH_STARTS[1:], dtype=np.int64)

#: First-probe decompression budget for a metadata-only block decode:
#: enough for the header, any realistic dictionary and the fixed
#: columns of a small block in one pass; bigger blocks extend the
#: probe once the exact metadata size is known from the header.
META_PREFIX_PROBE = 4096


def meta_section_end(head: bytes) -> int:
    """Offset past the fixed columns of a v3 payload, from its header.

    ``head`` needs only the first 19 bytes; everything past the returned
    offset is the label/version planes, which a metadata-only decode
    never inflates.
    """
    try:
        magic, n, _, _, _, dict_bytes = _V3_HEADER.unpack_from(head, 0)
    except struct.error as exc:
        raise CorruptRecordError(f"truncated columnar block: {exc}") from exc
    if magic != COLUMNAR_MAGIC:
        raise CorruptRecordError("bad columnar block magic")
    return _V3_HEADER.size + dict_bytes + _META_BYTES_PER_RECORD * n


def month_indices(scan_times: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.vt.clock.month_index` over an array.

    Matches the scalar function exactly, including the clamping of
    pre-window timestamps to month 0 and post-window ones to the last
    month.
    """
    idx = np.searchsorted(_MONTH_EDGES, scan_times, side="right")
    return np.clip(idx, 0, COLLECTION_MONTHS - 1).astype(np.int64)


def _ranges(lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(l) for l in lens])`` without the loop."""
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    out_starts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=out_starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(out_starts, lens)


@dataclass
class ColumnarBatch:
    """One block of records as parallel numpy columns.

    ``labels``/``versions`` are flat planes (record ``i`` owns the slice
    ``engine_offsets[i]:engine_offsets[i+1]``); they are ``None`` on a
    metadata-only decode (``planes=False``), which is all the series
    kernels need.  All columns use explicit little-endian dtypes so
    ``tobytes()`` output is platform-independent.
    """

    scan_time: np.ndarray      # <i8 [n]
    positives: np.ndarray      # <u2 [n]
    total: np.ndarray          # <u2 [n]
    first_submission: np.ndarray   # <i8 [n]
    last_submission: np.ndarray    # <i8 [n]
    last_analysis: np.ndarray      # <i8 [n]
    times_submitted: np.ndarray    # <u4 [n]
    n_engines: np.ndarray      # <u2 [n]
    ftype_codes: np.ndarray    # <u2 [n] — indices into ``ftypes``
    ftypes: tuple[str, ...]    # per-block dictionary
    shas: np.ndarray           # S32 [n] — raw sha256 digests
    labels: np.ndarray | None = field(default=None, repr=False)    # u8 [L]
    versions: np.ndarray | None = field(default=None, repr=False)  # <u4 [L]
    _offsets: np.ndarray | None = field(
        default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.scan_time)

    @property
    def has_planes(self) -> bool:
        return self.labels is not None

    @property
    def engine_offsets(self) -> np.ndarray:
        """Prefix offsets into the flat label/version planes (``[n+1]``).

        Cached: ``n_engines`` never changes after construction, and the
        bulk-ingest path slices one batch many times.
        """
        if self._offsets is None:
            out = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(self.n_engines.astype(np.int64), out=out[1:])
            self._offsets = out
        return self._offsets

    @property
    def uniform(self) -> bool:
        """Whether every record shares one fleet width."""
        n = len(self)
        return n == 0 or bool((self.n_engines == self.n_engines[0]).all())

    @property
    def nbytes(self) -> int:
        """Approximate resident size (cache accounting)."""
        total = sum(
            col.nbytes for col in (
                self.scan_time, self.positives, self.total,
                self.first_submission, self.last_submission,
                self.last_analysis, self.times_submitted, self.n_engines,
                self.ftype_codes, self.shas,
            )
        )
        if self.labels is not None:
            total += self.labels.nbytes
        if self.versions is not None:
            total += self.versions.nbytes
        return total

    def _record_sizes(self) -> np.ndarray:
        """Exact row-format encoded size of each record."""
        ftype_lens = np.asarray(
            [len(name.encode("utf-8")) for name in self.ftypes],
            dtype=np.int64,
        )
        per_ftype = (ftype_lens[self.ftype_codes.astype(np.int64)]
                     if len(self.ftypes) else np.zeros(len(self), np.int64))
        return 76 + per_ftype + 5 * self.n_engines.astype(np.int64)

    def encoded_bytes(self) -> int:
        """Total row-format encoded bytes of the batch."""
        return int(self._record_sizes().sum())

    def verbose_bytes(self) -> int:
        """Total estimated verbose-JSON bytes (Table 2 accounting)."""
        # Mirrors codec.verbose_json_size: fixed overhead + per engine.
        return int((2200 + 160 * self.n_engines.astype(np.int64)).sum())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "ColumnarBatch":
        z8 = np.zeros(0, "<i8")
        z2 = np.zeros(0, "<u2")
        return cls(
            scan_time=z8, positives=z2, total=z2.copy(),
            first_submission=z8.copy(), last_submission=z8.copy(),
            last_analysis=z8.copy(), times_submitted=np.zeros(0, "<u4"),
            n_engines=z2.copy(), ftype_codes=z2.copy(), ftypes=(),
            shas=np.zeros(0, "S32"), labels=np.zeros(0, np.uint8),
            versions=np.zeros(0, "<u4"),
        )

    @classmethod
    def from_records(cls, records: Sequence[bytes]) -> "ColumnarBatch":
        """Bulk-parse row-format records into columns (numpy gathers)."""
        n = len(records)
        if n == 0:
            return cls.empty()
        try:
            lens = np.fromiter((len(r) for r in records), np.int64, count=n)
            buf = np.frombuffer(b"".join(records), np.uint8)
            starts = np.zeros(n, np.int64)
            np.cumsum(lens[:-1], out=starts[1:])
            if int(lens.min()) < 76:
                raise CorruptRecordError("record shorter than fixed header")
            hdr = buf[np.add.outer(starts, np.arange(44, dtype=np.int64))]
            hdr = np.ascontiguousarray(hdr).view(_RECORD_HEADER_DTYPE).ravel()
            n_engines = hdr["n_engines"].astype("<u2")
            ftype_lens = hdr["ftype_len"].astype(np.int64)
            expected = 76 + ftype_lens + 5 * n_engines.astype(np.int64)
            if not (expected == lens).all():
                raise CorruptRecordError("record length mismatch in batch")
            sha_g = buf[np.add.outer(starts, np.arange(44, 76, dtype=np.int64))]
            shas = np.ascontiguousarray(sha_g).view("S32").ravel()
            # File-type strings: short and few — a python loop over the
            # records builds the per-block dictionary in appearance order.
            codes = np.zeros(n, "<u2")
            dictionary: dict[str, int] = {}
            for i, record in enumerate(records):
                name = bytes(record[76:76 + ftype_lens[i]]).decode("utf-8")
                codes[i] = dictionary.setdefault(name, len(dictionary))
            plane_starts = starts + 76 + ftype_lens
            counts = n_engines.astype(np.int64)
            lab_idx = np.repeat(plane_starts, counts) + _ranges(counts)
            labels = np.ascontiguousarray(buf[lab_idx])
            ver_starts = plane_starts + counts
            ver_idx = np.repeat(ver_starts, 4 * counts) + _ranges(4 * counts)
            versions = np.ascontiguousarray(buf[ver_idx]).view("<u4")
        except (ValueError, struct.error) as exc:
            raise CorruptRecordError(f"undecodable record batch: {exc}") from exc
        return cls(
            scan_time=hdr["scan_time"].astype("<i8"),
            positives=hdr["positives"].astype("<u2"),
            total=hdr["total"].astype("<u2"),
            first_submission=hdr["first_submission"].astype("<i8"),
            last_submission=hdr["last_submission"].astype("<i8"),
            last_analysis=hdr["last_analysis"].astype("<i8"),
            times_submitted=hdr["times_submitted"].astype("<u4"),
            n_engines=n_engines,
            ftype_codes=codes,
            ftypes=tuple(dictionary),
            shas=shas,
            labels=labels,
            versions=versions,
        )

    @classmethod
    def from_reports(cls, reports: Sequence[ScanReport]) -> "ColumnarBatch":
        """Build a batch straight from report objects (bulk-ingest path)."""
        n = len(reports)
        if n == 0:
            return cls.empty()
        dictionary: dict[str, int] = {}
        codes = np.zeros(n, "<u2")
        for i, report in enumerate(reports):
            codes[i] = dictionary.setdefault(report.file_type, len(dictionary))
        return cls(
            scan_time=np.array([r.scan_time for r in reports], "<i8"),
            positives=np.array([r.positives for r in reports], "<u2"),
            total=np.array([r.total for r in reports], "<u2"),
            first_submission=np.array(
                [r.first_submission_date for r in reports], "<i8"),
            last_submission=np.array(
                [r.last_submission_date for r in reports], "<i8"),
            last_analysis=np.array(
                [r.last_analysis_date for r in reports], "<i8"),
            times_submitted=np.array(
                [r.times_submitted for r in reports], "<u4"),
            n_engines=np.array([len(r.labels) for r in reports], "<u2"),
            ftype_codes=codes,
            ftypes=tuple(dictionary),
            shas=np.array([bytes.fromhex(r.sha256) for r in reports], "S32"),
            labels=np.frombuffer(
                b"".join(r.labels for r in reports), np.uint8).copy(),
            versions=np.concatenate(
                [np.array(r.versions, "<u4") for r in reports])
            if any(len(r.versions) for r in reports) else np.zeros(0, "<u4"),
        )

    @classmethod
    def concat(cls, batches: Sequence["ColumnarBatch"]) -> "ColumnarBatch":
        """One batch holding every record of ``batches``, in order.

        The per-block file-type dictionaries are remapped onto one union
        dictionary in first-appearance order.  The planes concatenate
        only when every batch carries them; otherwise (metadata-only
        decodes) the result has none either.
        """
        if not batches:
            return cls.empty()
        names: dict[str, int] = {}
        codes = []
        for batch in batches:
            local = np.zeros(max(len(batch.ftypes), 1), "<u2")
            for i, name in enumerate(batch.ftypes):
                local[i] = names.setdefault(name, len(names))
            codes.append(local[batch.ftype_codes.astype(np.int64)])
        planes = all(batch.has_planes for batch in batches)

        def cat(column: str) -> np.ndarray:
            return np.concatenate([getattr(b, column) for b in batches])

        return cls(
            scan_time=cat("scan_time"),
            positives=cat("positives"),
            total=cat("total"),
            first_submission=cat("first_submission"),
            last_submission=cat("last_submission"),
            last_analysis=cat("last_analysis"),
            times_submitted=cat("times_submitted"),
            n_engines=cat("n_engines"),
            ftype_codes=np.concatenate(codes),
            ftypes=tuple(names),
            shas=cat("shas"),
            labels=cat("labels") if planes else None,
            versions=cat("versions") if planes else None,
        )

    # ------------------------------------------------------------------
    # Row materialisation
    # ------------------------------------------------------------------

    def to_records(self) -> list[bytes]:
        """Rebuild the exact row-format record bytes of every record.

        Byte-for-byte identical to what :func:`repro.store.codec.
        encode_report` produced for the original reports — the digest
        invariant rests on this.
        """
        n = len(self)
        if n == 0:
            return []
        if not self.has_planes:
            raise CorruptRecordError(
                "cannot materialise records from a metadata-only batch")
        ftype_blobs = [name.encode("utf-8") for name in self.ftypes]
        ftype_lens = np.asarray([len(b) for b in ftype_blobs], np.int64)
        codes = self.ftype_codes.astype(np.int64)
        per_ftype = ftype_lens[codes] if len(ftype_blobs) else np.zeros(n, np.int64)
        counts = self.n_engines.astype(np.int64)
        sizes = 76 + per_ftype + 5 * counts
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(sizes, out=offsets[1:])
        out = np.zeros(int(offsets[-1]), np.uint8)
        starts = offsets[:-1]

        hdr = np.empty(n, dtype=_RECORD_HEADER_DTYPE)
        hdr["scan_time"] = self.scan_time
        hdr["positives"] = self.positives
        hdr["total"] = self.total
        hdr["first_submission"] = self.first_submission
        hdr["last_submission"] = self.last_submission
        hdr["last_analysis"] = self.last_analysis
        hdr["times_submitted"] = self.times_submitted
        hdr["n_engines"] = self.n_engines
        hdr["ftype_len"] = per_ftype.astype("<u2")
        out[np.add.outer(starts, np.arange(44, dtype=np.int64))] = (
            hdr.view(np.uint8).reshape(n, 44))
        out[np.add.outer(starts, np.arange(44, 76, dtype=np.int64))] = (
            self.shas.view(np.uint8).reshape(n, 32))
        for code, blob in enumerate(ftype_blobs):
            sel = starts[codes == code]
            if len(sel) and len(blob):
                out[np.add.outer(sel, np.arange(76, 76 + len(blob),
                                                dtype=np.int64))] = (
                    np.frombuffer(blob, np.uint8))
        plane_starts = starts + 76 + per_ftype
        if int(counts.sum()):
            lab_idx = np.repeat(plane_starts, counts) + _ranges(counts)
            out[lab_idx] = self.labels
            ver_starts = plane_starts + counts
            ver_idx = np.repeat(ver_starts, 4 * counts) + _ranges(4 * counts)
            out[ver_idx] = self.versions.view(np.uint8)
        blob = out.tobytes()
        bounds = offsets.tolist()
        return [blob[bounds[i]:bounds[i + 1]] for i in range(n)]

    def report(self, slot: int) -> ScanReport:
        """Materialise one record as a :class:`ScanReport` (point lookup)."""
        if not 0 <= slot < len(self):
            raise BlockAddressError(f"no record at slot {slot}")
        if not self.has_planes:
            raise CorruptRecordError(
                "cannot materialise a report from a metadata-only batch")
        offsets = self.engine_offsets
        a, b = int(offsets[slot]), int(offsets[slot + 1])
        return ScanReport(
            # Slice-then-tobytes keeps the full 32-byte width; indexing an
            # S32 array yields np.bytes_, which strips trailing NULs.
            sha256=self.shas[slot:slot + 1].tobytes().hex(),
            file_type=self.ftypes[int(self.ftype_codes[slot])],
            scan_time=int(self.scan_time[slot]),
            positives=int(self.positives[slot]),
            total=int(self.total[slot]),
            labels=self.labels[a:b].tobytes(),
            versions=tuple(self.versions[a:b].tolist()),
            first_submission_date=int(self.first_submission[slot]),
            last_submission_date=int(self.last_submission[slot]),
            last_analysis_date=int(self.last_analysis[slot]),
            times_submitted=int(self.times_submitted[slot]),
        )

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------

    def take(self, selector: np.ndarray) -> "ColumnarBatch":
        """A new batch of the selected records (mask or index array)."""
        if not self.has_planes:
            raise CorruptRecordError("cannot slice a metadata-only batch")
        if selector.dtype == np.bool_:
            selector = np.flatnonzero(selector)
        offsets = self.engine_offsets
        counts = self.n_engines.astype(np.int64)[selector]
        plane_idx = (np.repeat(offsets[:-1][selector], counts)
                     + _ranges(counts))
        return ColumnarBatch(
            scan_time=self.scan_time[selector],
            positives=self.positives[selector],
            total=self.total[selector],
            first_submission=self.first_submission[selector],
            last_submission=self.last_submission[selector],
            last_analysis=self.last_analysis[selector],
            times_submitted=self.times_submitted[selector],
            n_engines=self.n_engines[selector],
            ftype_codes=self.ftype_codes[selector],
            ftypes=self.ftypes,
            shas=self.shas[selector],
            labels=self.labels[plane_idx],
            versions=self.versions[plane_idx],
        )

    def slice(self, start: int, stop: int) -> "ColumnarBatch":
        """A contiguous sub-batch (cheap views into the planes)."""
        if not self.has_planes:
            raise CorruptRecordError("cannot slice a metadata-only batch")
        offsets = self.engine_offsets
        a, b = int(offsets[start]), int(offsets[stop])
        return ColumnarBatch(
            scan_time=self.scan_time[start:stop],
            positives=self.positives[start:stop],
            total=self.total[start:stop],
            first_submission=self.first_submission[start:stop],
            last_submission=self.last_submission[start:stop],
            last_analysis=self.last_analysis[start:stop],
            times_submitted=self.times_submitted[start:stop],
            n_engines=self.n_engines[start:stop],
            ftype_codes=self.ftype_codes[start:stop],
            ftypes=self.ftypes,
            shas=self.shas[start:stop],
            labels=self.labels[a:b],
            versions=self.versions[a:b],
        )


# ----------------------------------------------------------------------
# v3 payload encode/decode
# ----------------------------------------------------------------------


def _canonical_dictionary(batch: ColumnarBatch) -> tuple[list[bytes], np.ndarray]:
    """Re-normalise the batch dictionary to first-use order.

    A batch produced by :meth:`ColumnarBatch.take` can carry unused
    dictionary entries; encoding must not depend on that history, so the
    dictionary is rebuilt from the codes actually present — a block's
    bytes are then a pure function of its record sequence.
    """
    n = len(batch)
    if n == 0:
        return [], np.zeros(0, "<u2")
    codes = batch.ftype_codes.astype(np.int64)
    n_names = len(batch.ftypes)
    first_pos = np.full(n_names, n, np.int64)
    np.minimum.at(first_pos, codes, np.arange(n, dtype=np.int64))
    used = np.flatnonzero(first_pos < n)
    order = used[np.argsort(first_pos[used], kind="stable")]
    remap = np.zeros(n_names, np.int64)
    remap[order] = np.arange(len(order), dtype=np.int64)
    blobs = [batch.ftypes[i].encode("utf-8") for i in order.tolist()]
    return blobs, remap[codes].astype("<u2")


def encode_columnar(batch: ColumnarBatch) -> bytes:
    """Serialise a batch into one (uncompressed) v3 block payload."""
    if not batch.has_planes:
        raise CorruptRecordError("cannot encode a metadata-only batch")
    n = len(batch)
    counts = batch.n_engines.astype(np.int64)
    total_engines = int(counts.sum())
    blobs, codes = _canonical_dictionary(batch)
    dict_blob = b"".join(
        struct.pack("<H", len(b)) + b for b in blobs)
    uniform = batch.uniform and n > 0
    flags = _FLAG_UNIFORM if uniform else 0

    scan = batch.scan_time.astype("<i8", copy=True)
    scan[1:] -= batch.scan_time[:-1]          # deltas; first stays absolute
    ana_rel = (batch.last_analysis.astype(np.int64)
               - batch.scan_time.astype(np.int64)).astype("<i8")

    if uniform:
        width = int(batch.n_engines[0])
        labels = batch.labels.reshape(n, width).copy()
        labels[1:] ^= batch.labels.reshape(n, width)[:-1]
        versions = batch.versions.reshape(n, width).astype("<u4", copy=True)
        versions[1:] ^= batch.versions.reshape(n, width)[:-1]
    else:
        labels = batch.labels
        versions = batch.versions.astype("<u4", copy=False)

    version_section = versions.tobytes()
    if uniform and width:
        live = np.flatnonzero((versions != 0).any(axis=1)).astype("<u4")
        sparse_bytes = 4 + len(live) * (4 + 4 * width)
        if sparse_bytes < versions.nbytes:
            flags |= _FLAG_SPARSE_VERSIONS
            version_section = (struct.pack("<I", len(live))
                               + live.tobytes()
                               + versions[live.astype(np.int64)].tobytes())

    header = _V3_HEADER.pack(COLUMNAR_MAGIC, n, total_engines, len(blobs),
                             flags, len(dict_blob))
    return b"".join((
        header,
        dict_blob,
        scan.tobytes(),
        batch.positives.astype("<u2", copy=False).tobytes(),
        batch.total.astype("<u2", copy=False).tobytes(),
        batch.first_submission.astype("<i8", copy=False).tobytes(),
        batch.last_submission.astype("<i8", copy=False).tobytes(),
        ana_rel.tobytes(),
        batch.times_submitted.astype("<u4", copy=False).tobytes(),
        batch.n_engines.astype("<u2", copy=False).tobytes(),
        codes.tobytes(),
        batch.shas.tobytes(),
        labels.tobytes(),
        version_section,
    ))


def _column(payload: bytes, dtype: str, count: int, offset: int) -> np.ndarray:
    return np.frombuffer(payload, dtype=dtype, count=count, offset=offset)


def decode_columnar(payload, planes: bool = True) -> ColumnarBatch:
    """Parse a v3 block payload into a :class:`ColumnarBatch`.

    With ``planes=False`` only the fixed columns are required — the
    payload may be truncated anywhere at or past the end of the metadata
    section (the partial-decompression fast path) and the returned batch
    carries no label/version planes.

    Every structural defect — truncation, bad magic, a dictionary code
    out of range, plane sizes disagreeing with the engine counts —
    raises :class:`~repro.errors.CorruptRecordError`.
    """
    payload = bytes(payload)
    try:
        magic, n, total_engines, dict_size, flags, dict_bytes = (
            _V3_HEADER.unpack_from(payload, 0))
    except struct.error as exc:
        raise CorruptRecordError(f"truncated columnar block: {exc}") from exc
    if magic != COLUMNAR_MAGIC:
        raise CorruptRecordError("bad columnar block magic")
    offset = _V3_HEADER.size
    names: list[str] = []
    dict_end = offset + dict_bytes
    if dict_end > len(payload):
        raise CorruptRecordError("truncated columnar dictionary")
    for _ in range(dict_size):
        if offset + 2 > dict_end:
            raise CorruptRecordError("truncated columnar dictionary")
        (name_len,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        if offset + name_len > dict_end:
            raise CorruptRecordError("truncated columnar dictionary")
        try:
            names.append(payload[offset:offset + name_len].decode("utf-8"))
        except ValueError as exc:
            raise CorruptRecordError(
                f"undecodable file-type string: {exc}") from exc
        offset += name_len
    if offset != dict_end:
        raise CorruptRecordError("columnar dictionary length mismatch")

    meta_end = dict_end + _META_BYTES_PER_RECORD * n
    if len(payload) < meta_end:
        raise CorruptRecordError("truncated columnar block")

    at = dict_end
    scan_deltas = _column(payload, "<i8", n, at); at += 8 * n
    positives = _column(payload, "<u2", n, at); at += 2 * n
    total = _column(payload, "<u2", n, at); at += 2 * n
    first_sub = _column(payload, "<i8", n, at); at += 8 * n
    last_sub = _column(payload, "<i8", n, at); at += 8 * n
    ana_rel = _column(payload, "<i8", n, at); at += 8 * n
    times_submitted = _column(payload, "<u4", n, at); at += 4 * n
    n_engines = _column(payload, "<u2", n, at); at += 2 * n
    codes = _column(payload, "<u2", n, at); at += 2 * n
    shas = _column(payload, "S32", n, at); at += 32 * n

    if n and (codes >= dict_size).any():
        raise CorruptRecordError("file-type code out of dictionary range")
    counts = n_engines.astype(np.int64)
    if int(counts.sum()) != total_engines:
        raise CorruptRecordError(
            "engine counts disagree with plane size")
    uniform = bool(flags & _FLAG_UNIFORM)
    if uniform and (n == 0 or not (n_engines == n_engines[0]).all()):
        raise CorruptRecordError("uniform flag on a ragged block")

    scan = np.cumsum(scan_deltas, dtype=np.int64).astype("<i8")
    last_analysis = (scan.astype(np.int64)
                     + ana_rel.astype(np.int64)).astype("<i8")

    sparse = bool(flags & _FLAG_SPARSE_VERSIONS)
    if sparse and not uniform:
        raise CorruptRecordError("sparse version plane on a non-uniform block")

    labels = versions = None
    if planes:
        width = int(n_engines[0]) if uniform else 0
        labels_end = meta_end + total_engines
        if sparse:
            if labels_end + 4 > len(payload):
                raise CorruptRecordError("truncated columnar block")
            (live_count,) = struct.unpack_from("<I", payload, labels_end)
            if live_count > n:
                raise CorruptRecordError(
                    "sparse version rows exceed record count")
            expected_total = labels_end + 4 + live_count * (4 + 4 * width)
        else:
            expected_total = labels_end + 4 * total_engines
        if len(payload) != expected_total:
            raise CorruptRecordError(
                f"columnar block length mismatch: "
                f"{len(payload)} != {expected_total}")
        labels = _column(payload, "u1", total_engines, at)
        at += total_engines
        if sparse:
            at += 4
            live = _column(payload, "<u4", live_count, at).astype(np.int64)
            at += 4 * live_count
            if live_count and int(live[-1]) >= n:
                raise CorruptRecordError(
                    "sparse version row index out of range")
            if live_count > 1 and (np.diff(live) <= 0).any():
                raise CorruptRecordError("sparse version rows out of order")
            rows = _column(payload, "<u4", live_count * width, at)
            dense = np.zeros((n, width), "<u4")
            dense[live] = rows.reshape(live_count, width)
            versions = dense.ravel()
        else:
            versions = _column(payload, "<u4", total_engines, at)
        if uniform:
            labels = np.bitwise_xor.accumulate(
                labels.reshape(n, width), axis=0).ravel()
            versions = np.bitwise_xor.accumulate(
                versions.reshape(n, width).astype(np.uint32), axis=0
            ).astype("<u4").ravel()
        else:
            labels = labels.copy()
            versions = versions.copy()

    return ColumnarBatch(
        scan_time=scan,
        positives=positives,
        total=total,
        first_submission=first_sub,
        last_submission=last_sub,
        last_analysis=last_analysis,
        times_submitted=times_submitted,
        n_engines=n_engines,
        ftype_codes=codes,
        ftypes=tuple(names),
        shas=shas,
        labels=labels,
        versions=versions,
    )


def decode_columnar_records(payload) -> list[bytes]:
    """Decode a v3 payload straight to row-format record bytes."""
    return decode_columnar(payload, planes=True).to_records()


# ----------------------------------------------------------------------
# Series kernels
# ----------------------------------------------------------------------


@dataclass
class SeriesFrame:
    """Every sample's AV-Rank trajectory as flat arrays.

    The columnar counterpart of
    :func:`repro.core.avrank.collect_series` over
    :meth:`~repro.store.reportstore.ReportStore.iter_sample_reports`:
    sample ``s`` owns ``times[offsets[s]:offsets[s+1]]`` (time-sorted)
    and the parallel ``ranks`` slice.  Samples appear in the exact order
    the streaming row pass yields them (completion order, ties by
    first-ingest rank), so :meth:`to_series` is bit-identical to the row
    path — the differential harness pins this.
    """

    sha256: list[str]
    file_types: list[str]
    fresh: np.ndarray          # bool [S]
    offsets: np.ndarray        # i64 [S+1]
    times: np.ndarray          # i64 [N], grouped per sample, time-sorted
    ranks: np.ndarray          # i64 [N]

    @property
    def n_samples(self) -> int:
        return len(self.sha256)

    @property
    def n_reports(self) -> int:
        return len(self.times)

    @classmethod
    def from_batches(
        cls,
        batches: Iterable[ColumnarBatch],
        rank_of: dict[str, int] | None = None,
    ) -> "SeriesFrame":
        """Group a store's record stream into per-sample trajectories.

        ``batches`` must arrive in store block order (months ascending,
        blocks ascending).  ``rank_of`` maps sha256 hex to first-ingest
        rank (the store's index insertion order); without it, first
        occurrence in the stream is used — identical for chronologically
        ingested stores.
        """
        parts = [batch for batch in batches if len(batch)]
        if not parts:
            return cls(sha256=[], file_types=[],
                       fresh=np.zeros(0, bool),
                       offsets=np.zeros(1, np.int64),
                       times=np.zeros(0, np.int64),
                       ranks=np.zeros(0, np.int64))

        stream = ColumnarBatch.concat(parts)
        times = stream.scan_time.astype(np.int64)
        ranks = stream.positives.astype(np.int64)
        shas = stream.shas
        fresh = stream.first_submission.astype(np.int64) >= 0
        ftype_codes = stream.ftype_codes.astype(np.int64)
        block_ord = np.repeat(np.arange(len(parts), dtype=np.int64),
                              [len(batch) for batch in parts])
        n_total = len(times)

        uniq, inv = np.unique(shas, return_inverse=True)
        n_uniq = len(uniq)
        if rank_of is not None:
            # tobytes() pads every element back to 32 bytes (np.bytes_
            # elements strip trailing NULs).
            uniq_blob = uniq.tobytes()
            uid_rank = np.asarray(
                [rank_of[uniq_blob[32 * i:32 * i + 32].hex()]
                 for i in range(n_uniq)], np.int64)
        else:
            uid_rank = np.full(n_uniq, n_total, np.int64)
            np.minimum.at(uid_rank, inv, np.arange(n_total, dtype=np.int64))
        last_block = np.full(n_uniq, -1, np.int64)
        np.maximum.at(last_block, inv, block_ord)

        # Yield order of the streaming pass: a sample completes at the
        # last block holding one of its reports; within that block,
        # samples complete in first-ingest order.
        order = np.lexsort((uid_rank, last_block))
        out_rank = np.empty(n_uniq, np.int64)
        out_rank[order] = np.arange(n_uniq, dtype=np.int64)
        group = out_rank[inv]

        # Stable (group, scan_time, stream position) sort reproduces the
        # row path's per-sample `sort(key=scan_time)` exactly.
        perm = np.lexsort((np.arange(n_total, dtype=np.int64), times, group))
        counts = np.bincount(group, minlength=n_uniq)
        offsets = np.zeros(n_uniq + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        firsts = perm[offsets[:-1]]

        first_blob = shas[firsts].tobytes()
        return cls(
            sha256=[first_blob[32 * i:32 * i + 32].hex()
                    for i in range(len(firsts))],
            file_types=[stream.ftypes[g] for g in ftype_codes[firsts].tolist()],
            fresh=fresh[firsts],
            offsets=offsets,
            times=times[perm],
            ranks=ranks[perm],
        )

    # ------------------------------------------------------------------
    # Kernels (§5.1-5.3 geometry, vectorised)
    # ------------------------------------------------------------------

    def counts(self) -> np.ndarray:
        """Reports per sample."""
        return np.diff(self.offsets)

    def p_min(self) -> np.ndarray:
        return np.minimum.reduceat(self.ranks, self.offsets[:-1]) \
            if self.n_samples else np.zeros(0, np.int64)

    def p_max(self) -> np.ndarray:
        return np.maximum.reduceat(self.ranks, self.offsets[:-1]) \
            if self.n_samples else np.zeros(0, np.int64)

    def delta_overall(self) -> np.ndarray:
        """Δ = p_max − p_min per sample (§5.1)."""
        return self.p_max() - self.p_min()

    def multi_mask(self) -> np.ndarray:
        """Samples whose dynamics are measurable (n > 1)."""
        return self.counts() > 1

    def stable_mask(self) -> np.ndarray:
        """The paper's stable criterion: multi-report and Δ = 0."""
        return self.multi_mask() & (self.delta_overall() == 0)

    def dynamic_mask(self) -> np.ndarray:
        return self.multi_mask() & (self.delta_overall() > 0)

    def span_minutes(self) -> np.ndarray:
        """Last minus first scan time per sample."""
        if not self.n_samples:
            return np.zeros(0, np.int64)
        return self.times[self.offsets[1:] - 1] - self.times[self.offsets[:-1]]

    def adjacent_deltas(self) -> np.ndarray:
        """All δ_i = |p_i − p_{i−1}| within samples, in frame order."""
        if self.n_reports < 2:
            return np.zeros(0, np.int64)
        deltas = np.abs(np.diff(self.ranks))
        keep = np.ones(self.n_reports - 1, bool)
        keep[self.offsets[1:-1] - 1] = False  # pairs straddling samples
        return deltas[keep]

    def label_flips(self, threshold: int) -> int:
        """Adjacent B↔M transitions under a voting threshold (§6.2).

        The numpy counterpart of counting changes in
        :meth:`~repro.core.avrank.AVRankSeries.labels_under` across every
        sample's consecutive scans.
        """
        if self.n_reports < 2:
            return 0
        malicious = self.ranks >= threshold
        flips = malicious[1:] != malicious[:-1]
        keep = np.ones(self.n_reports - 1, bool)
        keep[self.offsets[1:-1] - 1] = False  # pairs straddling samples
        return int((flips & keep).sum())

    def dataset_s_mask(self, top20: Iterable[str]) -> np.ndarray:
        """The paper's dataset *S* (§5.3.1): fresh ∧ dynamic ∧ top-20."""
        wanted = frozenset(top20)
        in_top = np.asarray([ft in wanted for ft in self.file_types], bool)
        return self.dynamic_mask() & self.fresh & in_top

    def select(self, mask: np.ndarray) -> "SeriesFrame":
        """A sub-frame of the selected samples (mask or index array).

        Sample order is preserved, so kernels over the selection match
        a python pass over the equivalent filtered series list.
        """
        idx = np.flatnonzero(mask) if mask.dtype == np.bool_ \
            else np.asarray(mask, np.int64)
        counts = self.counts()[idx]
        pos = (np.repeat(self.offsets[:-1][idx], counts)
               + _ranges(counts))
        offsets = np.zeros(len(idx) + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        picks = idx.tolist()
        return SeriesFrame(
            sha256=[self.sha256[i] for i in picks],
            file_types=[self.file_types[i] for i in picks],
            fresh=self.fresh[idx],
            offsets=offsets,
            times=self.times[pos],
            ranks=self.ranks[pos],
        )

    def pairwise_diffs(self) -> tuple[np.ndarray, np.ndarray]:
        """All within-sample scan pairs: ``(intervals, rank_diffs)``.

        The §5.3.5 / Figure 7 measurement, uncapped: for every sample
        and every pair ``i < j`` of its scans, the interval
        ``t_j − t_i`` (minutes) and ``|p_j − p_i|``, pooled
        sample-major in the same ``(i, j)`` order as the python
        all-pairs enumeration in
        :func:`repro.core.metrics.pairwise_differences`.
        """
        counts = self.counts()
        rec_rep = np.repeat(counts, counts) - 1 - _ranges(counts)
        first = np.repeat(np.arange(self.n_reports, dtype=np.int64), rec_rep)
        second = first + 1 + _ranges(rec_rep)
        return (self.times[second] - self.times[first],
                np.abs(self.ranks[second] - self.ranks[first]))

    def to_series(self) -> list[AVRankSeries]:
        """Materialise :class:`AVRankSeries` objects, row-path order."""
        times = self.times.tolist()
        ranks = self.ranks.tolist()
        bounds = self.offsets.tolist()
        fresh = self.fresh.tolist()
        return [
            AVRankSeries(
                sha256=self.sha256[s],
                file_type=self.file_types[s],
                fresh=fresh[s],
                times=tuple(times[bounds[s]:bounds[s + 1]]),
                ranks=tuple(ranks[bounds[s]:bounds[s + 1]]),
            )
            for s in range(self.n_samples)
        ]
