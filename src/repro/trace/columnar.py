"""Compact binary columnar trace format (``.rcol``).

A columnar trace is an mmap-able numpy record file: one packed record
per request (interned doc-id, size, transfer, type code, timestamp,
modification epoch, status, content-type id) followed by the url and
content-type string tables, all behind a small versioned header that
carries request/byte counts and per-type histograms.  The layout makes
three things cheap that the text formats cannot offer:

* ``len(trace)`` and ``Trace.metadata()`` become O(1) header reads;
* a simulation pass can mmap the file and run the resolver and the
  policy fast paths as numpy column operations instead of streaming
  Python :class:`~repro.types.Request` objects;
* parallel sweeps share one OS page-cache copy of the trace across
  worker processes instead of re-decoding text per batch.

File layout (all little-endian)::

    [fixed header | header json] ... pad to 4096
    [record 0][record 1]...[record n-1]          # numpy record array
    [url offsets: (n_urls+1) u8][url utf-8 blob]
    [ctype offsets: (n_ctypes+1) u8][ctype utf-8 blob]

Integrity: ``header_crc`` covers the fixed header (with the crc field
zeroed) plus the json extras; ``data_crc`` covers the record section
and both string tables.  Truncated files are detected by comparing the
actual file size against ``data_end``.

Versioning: ``version`` is the format version the writer produced;
``min_reader`` is the oldest reader version able to decode it.  Readers
accept any file whose ``min_reader`` is not newer than themselves and
ignore unknown json fields, so additive format revisions stay readable.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.observability.logs import get_logger
from repro.types import (DOCUMENT_TYPES, DocumentType, Request,
                         TraceMetadata)

PathLike = Union[str, Path]

_logger = get_logger("trace.columnar")

#: First bytes of every columnar trace file.
MAGIC = b"RPROCOLT"
#: Format version this module writes.
FORMAT_VERSION = 1
#: Oldest reader version able to decode files this module writes.
MIN_READER = 1
#: Reader version this module implements.
READER_VERSION = 1
#: The header (fixed struct + json extras) lives in this reserve so the
#: record section can start at a fixed, page-aligned offset and the
#: writer can stream records before the counts are known.
HEADER_RESERVE = 4096
#: Canonical file suffix for columnar traces.
COLUMNAR_SUFFIX = ".rcol"

#: One packed record per request.  ``doc`` indexes the url string
#: table; ``ctype`` is 0 for "no content type" else 1 + the index into
#: the content-type table; ``type`` indexes ``DOCUMENT_TYPES``;
#: ``epoch`` counts how many size changes this document had seen by
#: this request (the modification epoch).
RECORD_DTYPE = np.dtype([
    ("timestamp", "<f8"),
    ("size", "<i8"),
    ("transfer", "<i8"),
    ("doc", "<u4"),
    ("ctype", "<u4"),
    ("epoch", "<u4"),
    ("status", "<i4"),
    ("type", "u1"),
], align=False)

# magic, version, min_reader, header_len, json_len,
# n_records, n_urls, n_ctypes, requested_bytes, total_size_bytes,
# records_offset, strings_offset, data_end, data_crc, header_crc
_FIXED = struct.Struct("<8sIIIIQQQQQQQQII")

_TYPE_CODE = {doc_type: code for code, doc_type in
              enumerate(DOCUMENT_TYPES)}
_MAX_I8 = 2 ** 63 - 1
_MAX_U4 = 2 ** 32 - 1
_FLUSH_ROWS = 65536


class ColumnarFormatError(TraceFormatError):
    """A columnar trace file is malformed, truncated, or unreadable."""


@dataclass
class ColumnarHeader:
    """Decoded columnar file header: counts, offsets, and extras."""

    version: int
    min_reader: int
    n_records: int
    n_urls: int
    n_ctypes: int
    requested_bytes: int
    total_size_bytes: int
    records_offset: int
    strings_offset: int
    data_end: int
    data_crc: int
    extra: dict = field(default_factory=dict)

    @property
    def type_requests(self) -> List[int]:
        """Per-type request counts, in ``DOCUMENT_TYPES`` order."""
        return list(self.extra.get(
            "type_requests", [0] * len(DOCUMENT_TYPES)))

    @property
    def type_bytes(self) -> List[int]:
        """Per-type requested (transfer) bytes, ``DOCUMENT_TYPES`` order."""
        return list(self.extra.get(
            "type_bytes", [0] * len(DOCUMENT_TYPES)))


def is_columnar_file(path: PathLike) -> bool:
    """True when ``path`` starts with the columnar magic bytes."""
    try:
        with open(path, "rb") as stream:
            return stream.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _pack_header(header: ColumnarHeader) -> bytes:
    """Serialize a header (fixed struct + json) with both CRCs set."""
    json_bytes = json.dumps(
        header.extra, separators=(",", ":"), sort_keys=True,
    ).encode("utf-8")
    header_len = _FIXED.size + len(json_bytes)
    if header_len > HEADER_RESERVE:
        raise ColumnarFormatError(
            f"header extras too large: {header_len} bytes exceed the "
            f"{HEADER_RESERVE}-byte reserve")
    fields = [MAGIC, header.version, header.min_reader, header_len,
              len(json_bytes), header.n_records, header.n_urls,
              header.n_ctypes, header.requested_bytes,
              header.total_size_bytes, header.records_offset,
              header.strings_offset, header.data_end, header.data_crc]
    without_crc = _FIXED.pack(*fields, 0)
    header_crc = zlib.crc32(without_crc + json_bytes)
    return _FIXED.pack(*fields, header_crc) + json_bytes


def _unpack_header(raw: bytes, path: Path) -> ColumnarHeader:
    if len(raw) < _FIXED.size or raw[:len(MAGIC)] != MAGIC:
        raise ColumnarFormatError(
            f"{path}: not a columnar trace (bad magic)")
    (magic, version, min_reader, header_len, json_len, n_records,
     n_urls, n_ctypes, requested_bytes, total_size_bytes,
     records_offset, strings_offset, data_end, data_crc,
     header_crc) = _FIXED.unpack_from(raw)
    if header_len > len(raw) or header_len != _FIXED.size + json_len:
        raise ColumnarFormatError(
            f"{path}: truncated or inconsistent header")
    json_bytes = raw[_FIXED.size:header_len]
    without_crc = _FIXED.pack(
        magic, version, min_reader, header_len, json_len, n_records,
        n_urls, n_ctypes, requested_bytes, total_size_bytes,
        records_offset, strings_offset, data_end, data_crc, 0)
    if zlib.crc32(without_crc + json_bytes) != header_crc:
        raise ColumnarFormatError(f"{path}: header CRC mismatch")
    if min_reader > READER_VERSION:
        raise ColumnarFormatError(
            f"{path}: written by format v{version}, needs reader "
            f">= v{min_reader} (this reader is v{READER_VERSION})")
    try:
        extra = json.loads(json_bytes.decode("utf-8")) if json_bytes \
            else {}
    except ValueError as exc:
        raise ColumnarFormatError(
            f"{path}: corrupt header extras: {exc}") from exc
    itemsize = extra.get("record_itemsize", RECORD_DTYPE.itemsize)
    if itemsize != RECORD_DTYPE.itemsize:
        raise ColumnarFormatError(
            f"{path}: record layout mismatch (file itemsize {itemsize}"
            f", reader expects {RECORD_DTYPE.itemsize})")
    return ColumnarHeader(
        version=version, min_reader=min_reader, n_records=n_records,
        n_urls=n_urls, n_ctypes=n_ctypes,
        requested_bytes=requested_bytes,
        total_size_bytes=total_size_bytes,
        records_offset=records_offset, strings_offset=strings_offset,
        data_end=data_end, data_crc=data_crc, extra=extra)


def read_header(path: PathLike) -> ColumnarHeader:
    """Read and CRC-check just the header of a columnar trace — O(1).

    This is what makes request counts and metadata lookups free:
    request/byte counts and per-type histograms live in the header.
    """
    path = Path(path)
    try:
        with open(path, "rb") as stream:
            raw = stream.read(HEADER_RESERVE)
    except OSError as exc:
        raise ColumnarFormatError(f"{path}: {exc}") from exc
    header = _unpack_header(raw, path)
    try:
        actual = path.stat().st_size
    except OSError as exc:  # pragma: no cover - raced deletion
        raise ColumnarFormatError(f"{path}: {exc}") from exc
    if actual < header.data_end:
        raise ColumnarFormatError(
            f"{path}: truncated ({actual} bytes, header promises "
            f"{header.data_end})")
    return header


class ColumnarWriter:
    """Streaming columnar trace writer with append support.

    Records are buffered and flushed in blocks; counts, histograms, the
    string tables, and both CRCs are finalized into the header on
    :meth:`close`.  Use as a context manager, or via the module-level
    :func:`write_columnar` / :func:`convert_to_columnar` helpers.
    ``ColumnarWriter.open_append`` reopens an existing file and
    continues writing records after the ones already on disk.
    """

    def __init__(self, path: PathLike, name: Optional[str] = None):
        self.path = Path(path)
        self.name = name or self.path.stem
        self._stream = open(self.path, "wb")
        self._stream.write(b"\0" * HEADER_RESERVE)
        self._init_state()

    def _init_state(self) -> None:
        self._url_ids: dict = {}
        self._urls: List[bytes] = []
        self._ct_ids: dict = {}
        self._ctypes: List[bytes] = []
        self._last_size: List[int] = []      # per doc id
        self._epochs: List[int] = []         # per doc id
        self._count = 0
        self._requested_bytes = 0
        self._total_size_bytes = 0
        self._type_requests = [0] * len(DOCUMENT_TYPES)
        self._type_bytes = [0] * len(DOCUMENT_TYPES)
        self._records_crc = 0
        self._closed = False
        self._buf_ts: List[float] = []
        self._buf_size: List[int] = []
        self._buf_transfer: List[int] = []
        self._buf_doc: List[int] = []
        self._buf_ctype: List[int] = []
        self._buf_epoch: List[int] = []
        self._buf_status: List[int] = []
        self._buf_type: List[int] = []

    @classmethod
    def open_append(cls, path: PathLike) -> "ColumnarWriter":
        """Reopen an existing columnar trace for streaming append.

        The string tables are dropped (they are rebuilt on close), the
        per-document size/epoch state is reconstructed from the record
        columns, and new records continue the record section in place.
        """
        path = Path(path)
        trace = open_columnar(path, verify=True)
        try:
            header = trace.header
            writer = cls.__new__(cls)
            writer.path = path
            writer.name = trace.name
            writer._init_state()
            writer._urls = [u.encode("utf-8") for u in trace.urls()]
            writer._url_ids = {u: i for i, u
                              in enumerate(trace.urls())}
            writer._ctypes = [c.encode("utf-8")
                              for c in trace.content_types()]
            writer._ct_ids = {c: i for i, c
                              in enumerate(trace.content_types())}
            writer._count = header.n_records
            writer._requested_bytes = header.requested_bytes
            writer._total_size_bytes = header.total_size_bytes
            writer._type_requests = header.type_requests
            writer._type_bytes = header.type_bytes
            n_urls = header.n_urls
            writer._last_size = [0] * n_urls
            writer._epochs = [0] * n_urls
            if header.n_records:
                records = trace.records
                # Last-occurrence state per document: np.unique on the
                # reversed id column gives the first hit per doc, which
                # is the last occurrence in trace order.
                docs = records["doc"][::-1]
                unique, first = np.unique(docs, return_index=True)
                last = header.n_records - 1 - first
                for doc_id, row in zip(unique.tolist(), last.tolist()):
                    writer._last_size[doc_id] = int(
                        records["size"][row])
                    writer._epochs[doc_id] = int(records["epoch"][row])
        finally:
            trace.close()
        stream = open(path, "r+b")
        stream.truncate(header.strings_offset)
        stream.seek(header.strings_offset)
        writer._stream = stream
        # data_crc must keep covering the records already on disk:
        # re-derive the running record CRC with one sequential read.
        with open(path, "rb") as reread:
            reread.seek(header.records_offset)
            remaining = header.strings_offset - header.records_offset
            crc = 0
            while remaining > 0:
                block = reread.read(min(1 << 20, remaining))
                if not block:
                    raise ColumnarFormatError(
                        f"{path}: truncated record section")
                crc = zlib.crc32(block, crc)
                remaining -= len(block)
        writer._records_crc = crc
        return writer

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._stream.close()

    def append(self, request: Request) -> None:
        """Append one request; interning and histograms are updated."""
        size = request.size
        transfer = request.transfer_size
        if size > _MAX_I8 or transfer > _MAX_I8:
            raise ColumnarFormatError(
                f"size {max(size, transfer)} exceeds the columnar "
                f"format's 63-bit size field")
        doc_id = self._url_ids.get(request.url)
        if doc_id is None:
            doc_id = len(self._urls)
            if doc_id > _MAX_U4:
                raise ColumnarFormatError(
                    "more than 2**32 distinct documents")
            self._url_ids[request.url] = doc_id
            self._urls.append(request.url.encode("utf-8"))
            self._last_size.append(size)
            self._epochs.append(0)
            self._total_size_bytes += size
            epoch = 0
        else:
            previous = self._last_size[doc_id]
            if previous != size:
                # Count the document once at its most recent size,
                # matching Trace.metadata(), and open a new
                # modification epoch.
                self._total_size_bytes += size - previous
                self._last_size[doc_id] = size
                self._epochs[doc_id] += 1
            epoch = self._epochs[doc_id]
        content_type = request.content_type
        if content_type is None:
            ct_id = 0
        else:
            interned = self._ct_ids.get(content_type)
            if interned is None:
                interned = len(self._ctypes)
                self._ct_ids[content_type] = interned
                self._ctypes.append(content_type.encode("utf-8"))
            ct_id = interned + 1
        code = _TYPE_CODE[request.doc_type]
        self._count += 1
        self._requested_bytes += transfer
        self._type_requests[code] += 1
        self._type_bytes[code] += transfer
        self._buf_ts.append(request.timestamp)
        self._buf_size.append(size)
        self._buf_transfer.append(transfer)
        self._buf_doc.append(doc_id)
        self._buf_ctype.append(ct_id)
        self._buf_epoch.append(epoch)
        self._buf_status.append(request.status)
        self._buf_type.append(code)
        if len(self._buf_ts) >= _FLUSH_ROWS:
            self._flush()

    def write_all(self, requests: Iterable[Request]) -> int:
        """Append every request; returns how many were written."""
        before = self._count
        for request in requests:
            self.append(request)
        return self._count - before

    def _flush(self) -> None:
        if not self._buf_ts:
            return
        block = np.empty(len(self._buf_ts), dtype=RECORD_DTYPE)
        block["timestamp"] = self._buf_ts
        block["size"] = self._buf_size
        block["transfer"] = self._buf_transfer
        block["doc"] = self._buf_doc
        block["ctype"] = self._buf_ctype
        block["epoch"] = self._buf_epoch
        block["status"] = self._buf_status
        block["type"] = self._buf_type
        raw = block.tobytes()
        self._records_crc = zlib.crc32(raw, self._records_crc)
        self._stream.write(raw)
        for buf in (self._buf_ts, self._buf_size, self._buf_transfer,
                    self._buf_doc, self._buf_ctype, self._buf_epoch,
                    self._buf_status, self._buf_type):
            buf.clear()

    @staticmethod
    def _string_table(blobs: List[bytes]) -> bytes:
        offsets = np.zeros(len(blobs) + 1, dtype="<u8")
        total = 0
        for index, blob in enumerate(blobs):
            total += len(blob)
            offsets[index + 1] = total
        return offsets.tobytes() + b"".join(blobs)

    def close(self) -> ColumnarHeader:
        """Flush, write the string tables, and finalize the header."""
        if self._closed:
            raise ColumnarFormatError("writer already closed")
        self._flush()
        strings_offset = (HEADER_RESERVE
                          + self._count * RECORD_DTYPE.itemsize)
        tables = (self._string_table(self._urls)
                  + self._string_table(self._ctypes))
        data_crc = zlib.crc32(tables, self._records_crc)
        self._stream.seek(strings_offset)
        self._stream.write(tables)
        header = ColumnarHeader(
            version=FORMAT_VERSION, min_reader=MIN_READER,
            n_records=self._count, n_urls=len(self._urls),
            n_ctypes=len(self._ctypes),
            requested_bytes=self._requested_bytes,
            total_size_bytes=self._total_size_bytes,
            records_offset=HEADER_RESERVE,
            strings_offset=strings_offset,
            data_end=strings_offset + len(tables),
            data_crc=data_crc,
            extra={
                "name": self.name,
                "record_itemsize": RECORD_DTYPE.itemsize,
                "fields": [name for name in RECORD_DTYPE.names],
                "type_order": [t.value for t in DOCUMENT_TYPES],
                "type_requests": self._type_requests,
                "type_bytes": self._type_bytes,
            })
        self._stream.seek(0)
        self._stream.write(_pack_header(header))
        self._stream.truncate(header.data_end)
        self._stream.close()
        self._closed = True
        _logger.debug("wrote columnar trace %s: %d requests, %d urls",
                      self.path, self._count, len(self._urls),
                      extra={"path": str(self.path),
                             "requests": self._count})
        return header


class ColumnarTrace:
    """A read-only, mmap-backed columnar trace.

    Columns are zero-copy numpy views over the file mapping; the url
    and content-type string tables decode lazily on first use.  The
    object is duck-compatible with :class:`~repro.types.Trace` where it
    matters: ``len``, iteration/indexing (yielding ``Request``),
    ``name``, and ``metadata()`` — metadata comes straight from the
    header without touching the record section.
    """

    def __init__(self, path: PathLike, verify: bool = True):
        import mmap

        self.path = Path(path)
        self.header = read_header(self.path)
        self.name = self.header.extra.get("name") or self.path.stem
        # The mapping holds its own descriptor, so an unclosed trace
        # (one ``columns_of`` opened from a path, say) leaves no open
        # file behind once it is garbage.
        with open(self.path, "rb") as stream:
            self._mmap = mmap.mmap(stream.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        self.records = np.frombuffer(
            self._mmap, dtype=RECORD_DTYPE, count=self.header.n_records,
            offset=self.header.records_offset)
        self._url_list: Optional[List[str]] = None
        self._ctype_list: Optional[List[str]] = None
        if verify:
            self._verify_data_crc()

    def __reduce__(self):
        # A mapping does not pickle, so a copy (a spawn-started sweep
        # child's, say) reopens the file by path and takes the name.
        # Whoever opened this object chose whether to CRC the file;
        # the copy does not pay for that again.
        return type(self), (self.path, False), {"name": self.name}

    def _verify_data_crc(self) -> None:
        crc = 0
        view = memoryview(self._mmap)
        position = self.header.records_offset
        while position < self.header.data_end:
            stop = min(position + (1 << 20), self.header.data_end)
            crc = zlib.crc32(view[position:stop], crc)
            position = stop
        if crc != self.header.data_crc:
            raise ColumnarFormatError(
                f"{self.path}: data CRC mismatch "
                f"(file corrupt or truncated)")

    # -- column views -------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        return self.records["timestamp"]

    @property
    def sizes(self) -> np.ndarray:
        return self.records["size"]

    @property
    def transfers(self) -> np.ndarray:
        return self.records["transfer"]

    @property
    def doc_ids(self) -> np.ndarray:
        return self.records["doc"]

    @property
    def type_codes(self) -> np.ndarray:
        return self.records["type"]

    @property
    def epochs(self) -> np.ndarray:
        """Per-request modification epoch (size changes seen so far)."""
        return self.records["epoch"]

    @property
    def ctype_ids(self) -> np.ndarray:
        return self.records["ctype"]

    # -- string tables ------------------------------------------------
    def _decode_table(self, offset: int, count: int):
        offsets = np.frombuffer(self._mmap, dtype="<u8",
                                count=count + 1, offset=offset)
        blob_start = offset + 8 * (count + 1)
        blob = bytes(self._mmap[blob_start:
                                blob_start + int(offsets[-1])])
        bounds = offsets.tolist()
        strings = [blob[bounds[i]:bounds[i + 1]].decode("utf-8")
                   for i in range(count)]
        return strings, blob_start + int(offsets[-1])

    def urls(self) -> List[str]:
        """The interned url table, index = doc id (decoded lazily)."""
        if self._url_list is None:
            self._url_list, after = self._decode_table(
                self.header.strings_offset, self.header.n_urls)
            self._ctype_offset = after
        return self._url_list

    def content_types(self) -> List[str]:
        """The interned content-type table (id 0 means "none")."""
        if self._ctype_list is None:
            self.urls()
            self._ctype_list, _ = self._decode_table(
                self._ctype_offset, self.header.n_ctypes)
        return self._ctype_list

    # -- Trace-compatible surface ------------------------------------
    def __len__(self) -> int:
        return self.header.n_records

    def __iter__(self) -> Iterator[Request]:
        return self.iter_requests()

    def __getitem__(self, index: int) -> Request:
        if isinstance(index, slice):
            return [self[i] for i
                    in range(*index.indices(len(self)))]
        row = self.records[index]
        urls = self.urls()
        ctypes = self.content_types()
        ct_id = int(row["ctype"])
        return Request(
            timestamp=float(row["timestamp"]),
            url=urls[int(row["doc"])],
            size=int(row["size"]),
            transfer_size=int(row["transfer"]),
            doc_type=DOCUMENT_TYPES[int(row["type"])],
            status=int(row["status"]),
            content_type=None if ct_id == 0 else ctypes[ct_id - 1])

    def iter_requests(self) -> Iterator[Request]:
        """Decode the records back into ``Request`` objects, in order.

        Chunked column decode keeps this within ~2x of iterating an
        in-memory ``Trace`` while never holding more than one block of
        objects.
        """
        urls = self.urls()
        ctypes = [None] + self.content_types()
        types = DOCUMENT_TYPES
        for start in range(0, len(self), _FLUSH_ROWS):
            block = self.records[start:start + _FLUSH_ROWS]
            rows = zip(block["timestamp"].tolist(),
                       block["size"].tolist(),
                       block["transfer"].tolist(),
                       block["doc"].tolist(),
                       block["ctype"].tolist(),
                       block["status"].tolist(),
                       block["type"].tolist())
            for ts, size, transfer, doc, ct, status, code in rows:
                yield Request(timestamp=ts, url=urls[doc], size=size,
                              transfer_size=transfer,
                              doc_type=types[code], status=status,
                              content_type=ctypes[ct])

    def metadata(self) -> TraceMetadata:
        """Table-1 aggregates straight from the header — O(1)."""
        return TraceMetadata(
            name=self.name,
            total_requests=self.header.n_records,
            distinct_documents=self.header.n_urls,
            total_size_bytes=self.header.total_size_bytes,
            requested_bytes=self.header.requested_bytes)

    def type_histogram(self) -> dict:
        """Per-type request counts and transfer bytes from the header."""
        return {doc_type: {"requests": self.header.type_requests[code],
                           "requested_bytes":
                               self.header.type_bytes[code]}
                for code, doc_type in enumerate(DOCUMENT_TYPES)}

    def close(self) -> None:
        """Release the mapping (best-effort while views are alive)."""
        self.records = None
        self._url_list = self._url_list  # decoded strings stay valid
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - views still exported
            pass

    def __enter__(self) -> "ColumnarTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_columnar(path: PathLike,
                  verify: bool = True) -> ColumnarTrace:
    """Open a columnar trace file (header CRC always checked;
    ``verify=True`` additionally CRCs the record and string sections).
    """
    return ColumnarTrace(path, verify=verify)


class TraceColumns:
    """The integer columns of a request sequence, held in memory.

    What :func:`columns_of` gathers a :class:`~repro.types.Trace`,
    request list, request iterator or text trace file into: the part of
    a :class:`ColumnarTrace` the simulation's column kernels read
    (``doc_ids``, ``sizes``, ``transfers``, ``type_codes``,
    ``timestamps``, :meth:`urls`, ``name``, ``len``, :meth:`metadata`),
    with the same interning — document ids in first-seen order — and no
    file.  Requests are gathered a fixed-size chunk at a time, so a
    streamed source never has more than one chunk of them alive.
    """

    def __init__(self, requests: Iterable[Request], name: str = "trace"):
        self.name = name
        ids: dict = {}
        intern = ids.setdefault
        stream = iter(requests)
        # An empty first block types the columns of an empty source.
        blocks = [tuple(np.empty(0, dtype) for dtype in (
            np.int64, np.int64, np.int64, np.uint8, np.float64))]
        # One comprehension per column: about half the cost of one loop
        # appending to five lists.
        for chunk in iter(lambda: list(islice(stream, _FLUSH_ROWS)), []):
            try:
                blocks.append((
                    np.array([intern(r.url, len(ids)) for r in chunk],
                             dtype=np.int64),
                    np.array([r.size for r in chunk], dtype=np.int64),
                    np.array([r.transfer_size for r in chunk],
                             dtype=np.int64),
                    np.array([_TYPE_CODE[r.doc_type] for r in chunk],
                             dtype=np.uint8),
                    np.array([r.timestamp for r in chunk],
                             dtype=np.float64)))
            except OverflowError as exc:
                raise ColumnarFormatError(
                    "a size exceeds the 63-bit size columns") from exc
        (self.doc_ids, self.sizes, self.transfers, self.type_codes,
         self.timestamps) = (np.concatenate(column)
                             for column in zip(*blocks))
        self._urls = list(ids)

    @classmethod
    def take(cls, columns, rows: np.ndarray) -> "TraceColumns":
        """The rows ``rows`` of ``columns`` (a :class:`ColumnarTrace`
        or :class:`TraceColumns`), in the order given.

        The url table is the parent's, shared, so every row keeps its
        doc id; the ids are then no longer dense or in first-seen order.
        """
        sub = cls.__new__(cls)
        sub.name = columns.name
        for column in ("doc_ids", "sizes", "transfers", "type_codes",
                       "timestamps"):
            setattr(sub, column, getattr(columns, column)[rows])
        sub._urls = columns.urls()
        return sub

    def urls(self) -> List[str]:
        """The interned url table, index = doc id."""
        return self._urls

    def __len__(self) -> int:
        return len(self.doc_ids)

    def metadata(self) -> TraceMetadata:
        """Table-1 aggregates from the columns, counted as
        :meth:`~repro.types.Trace.metadata` counts them: each document
        once, at its last size."""
        last = len(self) - 1 - np.unique(self.doc_ids[::-1],
                                         return_index=True)[1]
        return TraceMetadata(
            name=self.name, total_requests=len(self),
            distinct_documents=len(last),
            total_size_bytes=int(self.sizes[last].sum()),
            requested_bytes=int(self.transfers.sum()))


def columns_of(trace):
    """The integer columns of ``trace`` — what simulation passes read.

    A :class:`ColumnarTrace` (or columns gathered earlier) is returned
    as is.  A trace file path is opened: an ``.rcol`` is mmap'd with its
    CRC checked, any other format streams through
    :func:`~repro.trace.pipeline.iter_trace` into :class:`TraceColumns`
    named by the file stem.  A :class:`~repro.types.Trace`, request
    sequence or request iterator is gathered once into
    :class:`TraceColumns`.
    """
    if isinstance(trace, (ColumnarTrace, TraceColumns)):
        return trace
    if isinstance(trace, (str, Path)):
        if is_columnar_file(trace):
            return open_columnar(trace)
        from repro.trace.pipeline import iter_trace

        return TraceColumns(iter_trace(trace), name=Path(trace).stem)
    return TraceColumns(getattr(trace, "requests", trace),
                        name=getattr(trace, "name", "trace"))


def write_columnar(path: PathLike, requests: Iterable[Request],
                   name: Optional[str] = None) -> int:
    """Write requests to a columnar trace file; returns the count."""
    with ColumnarWriter(path, name=name) as writer:
        return writer.write_all(requests)


def convert_to_columnar(source: PathLike, dest: Optional[PathLike]
                        = None, fmt: Optional[str] = None,
                        name: Optional[str] = None,
                        max_errors: Optional[int] = None) -> Path:
    """Convert any readable trace file to columnar; returns the path.

    ``dest`` defaults to the source path with a ``.rcol`` suffix.
    Streaming: the source is decoded once with bounded memory.
    """
    from repro.trace.pipeline import iter_trace

    source = Path(source)
    if dest is None:
        stem = source.name
        for suffix in (".gz", ".csv", ".log", ".txt"):
            if stem.endswith(suffix):
                stem = stem[:-len(suffix)]
        dest = source.with_name(stem + COLUMNAR_SUFFIX)
    dest = Path(dest)
    with ColumnarWriter(dest, name=name or source.stem) as writer:
        writer.write_all(iter_trace(source, fmt=fmt,
                                    max_errors=max_errors))
    return dest


def inspect_columnar(path: PathLike) -> dict:
    """Header summary of a columnar trace as a plain dict (for CLIs)."""
    header = read_header(path)
    return {
        "path": str(path),
        "format_version": header.version,
        "min_reader": header.min_reader,
        "name": header.extra.get("name"),
        "requests": header.n_records,
        "distinct_documents": header.n_urls,
        "content_types": header.n_ctypes,
        "requested_bytes": header.requested_bytes,
        "total_size_bytes": header.total_size_bytes,
        "record_bytes": header.strings_offset - header.records_offset,
        "file_bytes": header.data_end,
        "types": {doc_type.value: {
            "requests": header.type_requests[code],
            "requested_bytes": header.type_bytes[code]}
            for code, doc_type in enumerate(DOCUMENT_TYPES)},
    }
