"""Unit tests for the columnar (``.rcol``) trace codec.

Round trips, header integrity (CRCs, truncation, versioning), lazy
string tables, O(1) metadata, append mode, and the conversion helper.
"""

import json
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.trace.columnar import (
    COLUMNAR_SUFFIX,
    FORMAT_VERSION,
    HEADER_RESERVE,
    MAGIC,
    READER_VERSION,
    RECORD_DTYPE,
    ColumnarFormatError,
    ColumnarTrace,
    ColumnarWriter,
    TraceColumns,
    columns_of,
    convert_to_columnar,
    inspect_columnar,
    is_columnar_file,
    open_columnar,
    read_header,
    write_columnar,
)
from repro.trace.csvtrace import dumps
from repro.types import DOCUMENT_TYPES, DocumentType, Request, Trace

from tests.conftest import make_request


def sample_requests():
    return [
        make_request(url="http://a/x.html", size=1000, timestamp=1.5),
        make_request(url="http://a/y.gif", size=200, transfer=150,
                     doc_type=DocumentType.IMAGE, timestamp=2.0),
        make_request(url="http://a/x.html", size=1000, timestamp=2.5),
        # size change: opens modification epoch 1 for x.html
        make_request(url="http://a/x.html", size=1200, timestamp=3.0),
        make_request(url="http://b/z.mpg", size=50_000,
                     doc_type=DocumentType.MULTIMEDIA, timestamp=4.0,
                     status=206),
    ]


def write_sample(tmp_path, requests=None, name="sample"):
    path = tmp_path / f"t{COLUMNAR_SUFFIX}"
    if requests is None:
        requests = sample_requests()
    write_columnar(path, requests, name=name)
    return path


def test_round_trip_preserves_every_field(tmp_path):
    requests = sample_requests()
    path = write_sample(tmp_path, requests)
    with open_columnar(path) as trace:
        decoded = list(trace)
    assert decoded == requests


def test_getitem_and_slicing(tmp_path):
    requests = sample_requests()
    path = write_sample(tmp_path, requests)
    with open_columnar(path) as trace:
        assert trace[0] == requests[0]
        assert trace[-1] == requests[-1]
        assert trace[1:3] == requests[1:3]
        assert len(trace) == len(requests)


def test_metadata_matches_object_trace(tmp_path):
    requests = sample_requests()
    path = write_sample(tmp_path, requests, name="meta")
    expected = Trace(requests, name="meta").metadata()
    with open_columnar(path) as trace:
        assert trace.metadata() == expected


def test_doc_id_interning_and_epochs(tmp_path):
    path = write_sample(tmp_path)
    with open_columnar(path) as trace:
        doc_ids = trace.doc_ids.tolist()
        # x.html interned once, referenced three times.
        assert doc_ids == [0, 1, 0, 0, 2]
        assert trace.urls() == ["http://a/x.html", "http://a/y.gif",
                                "http://b/z.mpg"]
        # epoch bumps only when the size actually changes
        assert trace.epochs.tolist() == [0, 0, 0, 1, 0]


def test_type_histogram_matches_requests(tmp_path):
    requests = sample_requests()
    path = write_sample(tmp_path, requests)
    with open_columnar(path) as trace:
        histogram = trace.type_histogram()
    for doc_type in DOCUMENT_TYPES:
        mine = [r for r in requests if r.doc_type is doc_type]
        assert histogram[doc_type]["requests"] == len(mine)
        assert histogram[doc_type]["requested_bytes"] == sum(
            r.transfer_size for r in mine)


def test_content_type_table(tmp_path):
    requests = [
        make_request(url="http://a/1"),
        Request(timestamp=1.0, url="http://a/2", size=10,
                transfer_size=10, doc_type=DocumentType.HTML,
                status=200, content_type="text/html"),
        Request(timestamp=2.0, url="http://a/3", size=10,
                transfer_size=10, doc_type=DocumentType.IMAGE,
                status=200, content_type="image/gif"),
    ]
    path = write_sample(tmp_path, requests)
    with open_columnar(path) as trace:
        assert trace.ctype_ids.tolist() == [0, 1, 2]
        assert trace.content_types() == ["text/html", "image/gif"]
        assert [r.content_type for r in trace] == \
            [None, "text/html", "image/gif"]


def test_empty_trace_round_trips(tmp_path):
    path = write_sample(tmp_path, requests=[])
    assert is_columnar_file(path)
    with open_columnar(path) as trace:
        assert len(trace) == 0
        assert list(trace) == []
        assert trace.metadata().total_requests == 0


def test_columns_of_gathers_what_the_file_holds(tmp_path):
    """In-memory columns are the file's columns: same interning, same
    values — whether gathered from a Trace, a list or an iterator."""
    requests = sample_requests()
    path = write_sample(tmp_path, requests)
    with open_columnar(path) as on_disk:
        assert columns_of(on_disk) is on_disk
        for source in (Trace(requests, name="t"), requests,
                       iter(requests)):
            gathered = columns_of(source)
            assert columns_of(gathered) is gathered
            assert len(gathered) == len(on_disk)
            assert gathered.urls() == on_disk.urls()
            for column in ("doc_ids", "sizes", "transfers",
                           "type_codes", "timestamps"):
                assert getattr(gathered, column).tolist() == \
                    getattr(on_disk, column).tolist(), column
    assert columns_of(Trace(requests, name="named")).name == "named"
    assert len(columns_of([])) == 0


def test_take_keeps_each_rows_fields(tmp_path):
    """A row subset shares the parent's url table, so every taken row
    reads back the source row's url, size, transfer, type and time —
    from the file's columns and from gathered ones alike."""
    requests = sample_requests()
    path = write_sample(tmp_path, requests)
    rows = np.array([4, 0, 3], dtype=np.intp)
    with open_columnar(path) as on_disk:
        for source in (on_disk, columns_of(requests)):
            taken = TraceColumns.take(source, rows)
            assert len(taken) == 3
            assert taken.name == source.name
            urls = taken.urls()
            for row, doc in zip(rows.tolist(), taken.doc_ids.tolist()):
                assert urls[doc] == requests[row].url
            for column in ("sizes", "transfers", "type_codes",
                           "timestamps"):
                assert getattr(taken, column).tolist() == \
                    getattr(source, column)[rows].tolist(), column
            assert [DOCUMENT_TYPES[c] for c in taken.type_codes] == \
                [requests[r].doc_type for r in rows]
            assert taken.sizes.tolist() == [50_000, 1000, 1200]
            empty = TraceColumns.take(source, np.array([], dtype=np.intp))
            assert len(empty) == 0
            assert empty.urls() == source.urls()
            assert empty.doc_ids.tolist() == []


def test_columns_of_opens_trace_paths(tmp_path):
    """A path is opened, not iterated: an ``.rcol`` is mmap'd with its
    CRC checked and keeps its header name, a csv streams into columns
    named by its stem — the same columns either way."""
    from repro.trace.writer import write_trace

    requests = sample_requests()
    rcol = write_sample(tmp_path, requests)
    csv = tmp_path / "sample-csv.csv"
    write_trace(csv, requests)
    mapped = columns_of(str(rcol))
    gathered = columns_of(csv)
    assert (type(mapped), mapped.name) == (ColumnarTrace, "sample")
    assert (type(gathered), gathered.name) == (TraceColumns, "sample-csv")
    assert gathered.urls() == mapped.urls()
    for column in ("doc_ids", "sizes", "transfers", "type_codes"):
        assert getattr(gathered, column).tolist() == \
            getattr(mapped, column).tolist(), column
    mapped.close()
    data = bytearray(rcol.read_bytes())
    data[HEADER_RESERVE] ^= 0xFF
    rcol.write_bytes(bytes(data))
    with pytest.raises(ColumnarFormatError, match="CRC"):
        columns_of(rcol)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_gathering_in_chunks_equals_one_gather(monkeypatch, extra):
    """Requests are gathered a chunk at a time; one chunk minus one,
    exactly one and one plus one requests give the columns a single
    gather gives, interning across the chunk boundary included."""
    chunk = 4
    requests = [make_request(url=f"http://a/{i % 3}", size=100 + i,
                             transfer=50 + i, timestamp=float(i),
                             doc_type=DOCUMENT_TYPES[i % 5])
                for i in range(chunk + extra)]
    whole = TraceColumns(requests)
    monkeypatch.setattr("repro.trace.columnar._FLUSH_ROWS", chunk)
    for source in (requests, iter(requests)):
        chunked = TraceColumns(source)
        assert chunked.urls() == whole.urls()
        for column in ("doc_ids", "sizes", "transfers", "type_codes",
                       "timestamps"):
            assert np.array_equal(getattr(chunked, column),
                                  getattr(whole, column)), column
            assert getattr(chunked, column).dtype == \
                getattr(whole, column).dtype


def test_gathered_metadata_is_the_traces(tiny_dfn_trace):
    """Columns count Table 1 as the Trace does: each document once at
    its last size — for a generated trace with size changes, the
    hand-made sample, a row subset and an empty source."""
    requests = sample_requests()
    assert columns_of(tiny_dfn_trace).metadata() == \
        tiny_dfn_trace.metadata()
    assert columns_of(Trace(requests, name="s")).metadata() == \
        Trace(requests, name="s").metadata()
    rows = np.array([4, 1, 3, 2])
    taken = TraceColumns.take(columns_of(Trace(requests, name="s")),
                              rows)
    assert taken.metadata() == \
        Trace([requests[r] for r in rows], name="s").metadata()
    assert columns_of([]).metadata() == Trace([]).metadata()


def test_columns_of_refuses_sizes_beyond_63_bits():
    huge = Request(timestamp=0.0, url="http://a/big", size=2 ** 63,
                   transfer_size=1, doc_type=DocumentType.OTHER)
    with pytest.raises(ColumnarFormatError):
        columns_of([huge])


def test_pickle_round_trip_reopens_by_path(tmp_path):
    """What a spawn-started sweep child receives: the mapping itself
    cannot travel, so the copy reopens the file and keeps the name the
    caller set."""
    path = write_sample(tmp_path)
    with open_columnar(path) as trace:
        trace.name = "renamed"
        with pickle.loads(pickle.dumps(trace)) as copy:
            assert copy is not trace
            assert (copy.name, len(copy)) == ("renamed", len(trace))
            assert copy.urls() == trace.urls()
            for column in ("doc_ids", "sizes", "transfers",
                           "type_codes", "timestamps", "epochs"):
                assert getattr(copy, column).tolist() == \
                    getattr(trace, column).tolist(), column


def test_writer_name_lands_in_header(tmp_path):
    path = write_sample(tmp_path, name="dfn-like")
    with open_columnar(path) as trace:
        assert trace.name == "dfn-like"
    assert read_header(path).extra["name"] == "dfn-like"


def test_inspect_columnar(tmp_path):
    requests = sample_requests()
    path = write_sample(tmp_path, requests)
    info = inspect_columnar(path)
    assert info["requests"] == len(requests)
    assert info["distinct_documents"] == 3
    assert info["format_version"] == FORMAT_VERSION
    assert info["requested_bytes"] == sum(
        r.transfer_size for r in requests)


def test_append_mode_continues_the_record_section(tmp_path):
    first = sample_requests()
    more = [make_request(url="http://a/x.html", size=1200,
                         timestamp=9.0),
            make_request(url="http://new/doc", size=77, timestamp=10.0)]
    path = write_sample(tmp_path, first)
    writer = ColumnarWriter.open_append(path)
    writer.write_all(more)
    writer.close()
    with open_columnar(path) as trace:
        assert list(trace) == first + more
        # epoch state survives the reopen: x.html stays at epoch 1
        assert trace.epochs.tolist()[-2] == 1
        assert trace.metadata() == Trace(first + more,
                                         name="sample").metadata()


def test_truncated_file_is_detected(tmp_path):
    path = write_sample(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ColumnarFormatError, match="truncated"):
        read_header(path)
    with pytest.raises(ColumnarFormatError):
        open_columnar(path)


def test_data_corruption_is_detected_by_verify(tmp_path):
    path = write_sample(tmp_path)
    data = bytearray(path.read_bytes())
    data[HEADER_RESERVE + 3] ^= 0xFF   # flip a record byte
    path.write_bytes(bytes(data))
    with pytest.raises(ColumnarFormatError, match="data CRC"):
        open_columnar(path, verify=True)
    # verify=False trades the CRC pass for open speed — it must not
    # raise, which is exactly why sweeps own the verified open.
    with open_columnar(path, verify=False) as trace:
        assert len(trace) == len(sample_requests())


def test_header_corruption_always_detected(tmp_path):
    path = write_sample(tmp_path)
    data = bytearray(path.read_bytes())
    data[20] ^= 0xFF                   # inside the fixed header
    path.write_bytes(bytes(data))
    with pytest.raises(ColumnarFormatError):
        open_columnar(path, verify=False)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / f"x{COLUMNAR_SUFFIX}"
    path.write_bytes(b"NOTATRACE" + b"\0" * 100)
    assert not is_columnar_file(path)
    with pytest.raises(ColumnarFormatError, match="magic"):
        read_header(path)


def _rewrite_header_field(path, *, min_reader=None, extra_json=None):
    """Surgically patch header fields and re-seal the header CRC."""
    data = bytearray(path.read_bytes())
    fixed = struct.Struct("<8sIIIIQQQQQQQQII")
    fields = list(fixed.unpack_from(bytes(data)))
    if min_reader is not None:
        fields[2] = min_reader
    json_bytes = bytes(data[fixed.size:fields[3]])
    if extra_json is not None:
        json_bytes = json.dumps(extra_json, separators=(",", ":"),
                                sort_keys=True).encode()
        fields[3] = fixed.size + len(json_bytes)
        fields[4] = len(json_bytes)
    fields[-1] = 0
    without_crc = fixed.pack(*fields)
    fields[-1] = zlib.crc32(without_crc + json_bytes)
    patched = fixed.pack(*fields) + json_bytes
    data[:len(patched)] = patched
    if len(patched) < HEADER_RESERVE:
        data[len(patched):HEADER_RESERVE] = \
            b"\0" * (HEADER_RESERVE - len(patched))
    path.write_bytes(bytes(data))


def test_future_min_reader_rejected_with_clear_error(tmp_path):
    path = write_sample(tmp_path)
    _rewrite_header_field(path, min_reader=READER_VERSION + 1)
    with pytest.raises(ColumnarFormatError, match="needs reader"):
        read_header(path)


def test_unknown_header_extras_are_ignored(tmp_path):
    # Additive format revisions add json fields; old readers skip them.
    path = write_sample(tmp_path)
    header = read_header(path)
    extra = dict(header.extra)
    extra["future_field"] = {"anything": [1, 2, 3]}
    _rewrite_header_field(path, extra_json=extra)
    with open_columnar(path) as trace:
        assert list(trace) == sample_requests()


def test_record_layout_mismatch_rejected(tmp_path):
    path = write_sample(tmp_path)
    header = read_header(path)
    extra = dict(header.extra)
    extra["record_itemsize"] = RECORD_DTYPE.itemsize + 8
    _rewrite_header_field(path, extra_json=extra)
    with pytest.raises(ColumnarFormatError, match="layout mismatch"):
        read_header(path)


def test_oversized_document_rejected(tmp_path):
    huge = Request(timestamp=0.0, url="http://a/big", size=2 ** 63,
                   transfer_size=10, doc_type=DocumentType.OTHER,
                   status=200)
    with pytest.raises(ColumnarFormatError, match="63-bit"):
        write_columnar(tmp_path / f"t{COLUMNAR_SUFFIX}", [huge])


def test_convert_round_trip_from_csv(tmp_path):
    requests = sample_requests()
    source = tmp_path / "trace.csv"
    source.write_text(dumps(requests))
    dest = convert_to_columnar(source)
    assert dest.suffix == COLUMNAR_SUFFIX
    with open_columnar(dest) as trace:
        decoded = list(trace)
    assert len(decoded) == len(requests)
    for original, parsed in zip(requests, decoded):
        assert parsed.url == original.url
        assert parsed.size == original.size
        assert parsed.transfer_size == original.transfer_size
        assert parsed.doc_type is original.doc_type
        # csv carries millisecond timestamps
        assert abs(parsed.timestamp - original.timestamp) <= 0.001


def test_open_trace_routes_columnar(tmp_path):
    from repro.trace.reader import open_trace

    path = write_sample(tmp_path)
    assert [r.url for r in open_trace(path)] == \
        [r.url for r in sample_requests()]
