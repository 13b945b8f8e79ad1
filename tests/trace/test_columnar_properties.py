"""Property-based tests for the columnar trace codec.

Hypothesis drives arbitrary request streams — unicode and pathologically
long urls, zero sizes, repeated documents with size changes — through a
write/read cycle, and separately attacks the file's integrity story:
every truncation point and every corrupted byte must be detected.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.columnar import (
    HEADER_RESERVE,
    ColumnarFormatError,
    open_columnar,
    read_header,
    write_columnar,
)
from repro.types import DocumentType, Request, Trace

# Urls exercise the string table: ascii, unicode (escaped or not by the
# source format — the columnar blob is raw utf-8 either way), and very
# long paths that span flush blocks.
url_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd", "Lo"),
        whitelist_characters="-_.~%/"),
    min_size=1, max_size=40)
urls = st.one_of(
    st.builds(lambda p: f"http://h.example/{p}", url_text),
    st.builds(lambda p: f"http://h.example/long/{p * 50}", url_text),
)

content_types = st.sampled_from(
    [None, "text/html", "image/png", "väri/tyyppi"])

requests_strategy = st.builds(
    lambda ts, url, size, cut, doc_type, status, mime: Request(
        timestamp=ts, url=url, size=size,
        transfer_size=min(size, cut), doc_type=doc_type,
        status=status, content_type=mime),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    urls,
    st.integers(min_value=0, max_value=2 ** 40),   # zero sizes included
    st.integers(min_value=0, max_value=2 ** 40),
    st.sampled_from(list(DocumentType)),
    st.sampled_from([200, 203, 206, 304]),
    content_types,
)

streams = st.lists(requests_strategy, min_size=0, max_size=60)


@settings(max_examples=80, deadline=None)
@given(requests=streams)
def test_round_trip_is_exact(requests, tmp_path_factory):
    path = tmp_path_factory.mktemp("col") / "t.rcol"
    write_columnar(path, requests)
    with open_columnar(path) as trace:
        assert list(trace) == requests


@settings(max_examples=60, deadline=None)
@given(requests=streams)
def test_header_metadata_matches_object_trace(requests,
                                              tmp_path_factory):
    path = tmp_path_factory.mktemp("col") / "t.rcol"
    write_columnar(path, requests, name="p")
    expected = Trace(requests, name="p").metadata()
    with open_columnar(path) as trace:
        assert trace.metadata() == expected


@settings(max_examples=60, deadline=None)
@given(requests=streams)
def test_epoch_column_counts_size_changes(requests, tmp_path_factory):
    path = tmp_path_factory.mktemp("col") / "t.rcol"
    write_columnar(path, requests)
    last, changes = {}, {}
    expected = []
    for request in requests:
        if request.url in last and last[request.url] != request.size:
            changes[request.url] = changes.get(request.url, 0) + 1
        last[request.url] = request.size
        expected.append(changes.get(request.url, 0))
    with open_columnar(path) as trace:
        assert trace.epochs.tolist() == expected


@settings(max_examples=25, deadline=None)
@given(requests=st.lists(requests_strategy, min_size=1, max_size=20),
       drop=st.integers(min_value=1, max_value=64))
def test_any_truncation_is_detected(requests, drop, tmp_path_factory):
    path = tmp_path_factory.mktemp("col") / "t.rcol"
    write_columnar(path, requests)
    data = path.read_bytes()
    clipped = min(drop, len(data) - 1)
    path.write_bytes(data[:-clipped])
    try:
        read_header(path)
    except ColumnarFormatError:
        return          # header read already caught it
    # Header intact ⇒ the data-section CRC sweep must catch it.
    try:
        open_columnar(path, verify=True)
    except ColumnarFormatError:
        return
    raise AssertionError("truncation went undetected")


@settings(max_examples=25, deadline=None)
@given(requests=st.lists(requests_strategy, min_size=1, max_size=20),
       offset=st.integers(min_value=0, max_value=10 ** 9),
       flip=st.integers(min_value=1, max_value=255))
def test_any_corrupted_byte_is_detected(requests, offset, flip,
                                        tmp_path_factory):
    path = tmp_path_factory.mktemp("col") / "t.rcol"
    write_columnar(path, requests)
    data = bytearray(path.read_bytes())
    header = read_header(path)
    # Target a byte the format actually covers: the header (fixed +
    # json) or the data section.  The reserve padding between them is
    # dead space by design.
    spans = [(0, _header_length(data)),
             (header.records_offset, header.data_end)]
    total = sum(stop - start for start, stop in spans)
    pick = offset % total
    for start, stop in spans:
        if pick < stop - start:
            index = start + pick
            break
        pick -= stop - start
    data[index] ^= flip
    path.write_bytes(bytes(data))
    try:
        open_columnar(path, verify=True)
    except ColumnarFormatError:
        return
    raise AssertionError(
        f"corrupt byte at {index} went undetected")


def _header_length(data: bytes) -> int:
    import struct
    return struct.unpack_from("<8sIII", data)[2]
