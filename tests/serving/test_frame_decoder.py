"""The one frame decoder: any chunking of any frames comes back
exactly, and hostile bytes raise the documented error and nothing
else.  The clients' verb headers and their table of pre-encoded
replies put the same bytes on the wire and read the same answers off
it as the general encoder and this decoder."""

from __future__ import annotations

import asyncio
import json
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.serving import client as client_module
from repro.serving import server as wire
from repro.serving.cache import ServedCache
from repro.serving.client import AsyncCacheClient, CacheClient
from repro.serving.server import (
    PRE_ENCODED_REPLIES,
    CacheServer,
    FrameDecoder,
    ServingProtocolError,
    encode_frame,
)
from repro.types import DocumentType

_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8)
_messages = st.dictionaries(
    st.text().filter(lambda key: key != "payload_bytes"), _json,
    max_size=4)
_frames = st.lists(
    st.tuples(_messages, st.none() | st.binary(max_size=300)),
    max_size=6)


def _raw(header: bytes, payload: bytes = b"") -> bytes:
    return struct.pack(">I", len(header)) + header + payload


def _drain(decoder: FrameDecoder) -> list:
    return list(iter(decoder.next_frame, None))


def _chunks(stream: bytes, cuts) -> list:
    cuts = sorted(cuts)
    return [stream[start:end]
            for start, end in zip([0] + cuts, cuts + [len(stream)])]


@settings(max_examples=200, deadline=None)
@given(frames=_frames, data=st.data())
def test_any_chunking_yields_exactly_the_frames(frames, data):
    stream = b"".join(encode_frame(m, p) for m, p in frames)
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=12))
    decoder = FrameDecoder()
    decoded = []
    for chunk in _chunks(stream, cuts):
        decoder.feed(chunk)
        decoded.extend(_drain(decoder))
    assert decoded == frames
    assert not decoder.pending()


def test_byte_at_a_time_holds_back_until_the_frame_is_whole():
    frames = [({"op": "put", "url": "a", "size": 3}, b"\x00\xff\n"),
              ({"op": "ping"}, None),
              ({"op": "put", "url": "z", "size": 0}, b"")]
    encoded = [encode_frame(m, p) for m, p in frames]
    stream = b"".join(encoded)
    boundaries = {sum(map(len, encoded[:k])) for k in range(4)}
    decoder = FrameDecoder()
    decoded = []
    for i in range(len(stream)):
        assert decoder.pending() == (i not in boundaries)
        decoder.feed(stream[i:i + 1])
        decoded.extend(_drain(decoder))
    assert decoded == frames
    assert not decoder.pending()


def _reference_frame(message: dict, payload=None) -> bytes:
    """The frame as ``json.dumps`` with compact separators spells it."""
    if payload is not None:
        message = {**message, "payload_bytes": len(payload)}
    header = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _raw(header, payload or b"")


@settings(max_examples=300, deadline=None)
@given(message=_messages, payload=st.none() | st.binary(max_size=300))
def test_encoding_is_byte_identical_to_json_dumps(message, payload):
    assert encode_frame(message, payload) == _reference_frame(message,
                                                              payload)


def test_a_payload_is_copied_once():
    """Taking a 4 MiB payload out of the buffer allocates the payload
    and not a second copy of it."""
    size = 4 << 20
    decoder = FrameDecoder()
    decoder.feed(encode_frame({"op": "put"}, bytes(size)))
    tracemalloc.start()
    try:
        message, payload = decoder.next_frame()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (message, len(payload)) == ({"op": "put"}, size)
    assert peak < 1.5 * size


@st.composite
def _hostile(draw) -> bytes:
    """Arbitrary bytes, or a valid stream with one slice overwritten."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    stream = bytearray(b"".join(
        encode_frame(m, p) for m, p in draw(_frames)))
    at = draw(st.integers(0, len(stream)))
    stream[at:at + draw(st.integers(0, 4))] = draw(st.binary(max_size=4))
    return bytes(stream)


@settings(max_examples=400, deadline=None)
@given(stream=_hostile(), bound=st.sampled_from([0, 8, 64, 1 << 26]),
       data=st.data())
def test_hostile_bytes_raise_only_the_frame_error(stream, bound, data):
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=8))
    decoder = FrameDecoder()
    with mock.patch.object(wire, "MAX_FRAME", bound):
        try:
            for chunk in _chunks(stream, cuts):
                decoder.feed(chunk)
                for message, payload in _drain(decoder):
                    assert isinstance(message, dict)
                    assert payload is None or len(payload) <= bound
                # Nothing is buffered toward a frame the bound refuses:
                # what is held is less than one announced, legal frame.
                assert len(decoder._buffer) < 4 + bound
        except ServingProtocolError:
            pass


@pytest.mark.parametrize("header", [
    b'{"ok":true,"payload_bytes":%d}' % (wire.MAX_FRAME + 1),
    b'{"ok":true,"payload_bytes":-1}',
    b'{"ok":true,"payload_bytes":1.0}',
    b'{"ok":true,"payload_bytes":"1"}',
    b'{"ok":true,"payload_bytes":true}',
    b'{"ok":true,"payload_bytes":null}',
    b'[1,2]', b'"ok"', b'7', b'null',
    b'{"ok":', b'\xff\xfe{}', b'',
    b'[' * 100_000,
    b'\xef\xbb\xbf{}', b'{}x',
], ids=["payload-over-bound", "payload-negative", "payload-float",
        "payload-string", "payload-bool", "payload-null", "array",
        "string", "number", "null", "truncated-json", "not-utf8",
        "empty", "nested-past-the-recursion-limit", "utf8-bom",
        "trailing-data"])
def test_bad_headers_are_frame_errors(header):
    decoder = FrameDecoder()
    decoder.feed(_raw(header))
    with pytest.raises(ServingProtocolError):
        decoder.next_frame()


def test_over_bound_header_is_refused_from_its_prefix_alone():
    decoder = FrameDecoder()
    decoder.feed(struct.pack(">I", wire.MAX_FRAME + 1))
    with pytest.raises(ServingProtocolError, match="announced"):
        decoder.next_frame()
    decoder = FrameDecoder()
    decoder.feed(struct.pack(">I", wire.MAX_FRAME))      # legal: wait
    assert decoder.next_frame() is None and decoder.pending()


def test_pending_covers_a_payload_not_yet_begun():
    decoder = FrameDecoder()
    decoder.feed(_raw(b'{"op":"put","payload_bytes":2}'))
    assert decoder.next_frame() is None
    assert decoder.pending()        # buffer empty, frame still open
    decoder.feed(b"hi")
    assert decoder.next_frame() == ({"op": "put"}, b"hi")
    assert not decoder.pending()


def test_encoder_refuses_what_the_decoder_would():
    with pytest.raises(ConfigurationError, match="payload_bytes"):
        encode_frame({"op": "ping", "payload_bytes": 3})
    with mock.patch.object(wire, "MAX_FRAME", 40):
        with pytest.raises(ConfigurationError, match="exceeds"):
            encode_frame({"op": "put"}, b"x" * 41)
        with pytest.raises(ConfigurationError, match="exceeds"):
            encode_frame({"op": "put", "url": "u" * 41})
        encode_frame({"op": "put"}, b"x" * 40)


# -- the server's doc_type table ------------------------------------------


def _dispatched(message: dict, cache=None, payload=None) -> dict:
    if cache is None:
        cache = ServedCache(1000, "lru")
    decoder = FrameDecoder()
    decoder.feed(CacheServer(cache)._dispatch(message, payload))
    reply, _ = decoder.next_frame()
    return reply


@pytest.mark.parametrize("doc_type", list(DocumentType))
def test_each_doc_type_value_reaches_the_cache_as_its_member(doc_type):
    cache = ServedCache(1000, "lru")
    _dispatched({"op": "put", "url": "a", "size": 1,
                 "doc_type": doc_type.value}, cache, b"x")
    assert _dispatched({"op": "get", "url": "a"}, cache)["doc_type"] == \
        doc_type.value


@pytest.mark.parametrize("value", ["bogus", "HTML", "", 7, None, [1],
                                   {"a": 1}, True])
def test_an_unknown_doc_type_is_refused_as_document_type_refuses(value):
    with pytest.raises(ValueError) as refused:
        DocumentType(value)
    for op in ("request", "put"):
        assert _dispatched({"op": op, "url": "a", "size": 1,
                            "doc_type": value}) == {
            "ok": False, "error": f"ValueError: {refused.value}"}


# -- the clients' verb headers -----------------------------------------------


class _Loopback:
    """A client's socket (or stream reader and writer) wired straight
    to a server's dispatch: each frame sent is kept, then answered."""

    def __init__(self):
        self.sent = []
        self._decoder = FrameDecoder()
        self._dispatch = CacheServer(ServedCache(1 << 20, "lru"))._dispatch
        self._replies = []

    def sendall(self, data: bytes) -> None:
        self.sent.append(data)
        self._decoder.feed(data)
        for frame in iter(self._decoder.next_frame, None):
            self._replies.append(self._dispatch(*frame))

    write = sendall

    def recv(self, _limit: int) -> bytes:
        return self._replies.pop(0)

    async def drain(self) -> None:
        pass

    async def read(self, limit: int) -> bytes:
        return self.recv(limit)


def _sync_client(loop: _Loopback) -> CacheClient:
    client = CacheClient.__new__(CacheClient)
    client._sock, client._decoder = loop, FrameDecoder()
    return client


def _async_client(loop: _Loopback) -> AsyncCacheClient:
    client = AsyncCacheClient()
    client._reader = client._writer = loop
    return client


def _call(client, verb: str, *args):
    """``client.<verb>(*args)`` on either client, run to completion."""
    result = getattr(client, verb)(*args)
    if asyncio.iscoroutine(result):
        return asyncio.run(result)
    return result


def _sent(make_client, verb: str, *args) -> bytes:
    """The one frame ``verb`` put on the wire, whatever the reply."""
    loop = _Loopback()
    try:
        _call(make_client(loop), verb, *args)
    except ServingProtocolError:        # refused: the bytes still count
        pass
    [frame] = loop.sent
    return frame


_clients = pytest.mark.parametrize("make_client",
                                   [_sync_client, _async_client],
                                   ids=["sync", "async"])
_urls = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
     "\U0001f600", "\ud800", "\udfff"]), max_size=40)
_sizes = (st.integers(-(1 << 70), 1 << 70) | st.just(0)
          | st.integers(1 << 63, 1 << 200))


@_clients
@settings(max_examples=150, deadline=None)
@given(url=_urls, size=_sizes, doc_type=st.sampled_from(DocumentType),
       payload=st.none() | st.binary(max_size=40))
def test_verb_headers_are_byte_identical_to_encode_frame(
        make_client, url, size, doc_type, payload):
    sized = {"url": url, "size": size, "doc_type": doc_type.value}
    assert _sent(make_client, "request", url, size, doc_type) == \
        encode_frame({"op": "request", **sized})
    assert _sent(make_client, "put", url, size, doc_type, payload) == \
        encode_frame({"op": "put", **sized}, payload)
    for verb in ("get", "delete"):
        assert _sent(make_client, verb, url) == \
            encode_frame({"op": verb, "url": url})


@_clients
@pytest.mark.parametrize("verb", ["request", "put"])
@pytest.mark.parametrize("size", [12.9, 12.0, "12", True, None])
def test_a_size_that_is_not_an_int_is_sent_and_refused(make_client, verb,
                                                        size):
    loop = _Loopback()
    client = make_client(loop)
    with pytest.raises(ServingProtocolError,
                       match="size must be a JSON integer"):
        _call(client, verb, "a", size)
    assert loop.sent == [encode_frame(
        {"op": verb, "url": "a", "size": size, "doc_type": "other"})]
    assert _call(client, "request", "a", 12) == "miss"


# -- the clients' table of pre-encoded replies --------------------------------


def _table_free_reply(decoder: FrameDecoder, chunk: bytes):
    """The client's reply path with the table out of it."""
    with mock.patch.dict(client_module._KNOWN_REPLIES, clear=True):
        return client_module._reply(decoder, chunk)


def test_the_table_holds_each_pre_encoded_reply_as_decoded():
    assert set(client_module._KNOWN_REPLIES) == set(PRE_ENCODED_REPLIES)
    assert set(PRE_ENCODED_REPLIES) >= {
        *wire._OUTCOME_FRAMES.values(), wire._NOT_FOUND, wire._PONG,
        wire._DELETED, wire._NOT_DELETED}
    for reply, answer in client_module._KNOWN_REPLIES.items():
        decoder = FrameDecoder()
        decoder.feed(reply)
        assert decoder.next_frame() == (answer, None)
        assert not decoder.pending()


def test_a_table_answer_is_the_callers_own_copy():
    pong = wire._PONG
    first = client_module._reply(FrameDecoder(), pong)
    first["pong"] = False
    first["extra"] = 1
    assert client_module._reply(FrameDecoder(), pong) == {
        "ok": True, "pong": True}


_GET_HIT = encode_frame({"ok": True, "found": True, "url": "a",
                         "size": 3}, b"abc")
_ERROR = encode_frame({"ok": False, "error": "KeyError: 'url'"})
_MISS = wire._OUTCOME_FRAMES[next(iter(wire._OUTCOME_FRAMES))]
#: A get hit whose body is the bytes of a known reply frame.
_BODY_LIKE_A_REPLY = encode_frame(
    {"ok": True, "found": True, "url": "m", "size": len(_MISS)}, _MISS)


@pytest.mark.parametrize("chunks", [
    [_MISS[:5], _MISS[5:]],
    [_MISS + wire._PONG[:3], wire._PONG[3:]],
    [_MISS + _GET_HIT[:9], _GET_HIT[9:]],
    [_GET_HIT[:9], _GET_HIT[9:] + _MISS[:2], _MISS[2:]],
    [wire._PONG[:6], wire._PONG[6:] + _MISS[:1], _MISS[1:], _ERROR[:1],
     _ERROR[1:]],
    [_BODY_LIKE_A_REPLY[:-len(_MISS)], _MISS],
    [_MISS + wire._PONG, wire._DELETED],
], ids=["known-split", "known-then-next", "known-then-payload-frame",
        "known-after-partial", "a-run", "known-bytes-inside-a-frame",
        "known-after-a-held-frame"])
def test_chunks_that_are_not_one_known_frame_are_decoded(chunks):
    """A poisoned table shows which chunks reach it: none of these."""
    poisoned = {reply: {"ok": True, "poisoned": True}
                for reply in PRE_ENCODED_REPLIES}
    with mock.patch.object(client_module, "_KNOWN_REPLIES", poisoned):
        decoder = FrameDecoder()
        answers = []
        for chunk in chunks:
            try:
                answers.append(client_module._reply(decoder, chunk))
            except ServingProtocolError as exc:
                answers.append(str(exc))
    reference = FrameDecoder()
    expected = []
    for chunk in chunks:
        try:
            expected.append(_table_free_reply(reference, chunk))
        except ServingProtocolError as exc:
            expected.append(str(exc))
    assert answers == expected
    assert {"ok": True, "poisoned": True} not in answers
    assert bytes(decoder._buffer) == bytes(reference._buffer)


def test_a_known_frame_at_a_boundary_is_answered_from_the_table():
    poisoned = {wire._PONG: {"ok": True, "poisoned": True}}
    with mock.patch.object(client_module, "_KNOWN_REPLIES", poisoned):
        assert client_module._reply(FrameDecoder(), wire._PONG) == \
            {"ok": True, "poisoned": True}


_replies = st.lists(
    st.sampled_from(PRE_ENCODED_REPLIES + (_GET_HIT, _ERROR)),
    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(replies=_replies, data=st.data())
def test_any_chunking_reads_as_the_decoder_reads(replies, data):
    """Chunk by chunk, the client's reply path gives what the decoder
    alone gives: the same answer or the same error, nothing held apart
    from what the decoder holds."""
    stream = b"".join(replies)
    cuts = data.draw(st.lists(st.integers(1, len(stream) - 1),
                              max_size=10))
    chunks = _chunks(stream, set(cuts))
    fast, reference = FrameDecoder(), FrameDecoder()
    for chunk in chunks:
        outcomes = []
        for decoder, read in ((fast, client_module._reply),
                              (reference, _table_free_reply)):
            try:
                outcomes.append(read(decoder, chunk))
            except ServingProtocolError as exc:
                outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]
        assert fast.pending() == reference.pending()
        assert bytes(fast._buffer) == bytes(reference._buffer)
