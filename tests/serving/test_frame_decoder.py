"""The one frame decoder: any chunking of any frames comes back
exactly, and hostile bytes raise the documented error and nothing
else."""

from __future__ import annotations

import json
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.serving import server as wire
from repro.serving.server import (
    FrameDecoder,
    ServingProtocolError,
    encode_frame,
)

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
