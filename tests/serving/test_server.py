"""The TCP front end: protocol round trips through both clients."""

from __future__ import annotations

import asyncio
import json
import random
import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.policy import AccessOutcome
from repro.serving import server as wire
from repro.serving.cache import ServedCache
from repro.serving.client import (
    AsyncCacheClient,
    CacheClient,
    ServingProtocolError,
)
from repro.serving.server import (
    MAX_FRAME,
    CacheProtocol,
    CacheServer,
    FrameDecoder,
    encode_frame,
)
from repro.serving.sharding import ShardedCache
from repro.types import DocumentType


class _ServerThread:
    """Run a CacheServer on its own event loop in a daemon thread."""

    def __init__(self, cache):
        self.cache = cache
        self.server = CacheServer(cache, port=0)
        self.port = None
        self._loop = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(10.0), "server failed to start"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10.0)

    def _run(self):
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self.port = self.server.port
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop_server(self):
        """``CacheServer.stop()`` on the running loop."""
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop).result(10.0)


def test_sync_client_roundtrip():
    with _ServerThread(ServedCache(10_000, "lru")) as server:
        with CacheClient(port=server.port) as client:
            assert client.ping()
            assert client.put("a", 3, DocumentType.HTML,
                              payload=b"abc") == "miss"
            found = client.get("a")
            assert found["size"] == 3
            assert found["payload"] == b"abc"
            assert client.request("a", 3) == "hit"
            assert client.request("a", 4) == "miss-modified"
            assert client.delete("a")
            assert client.get("a") is None
            stats = client.stats()
            assert stats["deletes"] == 1
            assert stats["resident_docs"] == 0


def test_sync_client_against_sharded_cache():
    with _ServerThread(ShardedCache(10_000, n_shards=3)) as server:
        with CacheClient(port=server.port) as client:
            for i in range(30):
                client.request(f"u{i}", 50)
            stats = client.stats()
            assert stats["total"]["misses"] == 30
            assert len(stats["shards"]) == 3
            assert sum(s["resident_docs"]
                       for s in stats["shards"].values()) == 30


def test_unknown_op_is_an_error_not_a_disconnect():
    with _ServerThread(ServedCache(1000, "lru")) as server:
        with CacheClient(port=server.port) as client:
            with pytest.raises(ServingProtocolError,
                               match="unknown op"):
                client._roundtrip({"op": "explode"})
            assert client.ping()  # connection survived


def test_server_surfaces_cache_errors():
    with _ServerThread(ServedCache(1000, "lru")) as server:
        with CacheClient(port=server.port) as client:
            with pytest.raises(ServingProtocolError):
                client.request("a", -5)  # negative size
            assert client.ping()


def test_stop_closes_open_connections():
    with _ServerThread(ServedCache(1000, "lru")) as server:
        with CacheClient(port=server.port) as client:
            assert client.ping()
            server.stop_server()
            with pytest.raises(ServingProtocolError,
                               match="closed mid-frame"):
                client.ping()


def test_async_client_roundtrip():
    with _ServerThread(ServedCache(10_000, "lru")) as server:

        async def scenario():
            client = await AsyncCacheClient.connect(port=server.port)
            try:
                assert await client.ping()
                assert await client.put("a", 2,
                                        payload=b"hi") == "miss"
                found = await client.get("a")
                assert found["payload"] == b"hi"
                assert await client.delete("a")
                stats = await client.stats()
                assert stats["deletes"] == 1
            finally:
                await client.close()

        asyncio.run(scenario())


# ----- hostile and awkward peers ---------------------------------------------


def _raw(header: bytes, payload: bytes = b"") -> bytes:
    return struct.pack(">I", len(header)) + header + payload


def _frames_until_close(sock) -> list:
    """Every frame the peer sends before it closes the connection."""
    decoder = FrameDecoder()
    frames = []
    while chunk := sock.recv(1 << 16):
        decoder.feed(chunk)
        frames.extend(iter(decoder.next_frame, None))
    assert not decoder.pending()
    return frames


def _exchange(port, sends, half_close=True) -> list:
    """Write each of ``sends`` as its own segment, optionally half-close,
    and collect the replies up to the server's close."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for data in sends:
            sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return _frames_until_close(sock)


#: Frames no peer may send, as (id, bytes): an over-bound header or
#: payload announcement, a ``payload_bytes`` that is not a natural
#: number, a header that is JSON but not an object.
BAD_FRAMES = [
    ("header-over-bound", struct.pack(">I", MAX_FRAME + 1)),
    ("header-2**32-1", struct.pack(">I", 2 ** 32 - 1)),
    ("payload-over-bound",
     _raw(b'{"ok":true,"payload_bytes":%d}' % (MAX_FRAME + 1))),
    ("payload-negative", _raw(b'{"ok":true,"payload_bytes":-1}')),
    ("payload-float", _raw(b'{"ok":true,"payload_bytes":2.0}', b"hi")),
    ("payload-bool", _raw(b'{"ok":true,"payload_bytes":true}', b"h")),
    ("not-an-object", _raw(b'[{"ok":true}]')),
]
_bad_frames = pytest.mark.parametrize(
    "bad", [frame for _, frame in BAD_FRAMES],
    ids=[name for name, _ in BAD_FRAMES])


@contextmanager
def _fake_peer(reply: bytes):
    """A server that answers its first request with ``reply`` and
    closes."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(1 << 16)
                conn.sendall(reply)
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield listener.getsockname()[1]
        thread.join(10.0)
        assert not thread.is_alive()


@_bad_frames
def test_sync_client_refuses_a_bad_reply(bad):
    with _fake_peer(bad) as port:
        with CacheClient(port=port) as client:
            with pytest.raises(ServingProtocolError):
                client.ping()


@_bad_frames
def test_async_client_refuses_a_bad_reply(bad):
    async def scenario(port):
        client = await AsyncCacheClient.connect(port=port)
        try:
            with pytest.raises(ServingProtocolError):
                await client.ping()
        finally:
            await client.close()

    with _fake_peer(bad) as port:
        asyncio.run(scenario(port))


@pytest.mark.parametrize("cut", [
    b"", b"\x00\x00", _raw(b'{"ok":true,"pong":true}')[:-1],
    _raw(b'{"ok":true,"payload_bytes":9}', b"abc"),
], ids=["no-reply", "mid-prefix", "mid-header", "mid-payload"])
def test_sync_client_reports_a_reply_cut_short(cut):
    with _fake_peer(cut) as port:
        with CacheClient(port=port) as client:
            with pytest.raises(ServingProtocolError,
                               match="closed mid-frame"):
                client.ping()


@_bad_frames
def test_server_answers_a_bad_frame_once_and_closes(bad):
    with _ServerThread(ServedCache(1000, "lru")) as server:
        with CacheClient(port=server.port) as bystander:
            replies = _exchange(
                server.port, [encode_frame({"op": "ping"}) + bad],
                half_close=False)
            assert [message["ok"] for message, _ in replies] == [
                True, False]
            assert replies[1][0]["error"].startswith("bad frame: ")
            assert bystander.ping()


@pytest.mark.parametrize("truncated", [
    b"\x00\x00",
    _raw(b'{"op":"put","url":"a","size":9,"payload_bytes":9}', b"abc"),
    _raw(b'{"op":"put","url":"a","size":9,"payload_bytes":9}'),
    _raw(b'{"op":"pi')[:-1],
], ids=["2-header-bytes", "mid-payload", "before-payload", "mid-header"])
def test_eof_mid_frame_is_a_bad_frame(truncated):
    with _ServerThread(ServedCache(1000, "lru")) as server:
        with CacheClient(port=server.port) as bystander:
            replies = _exchange(server.port, [truncated])
            assert len(replies) == 1
            assert replies[0][0]["ok"] is False
            assert replies[0][0]["error"].startswith("bad frame: ")
            assert bystander.ping()
            assert bystander.get("a") is None       # nothing half-put


def test_eof_at_a_frame_boundary_is_a_clean_close():
    with _ServerThread(ServedCache(1000, "lru")) as server:
        assert _exchange(server.port, []) == []
        assert _exchange(server.port, [encode_frame({"op": "ping"})]) \
            == [({"ok": True, "pong": True}, None)]


def _script(n: int) -> list:
    """``n`` request frames whose replies tell their order apart."""
    frames = []
    for i in range(n // 2):
        body = bytes([i]) * (i + 1)
        frames.append(encode_frame(
            {"op": "put", "url": f"u{i}", "size": i + 1}, body))
        frames.append(encode_frame({"op": "get", "url": f"u{i}"}))
    return frames


def _expected(n: int) -> list:
    replies = []
    for i in range(n // 2):
        replies.append(({"ok": True, "outcome": "miss"}, None))
        replies.append(({"ok": True, "found": True, "url": f"u{i}",
                         "size": i + 1, "doc_type": "other",
                         "frequency": 2}, bytes([i]) * (i + 1)))
    return replies


@pytest.mark.parametrize("n", [2, 50])
def test_frames_of_one_segment_are_answered_in_order(n):
    with _ServerThread(ServedCache(100_000, "lru")) as server:
        replies = _exchange(server.port, [b"".join(_script(n))])
        assert replies == _expected(n)


def test_byte_at_a_time_client_gets_the_same_replies():
    with _ServerThread(ServedCache(100_000, "lru")) as server:
        stream = b"".join(_script(6))
        replies = _exchange(
            server.port, [stream[i:i + 1] for i in range(len(stream))])
        assert replies == _expected(6)


def test_high_entropy_payload_round_trips_through_both_clients():
    body = random.Random(0).randbytes(200_000)
    assert set(body) == set(range(256))
    with _ServerThread(ServedCache(1_000_000, "lru")) as server:
        with CacheClient(port=server.port) as client:
            assert client.put("sync", len(body), payload=body) == "miss"
            assert client.get("sync")["payload"] == body

        async def scenario():
            client = await AsyncCacheClient.connect(port=server.port)
            try:
                assert await client.put("async", len(body),
                                        payload=body[::-1]) == "miss"
                assert (await client.get("async"))["payload"] \
                    == body[::-1]
                assert (await client.get("sync"))["payload"] == body
            finally:
                await client.close()

        asyncio.run(scenario())


def test_empty_payload_is_a_payload():
    with _ServerThread(ServedCache(1000, "lru")) as server:
        with CacheClient(port=server.port) as client:
            assert client.put("empty", 0, payload=b"") == "miss"
            assert client.get("empty")["payload"] == b""
            assert client.put("bare", 5) == "miss"
            assert "payload" not in client.get("bare")
        frame = encode_frame({"op": "get", "url": "empty"})
        (reply,) = _exchange(server.port, [frame])
        assert reply[1] == b""


def test_payload_must_be_size_bytes_long():
    with _ServerThread(ServedCache(1000, "lru")) as server:
        with CacheClient(port=server.port) as client:
            with pytest.raises(ServingProtocolError,
                               match="payload is 3 bytes but size=4"):
                client.put("a", 4, payload=b"abc")
            assert client.get("a") is None
            assert client.ping()


@pytest.mark.parametrize("op", ["request", "put"])
@pytest.mark.parametrize("size", [12.9, 12.0, "12", True, None])
def test_size_must_be_a_json_integer(op, size):
    with _ServerThread(ServedCache(1000, "lru")) as server:
        with CacheClient(port=server.port) as client:
            with pytest.raises(ServingProtocolError,
                               match="size must be a JSON integer"):
                client._roundtrip({"op": op, "url": "a", "size": size})
            assert client.get("a") is None      # not admitted at 12
            assert client.request("a", 12) == "miss"


def test_a_peer_that_does_not_read_cannot_grow_the_write_buffer():
    """500 gets of a 100 000-byte document sent before reading a byte:
    the server may get ahead only by what the socket buffers hold."""
    body = random.Random(1).randbytes(100_000)
    gets = 500
    cache = ServedCache(1_000_000, "lru")
    with _ServerThread(cache) as server:
        with CacheClient(port=server.port) as client:
            client.put("big", len(body), payload=body)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30.0) as sock:
            sock.sendall(encode_frame({"op": "get", "url": "big"}) * gets)
            sock.shutdown(socket.SHUT_WR)
            time.sleep(0.5)
            answered_unread = cache.stats().hits
            assert answered_unread < gets // 2
            replies = _frames_until_close(sock)
        assert len(replies) == gets
        assert all(payload == body for _, payload in replies)
        assert cache.stats().hits == gets


class _FakeTransport:
    """Records writes and reports a full write buffer (``pause_writing``)
    on the ``pause_at``-th of them."""

    def __init__(self, protocol, pause_at):
        self.protocol = protocol
        self.pause_at = pause_at
        self.writes = []
        self.reading = True
        self.closing = False

    def write(self, data):
        self.writes.append(data)
        if len(self.writes) == self.pause_at:
            self.protocol.pause_writing()

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    def replies(self) -> list:
        decoder = FrameDecoder()
        decoder.feed(b"".join(self.writes))
        return list(iter(decoder.next_frame, None))


def _connect(cache, pause_at=0):
    protocol = CacheProtocol(CacheServer(cache)._dispatch, set())
    transport = _FakeTransport(protocol, pause_at)
    protocol.connection_made(transport)
    return protocol, transport


def test_a_paused_connection_dispatches_nothing_until_resumed():
    cache = ServedCache(100_000, "lru")
    protocol, transport = _connect(cache, pause_at=1)
    protocol.data_received(b"".join(_script(10)))
    assert len(transport.writes) == 1 and not transport.reading
    assert cache.stats().misses == 1        # the first put, nothing after
    protocol.resume_writing()
    assert transport.reading and not transport.closing
    assert transport.replies() == _expected(10)


def test_one_chunk_per_byte_through_the_protocol():
    protocol, transport = _connect(ServedCache(100_000, "lru"))
    stream = b"".join(_script(6))
    for i in range(len(stream)):
        protocol.data_received(stream[i:i + 1])
    assert transport.replies() == _expected(6)
    assert len(transport.writes) == 6       # one write per response
    assert not protocol.eof_received() and not transport.closing


@pytest.mark.parametrize("pause_at", [0, 1, 2])
def test_nothing_is_dispatched_after_a_bad_frame(pause_at):
    cache = ServedCache(1000, "lru")
    protocol, transport = _connect(cache, pause_at)
    put = encode_frame({"op": "put", "url": "late", "size": 1}, b"x")
    protocol.data_received(
        encode_frame({"op": "ping"}) + _raw(b"[]") + put)
    if pause_at == 1:
        assert len(transport.writes) == 1 and not transport.closing
    protocol.resume_writing()
    protocol.resume_writing()               # after close: a no-op
    oks = [message["ok"] for message, _ in transport.replies()]
    assert oks == [True, False] and transport.closing
    assert cache.stats().misses == 0


def test_eof_mid_frame_through_the_protocol():
    protocol, transport = _connect(ServedCache(1000, "lru"))
    protocol.data_received(encode_frame({"op": "ping"}) + b"\x00")
    assert not protocol.eof_received()      # falsy: the loop closes it
    (pong, _), (refusal, _) = transport.replies()
    assert pong["ok"] and refusal["error"] == \
        "bad frame: connection closed mid-frame"
    assert transport.closing


def test_frame_encoding_is_length_prefixed():
    """What ``benchmarks/perf/layers.py`` relies on: a payload-less
    frame is a length prefix and the message as UTF-8 JSON, and a
    payload is the frame's tail, verbatim."""
    message = {"op": "request", "url": "http://h/\u00e9", "size": 12,
               "doc_type": "html"}
    frame = encode_frame(message)
    assert frame[:4] == len(frame[4:]).to_bytes(4, "big")
    assert json.loads(frame[4:].decode("utf-8")) == message
    body = bytes(range(256)) * 3
    framed = encode_frame(message, body)
    assert framed[-len(body):] == body
    length = int.from_bytes(framed[:4], "big")
    assert json.loads(framed[4:4 + length]) == {
        **message, "payload_bytes": len(body)}
    assert len(framed) == 4 + length + len(body)
    assert "payload_bytes" not in message       # caller's dict untouched
    # Empty is a payload; None is none.
    assert b"payload_bytes" in encode_frame({"ok": True}, b"")
    assert b"payload_bytes" not in encode_frame({"ok": True})


def _decoded(frame: bytes) -> tuple:
    decoder = FrameDecoder()
    decoder.feed(frame)
    decoded = decoder.next_frame()
    assert not decoder.pending()
    return decoded


#: Requests whose replies are encoded once, in order against one
#: 1000-byte cache, each with the reply dict its verb builds.
FIXED_REPLIES = [
    ({"op": "ping"}, {"ok": True, "pong": True}),
    ({"op": "request", "url": "a", "size": 3},
     {"ok": True, "outcome": "miss"}),
    ({"op": "request", "url": "a", "size": 3},
     {"ok": True, "outcome": "hit"}),
    ({"op": "request", "url": "a", "size": 4},
     {"ok": True, "outcome": "miss-modified"}),
    ({"op": "request", "url": "big", "size": 1001},
     {"ok": True, "outcome": "miss-too-big"}),
    ({"op": "put", "url": "b", "size": 2, "doc_type": "html"},
     {"ok": True, "outcome": "miss"}),
    ({"op": "put", "url": "b", "size": 2}, {"ok": True, "outcome": "hit"}),
    ({"op": "get", "url": "nowhere"}, {"ok": True, "found": False}),
    ({"op": "delete", "url": "a"}, {"ok": True, "deleted": True}),
    ({"op": "delete", "url": "a"}, {"ok": True, "deleted": False}),
]


def test_fixed_replies_decode_to_the_verbs_reply():
    dispatch = CacheServer(ServedCache(1000, "lru"))._dispatch
    for request, reply in FIXED_REPLIES:
        assert _decoded(dispatch(request)) == (reply, None), request
    for outcome in AccessOutcome:
        assert _decoded(wire._OUTCOME_FRAMES[outcome]) == (
            {"ok": True, "outcome": outcome.value}, None)
