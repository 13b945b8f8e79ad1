"""Asyncio TCP front end for a served (possibly sharded) cache.

Wire protocol: a frame is a 4-byte big-endian header length, that many
bytes of UTF-8 JSON (the header, always an object) and — iff the header
carries an integer ``payload_bytes`` — exactly that many raw payload
bytes, header and payload each bounded by :data:`MAX_FRAME`.
``payload_bytes`` belongs to the framing: :func:`encode_frame` sets it,
:class:`FrameDecoder` strips it, no verb sees it.  Requests carry an
``op`` plus op-specific fields; responses always carry ``ok`` (bool)
and either the result fields or an ``error`` string.  A document body
is the payload of a ``put`` request or a ``get`` response and never
enters the JSON: the wire does not charge per payload byte.

Ops::

    {"op": "ping"}                                   -> {"ok": true, "pong": true}
    {"op": "request", "url", "size", "doc_type"?}    -> {"ok": true, "outcome": "hit"|...}
    {"op": "get", "url"}                             -> {"ok": true, "found": bool, ...} [+ payload]
    {"op": "put", "url", "size", "doc_type"?}
     [+ payload]                                     -> {"ok": true, "outcome": ...}
    {"op": "delete", "url"}                          -> {"ok": true, "deleted": bool}
    {"op": "stats"}                                  -> {"ok": true, "stats": {...}}

Every header's bytes are those of ``json.dumps`` with
``separators=(",", ":")``; the hot verbs reach them without the general
codec.  :func:`encode_frame` runs one C encoder built at import, and
:func:`pack_frame` is the one place a length prefix is written.  The
clients fill the ``request``, ``get``, ``put`` and ``delete`` headers
into templates (the URL quoted by ``encode_basestring_ascii``, an
``int`` size written with ``%d``) and frame them with
:func:`pack_frame`; any other URL or size type takes the general
encoder, and the server refuses it as before.
:meth:`CacheServer._dispatch` answers with the response *frame*, not a
dict.  The replies that depend only on their outcome — ``request`` and
``put`` per :class:`AccessOutcome`, the ``get`` miss, ``ping``,
``delete`` either way — are encoded once at import
(:data:`PRE_ENCODED_REPLIES`); a ``get`` hit, ``stats`` and errors are
encoded per call.  A client answers a chunk that is exactly one
pre-encoded reply, read at a frame boundary, from a table built from
these, and decodes all else.  :class:`FrameDecoder` reads a header with
the JSON scanner built once; what it does not consume whole
(surrounding whitespace, extra data, not JSON) goes to the full
decoder, so the frames accepted and every error text are unchanged.
``doc_type`` values map to :class:`DocumentType` through a table; an
unknown one is refused as ``DocumentType(value)`` refuses it.

Ordering and back-pressure: a connection's frames are answered in
arrival order, one response per request, each response one write; all
whole frames of a received chunk are answered before the loop reads
again.  While the peer is not reading (the transport's write buffer is
over its high-water mark) the connection neither reads nor dispatches,
so a peer cannot grow the buffer by sending requests.  A malformed,
truncated or over-bound frame is answered with one
``{"ok": false, "error": "bad frame: ..."}`` and the connection is
closed; an unknown op or a cache error is answered ``ok: false`` and
the connection stays open.

The event loop only frames and decodes; cache work happens in
``data_received`` directly because a :class:`ServedCache` operation is
a few microseconds of lock plus policy work (a ``gdsf(1)`` ``request``
on the DFN-like perf-ledger trace is 2–3 µs on a 2-vCPU Xeon, most of
it ``Cache.reference``) and holds no I/O.  Handing it to a thread pool
would cost more than the operation: one ``run_in_executor`` round trip
of a no-op is ~45 µs on the same host, and the GIL keeps pool threads
from running the policy's Python in parallel anyway, so the lock never
blocks long enough to win that back.
"""

from __future__ import annotations

import asyncio
import json
import struct
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Dict, Optional, Set, Tuple, Union

from repro.core.policy import AccessOutcome
from repro.errors import ConfigurationError, ReproError
from repro.observability.events import emit
from repro.serving.cache import ServedCache
from repro.serving.sharding import ShardedCache
from repro.types import DocumentType

MAX_FRAME = 64 * 1024 * 1024  # refuse absurd frames instead of OOMing

_LEN = struct.Struct(">I")

# Built once: json.dumps with separators builds a new encoder per call,
# and JSONEncoder.encode builds a new C encoder per call.  No markers
# dict: one shared between calls would keep a failed call's entries
# (and be shared across threads), so a cyclic message ends in
# RecursionError instead of "Circular reference detected".
_c_encode = c_make_encoder(None, json.JSONEncoder().default,
                           encode_basestring_ascii, None, ":", ",",
                           False, False, True)
_decoder = json.JSONDecoder()
_decode_json = _decoder.decode
_scan_json = _decoder.scan_once     # the C scanner decode itself runs


class ServingProtocolError(ReproError):
    """The peer broke the framing, or answered ``ok: false`` (its error
    string attached)."""


def encode_frame(message: dict, payload: Optional[bytes] = None) -> bytes:
    """One frame in one buffer, so header and payload leave in one
    write (never write-write-read over Nagle)."""
    if "payload_bytes" in message:
        raise ConfigurationError("payload_bytes is set by the framing")
    if payload is not None:
        message = {**message, "payload_bytes": len(payload)}
    return pack_frame("".join(_c_encode(message, 0)).encode("utf-8"),
                      payload)


def pack_frame(header: bytes, payload: Optional[bytes] = None) -> bytes:
    """The frame of an already-encoded JSON ``header`` (carrying
    ``payload_bytes`` iff ``payload`` is given): the one place a length
    prefix is written."""
    if len(header) > MAX_FRAME or (payload is not None
                                   and len(payload) > MAX_FRAME):
        raise ConfigurationError(
            f"frame header or payload exceeds {MAX_FRAME} bytes")
    prefix = _LEN.pack(len(header))
    if payload is None:
        return prefix + header
    return b"".join((prefix, header, payload))


#: The replies that depend only on their outcome, encoded once.
_OUTCOME_FRAMES: Dict[AccessOutcome, bytes] = {
    outcome: encode_frame({"ok": True, "outcome": outcome.value})
    for outcome in AccessOutcome}
_NOT_FOUND = encode_frame({"ok": True, "found": False})
_PONG = encode_frame({"ok": True, "pong": True})
_DELETED = encode_frame({"ok": True, "deleted": True})
_NOT_DELETED = encode_frame({"ok": True, "deleted": False})
#: Every reply encoded once; a client recognises these without decoding.
PRE_ENCODED_REPLIES: Tuple[bytes, ...] = (
    *_OUTCOME_FRAMES.values(), _NOT_FOUND, _PONG, _DELETED, _NOT_DELETED)


class FrameDecoder:
    """Incremental decoder, the one reader of the wire format: ``feed``
    whatever bytes arrived, then take frames until ``next_frame`` says
    None.  Any violation raises :class:`ServingProtocolError` — as soon
    as the announcement is readable, never after buffering toward it —
    and the decoder is then spent."""

    def __init__(self):
        self._buffer = bytearray()
        self._message: Optional[dict] = None    # header read, payload due
        self._payload_bytes = 0

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def pending(self) -> bool:
        """Whether part of a frame is held (EOF now would truncate it)."""
        return bool(self._buffer) or self._message is not None

    def next_frame(self) -> Optional[Tuple[dict, Optional[bytes]]]:
        """The next complete ``(message, payload)``, or None."""
        buffer = self._buffer
        if self._message is None:
            if len(buffer) < _LEN.size:
                return None
            (length,) = _LEN.unpack_from(buffer)
            if length > MAX_FRAME:
                raise ServingProtocolError(
                    f"peer announced a {length}-byte header "
                    f"(max {MAX_FRAME})")
            end = _LEN.size + length
            if len(buffer) < end:
                return None
            try:
                text = buffer[_LEN.size:end].decode("utf-8")
                try:
                    message, stop = _scan_json(text, 0)
                except (StopIteration, ValueError, RecursionError):
                    stop = -1
                # What the scanner did not take whole (surrounding
                # whitespace, extra data, not JSON), the full decoder
                # accepts or refuses as it always has.
                if stop != len(text):
                    message = _decode_json(text)
            except (ValueError, RecursionError) as exc:
                raise ServingProtocolError(
                    f"header is not UTF-8 JSON: {exc}") from None
            if not isinstance(message, dict):
                raise ServingProtocolError("header is not a JSON object")
            del buffer[:end]
            if "payload_bytes" not in message:
                return message, None
            size = message.pop("payload_bytes")
            if type(size) is not int or not 0 <= size <= MAX_FRAME:
                raise ServingProtocolError(
                    f"payload_bytes must be an integer in "
                    f"[0, {MAX_FRAME}], got {size!r}")
            self._message, self._payload_bytes = message, size
        size = self._payload_bytes
        if len(buffer) < size:
            return None
        # One copy: a bytearray slice would be a copy of its own.  The
        # view is released before the buffer is resized.
        with memoryview(buffer) as view:
            payload = bytes(view[:size])
        del buffer[:size]
        message, self._message = self._message, None
        return message, payload


class CacheProtocol(asyncio.Protocol):
    """One connection: each request frame answered by the frame
    ``dispatch(message, payload)`` returns, under the module's ordering
    and back-pressure rules.  The transport is a member of
    ``connections`` from ``connection_made`` to ``connection_lost``."""

    def __init__(self, dispatch: Callable[[dict, Optional[bytes]], bytes],
                 connections: Set[asyncio.BaseTransport]):
        self._dispatch = dispatch
        self._connections = connections
        self._decoder = FrameDecoder()
        self._transport: Optional[asyncio.Transport] = None
        self._paused = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._connections.add(transport)

    def connection_lost(self, exc) -> None:
        self._connections.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        self._decoder.feed(data)
        self._answer()

    def eof_received(self) -> None:
        # Whole frames wait unanswered only while reading is paused, and
        # EOF is not seen then: what is held now, the peer cut short.
        if self._decoder.pending():
            self._refuse("connection closed mid-frame")

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        if not self._transport.is_closing():
            self._paused = False
            self._transport.resume_reading()
            self._answer()

    def _answer(self) -> None:
        """Answer buffered frames until none is whole or the peer has
        stopped reading."""
        write, next_frame = self._transport.write, self._decoder.next_frame
        try:
            while not self._paused:
                frame = next_frame()
                if frame is None:
                    return
                write(self._dispatch(*frame))
        except ServingProtocolError as exc:
            self._refuse(exc)

    def _refuse(self, reason) -> None:
        self._transport.write(encode_frame(
            {"ok": False, "error": f"bad frame: {reason}"}))
        self._transport.close()     # after the buffer is flushed


class CacheServer:
    """Serve one :class:`ServedCache` / :class:`ShardedCache` over TCP."""

    def __init__(self, cache: Union[ServedCache, ShardedCache],
                 host: str = "127.0.0.1", port: int = 0):
        self.cache = cache
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.BaseTransport] = set()

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: CacheProtocol(self._dispatch, self._connections),
            self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        shards = (len(self.cache.shard_names)
                  if isinstance(self.cache, ShardedCache) else 1)
        policy = (self.cache.policy_name
                  if isinstance(self.cache, ShardedCache)
                  else self.cache.policy.name)
        emit("serving_started", host=self.host, port=self.port,
             shards=shards, policy=policy,
             capacity_bytes=self.cache.capacity_bytes)

    async def stop(self) -> None:
        """Stop listening and close every open connection, each once
        the replies already written to it are flushed."""
        if self._server is not None:
            self._server.close()
            for transport in tuple(self._connections):
                transport.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    def _dispatch(self, message: dict,
                  payload: Optional[bytes] = None) -> bytes:
        """The response frame to one request."""
        try:
            op = message.get("op")
            if op == "request":
                return _OUTCOME_FRAMES[self.cache.request(
                    message["url"], _size(message), _doc_type(message))]
            if op == "get":
                document = self.cache.get(message["url"])
                if document is None:
                    return _NOT_FOUND
                return encode_frame(
                    {"ok": True, "found": True, "url": document.url,
                     "size": document.size,
                     "doc_type": document.doc_type.value,
                     "frequency": document.frequency}, document.payload)
            if op == "put":
                return _OUTCOME_FRAMES[self.cache.put(
                    message["url"], _size(message), _doc_type(message),
                    payload)]
            if op == "ping":
                return _PONG
            if op == "delete":
                return (_DELETED if self.cache.delete(message["url"])
                        else _NOT_DELETED)
            if op == "stats":
                stats = self.cache.stats()
                if not isinstance(stats, dict):
                    stats = stats.as_dict()
                if isinstance(self.cache, ShardedCache):
                    self.cache.publish_metrics()
                return encode_frame({"ok": True, "stats": stats})
            return encode_frame(
                {"ok": False, "error": f"unknown op {op!r}"})
        except Exception as exc:  # surface, don't kill the connection
            return encode_frame({"ok": False,
                                 "error": f"{type(exc).__name__}: {exc}"})


def _size(message: dict) -> int:
    size = message["size"]
    if type(size) is not int:     # 12.9, "12" and true are not sizes
        raise ConfigurationError(
            f"size must be a JSON integer, got {size!r}")
    return size


_DOC_TYPES: Dict[str, DocumentType] = {t.value: t for t in DocumentType}


def _doc_type(message: dict) -> DocumentType:
    value = message.get("doc_type", "other")
    try:
        return _DOC_TYPES[value]
    except (KeyError, TypeError):       # refused as DocumentType refuses
        return DocumentType(value)


async def serve(cache: Union[ServedCache, ShardedCache],
                host: str = "127.0.0.1", port: int = 0) -> CacheServer:
    """Start a :class:`CacheServer` and return it (caller stops it)."""
    server = CacheServer(cache, host, port)
    await server.start()
    return server
