"""Clients for the serving protocol (sync socket + asyncio).

:class:`CacheClient` is a plain blocking-socket client — one
connection, one outstanding request — which is what the protocol tests
and simple drivers need.  :class:`AsyncCacheClient` speaks the same
frames over asyncio streams for use inside the server's own loop.
Both send a frame in one write, the hot verbs' headers filled into
templates byte-identical to :func:`~repro.serving.server.encode_frame`,
and read replies through the server module's
:class:`~repro.serving.server.FrameDecoder`, so a reply that breaks the
framing raises instead of being trusted; a chunk that is exactly one of
the server's pre-encoded replies, at a frame boundary, is answered from
a table of them instead.  A client holding bytes past the last reply
refuses to send the next request, so a peer that answers once too often
fails that call instead of shifting every later answer by one.

Both return the decoded response dict verbatim, a document body
attached as ``bytes`` under ``payload``; a response with ``ok: false``
raises :class:`ServingProtocolError` carrying the server's error
string, so callers never have to remember to check.
"""

from __future__ import annotations

import asyncio
import socket
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from repro.serving.server import (PRE_ENCODED_REPLIES, FrameDecoder,
                                  ServingProtocolError, encode_frame,
                                  pack_frame)
from repro.types import DocumentType

__all__ = ["AsyncCacheClient", "CacheClient", "ServingProtocolError"]

_READ_BYTES = 64 * 1024       # asked of one read; a reply may take several

#: Why a client refuses to send: the peer sent bytes beyond the last
#: reply, and reading them as the next answer would shift every later
#: answer by one.
_HELD = "peer sent bytes that answer no request"

#: Each document type as a header spells its ``doc_type``.
_TYPE_JSON = {doc_type: _quote(doc_type.value) for doc_type in DocumentType}


def _sized_frame(op: str, url: str, size: int, doc_type: DocumentType,
                 payload: Optional[bytes] = None) -> bytes:
    """The ``request`` / ``put`` frame, byte for byte what
    :func:`encode_frame` makes of ``{"op", "url", "size", "doc_type"}``
    (and ``payload``), filled into a template instead."""
    type_json = _TYPE_JSON.get(doc_type)
    if type_json is None or type(url) is not str or type(size) is not int:
        # Not the template's types (a float or bool size, say): sent as
        # the general encoder spells it, for the server to refuse.
        return encode_frame({"op": op, "url": url, "size": size,
                             "doc_type": doc_type.value}, payload)
    if payload is None:
        return pack_frame(
            ('{"op":"%s","url":%s,"size":%d,"doc_type":%s}'
             % (op, _quote(url), size, type_json)).encode())
    return pack_frame(
        ('{"op":"%s","url":%s,"size":%d,"doc_type":%s,"payload_bytes":%d}'
         % (op, _quote(url), size, type_json, len(payload))).encode(),
        payload)


def _url_frame(op: str, url: str) -> bytes:
    """The ``get`` / ``delete`` frame, byte for byte what
    :func:`encode_frame` makes of ``{"op", "url"}``."""
    if type(url) is not str:
        return encode_frame({"op": op, "url": url})
    return pack_frame(('{"op":"%s","url":%s}' % (op, _quote(url))).encode())


def _decoded(reply: bytes) -> dict:
    decoder = FrameDecoder()
    decoder.feed(reply)
    message, _ = decoder.next_frame()
    return message


#: The server's pre-encoded replies, each with the response it decodes
#: to; a caller gets a copy, never the table's own dict.
_KNOWN_REPLIES = {reply: _decoded(reply) for reply in PRE_ENCODED_REPLIES}


def _reply(decoder: FrameDecoder, chunk: bytes) -> Optional[dict]:
    """The response dict callers get, once ``chunk`` (empty: the peer
    closed) completes the reply frame; None while it does not.  A chunk
    that is exactly one pre-encoded reply, read at a frame boundary, is
    answered from :data:`_KNOWN_REPLIES`; all else is decoded."""
    known = _KNOWN_REPLIES.get(chunk)
    if known is not None and not decoder.pending():
        return dict(known)
    if not chunk:
        raise ServingProtocolError("connection closed mid-frame")
    decoder.feed(chunk)
    frame = decoder.next_frame()
    if frame is None:
        return None
    response, payload = frame
    if not response.get("ok"):
        raise ServingProtocolError(
            response.get("error", "server reported failure"))
    if payload is not None:
        response["payload"] = payload
    return response


class CacheClient:
    """Blocking client: ``with CacheClient(host, port) as c: c.get(url)``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 10.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._decoder = FrameDecoder()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "CacheClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _roundtrip(self, message: dict,
                   payload: Optional[bytes] = None) -> dict:
        return self._exchange(encode_frame(message, payload))

    def _exchange(self, frame: bytes) -> dict:
        if self._decoder.pending():
            raise ServingProtocolError(_HELD)
        self._sock.sendall(frame)
        while True:
            response = _reply(self._decoder, self._sock.recv(_READ_BYTES))
            if response is not None:
                return response

    # -- ops ---------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def request(self, url: str, size: int,
                doc_type: DocumentType = DocumentType.OTHER) -> str:
        return self._exchange(
            _sized_frame("request", url, size, doc_type))["outcome"]

    def get(self, url: str) -> Optional[dict]:
        response = self._exchange(_url_frame("get", url))
        return response if response["found"] else None

    def put(self, url: str, size: int,
            doc_type: DocumentType = DocumentType.OTHER,
            payload: Optional[bytes] = None) -> str:
        return self._exchange(
            _sized_frame("put", url, size, doc_type, payload))["outcome"]

    def delete(self, url: str) -> bool:
        return self._exchange(_url_frame("delete", url))["deleted"]

    def stats(self) -> dict:
        return self._roundtrip({"op": "stats"})["stats"]


class AsyncCacheClient:
    """Asyncio client speaking the same frames (for in-loop callers)."""

    def __init__(self):
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder = FrameDecoder()

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = 0) -> "AsyncCacheClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(
            host, port)
        return client

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            await self._writer.wait_closed()
            self._writer = None

    async def call(self, message: dict,
                   payload: Optional[bytes] = None) -> dict:
        """One raw round trip (``ok`` checked)."""
        return await self._call(encode_frame(message, payload))

    async def _call(self, frame: bytes) -> dict:
        if self._decoder.pending():
            raise ServingProtocolError(_HELD)
        self._writer.write(frame)
        await self._writer.drain()
        while True:
            response = _reply(self._decoder,
                              await self._reader.read(_READ_BYTES))
            if response is not None:
                return response

    async def ping(self) -> bool:
        return bool((await self.call({"op": "ping"})).get("pong"))

    async def request(self, url: str, size: int,
                      doc_type: DocumentType = DocumentType.OTHER
                      ) -> str:
        response = await self._call(
            _sized_frame("request", url, size, doc_type))
        return response["outcome"]

    async def get(self, url: str) -> Optional[dict]:
        response = await self._call(_url_frame("get", url))
        return response if response["found"] else None

    async def put(self, url: str, size: int,
                  doc_type: DocumentType = DocumentType.OTHER,
                  payload: Optional[bytes] = None) -> str:
        response = await self._call(
            _sized_frame("put", url, size, doc_type, payload))
        return response["outcome"]

    async def delete(self, url: str) -> bool:
        return (await self._call(_url_frame("delete", url)))["deleted"]

    async def stats(self) -> dict:
        return (await self.call({"op": "stats"}))["stats"]
