"""Clients for the serving protocol (sync socket + asyncio).

:class:`CacheClient` is a plain blocking-socket client — one
connection, one outstanding request — which is what the protocol tests
and simple drivers need.  :class:`AsyncCacheClient` speaks the same
frames over asyncio streams for use inside the server's own loop.
Both send a frame in one write and read replies through the server
module's :class:`~repro.serving.server.FrameDecoder`, so a reply that
breaks the framing raises instead of being trusted.

Both return the decoded response dict verbatim, a document body
attached as ``bytes`` under ``payload``; a response with ``ok: false``
raises :class:`ServingProtocolError` carrying the server's error
string, so callers never have to remember to check.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Optional

from repro.serving.server import (FrameDecoder, ServingProtocolError,
                                  encode_frame)
from repro.types import DocumentType

__all__ = ["AsyncCacheClient", "CacheClient", "ServingProtocolError"]

_READ_BYTES = 64 * 1024       # asked of one read; a reply may take several


def _reply(decoder: FrameDecoder, chunk: bytes) -> Optional[dict]:
    """The response dict callers get, once ``chunk`` (empty: the peer
    closed) completes the reply frame; None while it does not."""
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
        self._sock.sendall(encode_frame(message, payload))
        while True:
            response = _reply(self._decoder, self._sock.recv(_READ_BYTES))
            if response is not None:
                return response

    # -- ops ---------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def request(self, url: str, size: int,
                doc_type: DocumentType = DocumentType.OTHER) -> str:
        return self._roundtrip({"op": "request", "url": url,
                                "size": size,
                                "doc_type": doc_type.value})["outcome"]

    def get(self, url: str) -> Optional[dict]:
        response = self._roundtrip({"op": "get", "url": url})
        return response if response["found"] else None

    def put(self, url: str, size: int,
            doc_type: DocumentType = DocumentType.OTHER,
            payload: Optional[bytes] = None) -> str:
        return self._roundtrip({"op": "put", "url": url, "size": size,
                                "doc_type": doc_type.value},
                               payload)["outcome"]

    def delete(self, url: str) -> bool:
        return self._roundtrip({"op": "delete", "url": url})["deleted"]

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
        self._writer.write(encode_frame(message, payload))
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
        response = await self.call(
            {"op": "request", "url": url, "size": size,
             "doc_type": doc_type.value})
        return response["outcome"]

    async def get(self, url: str) -> Optional[dict]:
        response = await self.call({"op": "get", "url": url})
        return response if response["found"] else None

    async def put(self, url: str, size: int,
                  doc_type: DocumentType = DocumentType.OTHER,
                  payload: Optional[bytes] = None) -> str:
        response = await self.call(
            {"op": "put", "url": url, "size": size,
             "doc_type": doc_type.value}, payload)
        return response["outcome"]

    async def delete(self, url: str) -> bool:
        return (await self.call({"op": "delete", "url": url}))["deleted"]

    async def stats(self) -> dict:
        return (await self.call({"op": "stats"}))["stats"]
