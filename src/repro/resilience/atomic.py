"""Replace a file's contents atomically, and durably when asked.

The one temp-write-then-rename body behind checkpoints, queue specs
and markers, store rewrites, leases and manifests: a reader sees the
old file or the new one, never a torn one, whenever the writer dies.
"""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path
from typing import Union


def fsync_dir(directory: Union[str, Path]) -> None:
    """Flush a directory entry so a completed rename (or unlink)
    survives power loss; fsync of the file alone only pins its
    *contents*."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], text: str, *,
                 durable: bool) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it into
    place.

    The temp name embeds the pid and a random tag, so concurrent
    writers of one path never stomp each other's half-written file.
    ``durable`` fsyncs the file before the rename and the directory
    after it: the write then survives power loss, at the price of two
    disk flushes.  A write that fails raises what failed, leaves
    ``path`` as it was and removes its temp file.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            if durable:
                os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    if durable:
        fsync_dir(path.parent)
