"""Atomic JSON checkpoints for long-running sweeps and suites.

Each completed unit of work (a sweep cell, an experiment) is saved as
one JSON file, written to a temp file and ``os.replace``-d into place
so a crash mid-write never leaves a truncated checkpoint behind.
Checkpoints carry the hash of the configuration that produced them; a
resume under different settings is detected and rejected instead of
silently mixing stale results into a fresh run.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import CheckpointError
from repro.observability.logs import get_logger
from repro.resilience.atomic import atomic_write

PathLike = Union[str, Path]

_logger = get_logger("resilience.checkpoint")

_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")
_FORMAT_VERSION = 1

#: Temp files older than this are leftovers of a crashed writer and are
#: swept when a store opens; younger ones may belong to a live writer.
_TMP_SWEEP_AGE_SECONDS = 60.0


def config_hash(config: object) -> str:
    """Stable hash of any JSON-serializable configuration object.

    Keys are sorted and floats rendered by ``json`` so the same logical
    config hashes identically across processes and Python hash seeds.
    """
    try:
        canonical = json.dumps(config, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"config is not hashable: {exc}") from exc
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _content_crc(key: str, config_digest: Optional[str],
                 payload: object) -> str:
    """CRC-32 over the envelope's semantic content (canonical JSON), so
    silent media corruption — a bit flip that still parses — is caught
    on load instead of mixed into a resume."""
    canonical = json.dumps(
        {"key": key, "config_hash": config_digest, "payload": payload},
        sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF,
                  "08x")


def _filename(key: str) -> str:
    """Filesystem-safe, collision-free name for a checkpoint key.

    Keys like ``"gd*(1)@524288"`` contain characters that are unsafe in
    filenames; the readable prefix keeps directories greppable and the
    key-hash suffix guarantees distinct keys never collide.
    """
    safe = _SAFE_CHARS.sub("_", key)[:80]
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:10]
    return f"{safe}.{digest}.json"


class CheckpointStore:
    """A directory of atomic, config-hash-validated JSON checkpoints."""

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self, max_age: float = _TMP_SWEEP_AGE_SECONDS
                         ) -> int:
        """Remove temp files abandoned by crashed writers.

        Only files older than ``max_age`` go: a younger one may be a
        concurrent writer's in-flight save, which must not be yanked
        out from under its ``os.replace``.
        """
        now = time.time()
        removed = 0
        for tmp in self.directory.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime <= max_age:
                    continue
                tmp.unlink()
            except FileNotFoundError:
                continue  # another opener swept it first
            removed += 1
        if removed:
            _logger.info("swept %d stale checkpoint temp file(s)",
                         removed, extra={"removed": removed,
                                         "path": str(self.directory)})
        return removed

    def path_for(self, key: str) -> Path:
        return self.directory / _filename(key)

    def save(self, key: str, payload: dict,
             config_digest: Optional[str] = None) -> Path:
        """Atomically and durably persist ``payload`` under ``key``.

        Two processes (or threads) saving the same key never stomp
        each other's half-written temp file, and the file and its
        directory are fsync'd around the rename, so a checkpoint
        reported saved survives power loss
        (:func:`repro.resilience.atomic.atomic_write`).
        """
        envelope = {
            "version": _FORMAT_VERSION,
            "key": key,
            "config_hash": config_digest,
            "payload": payload,
            "crc": _content_crc(key, config_digest, payload),
        }
        target = self.path_for(key)
        try:
            atomic_write(target, json.dumps(envelope, indent=2),
                         durable=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {key!r}: {exc}") from exc
        _logger.debug("checkpoint saved: %s", key,
                      extra={"key": key, "path": str(target)})
        return target

    def load(self, key: str,
             expected_config_digest: Optional[str] = None) -> dict:
        """Load and validate the payload saved under ``key``.

        Raises :class:`~repro.errors.CheckpointError` if the checkpoint
        is missing, corrupt, or was written under a different config
        hash than ``expected_config_digest``.
        """
        envelope = self._read_envelope(self.path_for(key))
        if envelope.get("key") != key:
            raise CheckpointError(
                f"checkpoint key mismatch: wanted {key!r}, "
                f"file holds {envelope.get('key')!r}")
        if (expected_config_digest is not None
                and envelope.get("config_hash") != expected_config_digest):
            raise CheckpointError(
                f"checkpoint {key!r} was written under config hash "
                f"{envelope.get('config_hash')!r}, expected "
                f"{expected_config_digest!r}; refusing to resume with "
                f"mismatched settings (use a fresh --checkpoint-dir)")
        return envelope["payload"]

    def has(self, key: str) -> bool:
        return self.path_for(key).exists()

    def completed_keys(self) -> List[str]:
        """Keys of every readable checkpoint in the directory."""
        return sorted(envelope["key"] for _, envelope in self._envelopes())

    def completed(self,
                  expected_config_digest: Optional[str] = None
                  ) -> Dict[str, dict]:
        """key → payload for every checkpoint matching the config hash.

        Checkpoints from other config hashes are ignored (not an
        error): a shared checkpoint dir may legitimately hold runs at
        several scales.
        """
        out: Dict[str, dict] = {}
        for _, envelope in self._envelopes():
            if (expected_config_digest is not None and
                    envelope.get("config_hash") != expected_config_digest):
                continue
            out[envelope["key"]] = envelope["payload"]
        return out

    def delete(self, key: str) -> None:
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            pass

    def clear(self) -> int:
        """Remove every checkpoint file (temp leftovers included);
        returns how many were removed."""
        removed = 0
        for pattern in ("*.json", "*.tmp"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed

    def _envelopes(self) -> Iterator[tuple]:
        for path in sorted(self.directory.glob("*.json")):
            try:
                yield path, self._read_envelope(path)
            except CheckpointError as exc:
                # Unreadable strays don't poison a resume scan.
                _logger.warning("skipping unreadable checkpoint %s: %s",
                                path.name, exc,
                                extra={"path": str(path)})
                continue

    def _read_envelope(self, path: Path) -> dict:
        if not path.exists():
            raise CheckpointError(f"no checkpoint at {path}")
        try:
            envelope = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path.name}: {exc}") from exc
        if (not isinstance(envelope, dict) or "payload" not in envelope
                or "key" not in envelope):
            raise CheckpointError(
                f"checkpoint {path.name} lacks the expected envelope")
        # Envelopes written before CRCs existed stay loadable; any
        # envelope that carries one must verify.
        if "crc" in envelope and envelope["crc"] != _content_crc(
                envelope["key"], envelope.get("config_hash"),
                envelope["payload"]):
            raise CheckpointError(
                f"corrupt checkpoint {path.name}: content CRC mismatch")
        return envelope
