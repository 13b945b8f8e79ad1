"""Crash-safe, append-only results store for the experiment service.

Every completed trial becomes one JSONL write-ahead record keyed by
``(config_hash, git_hash, seed)``.  A record line is a CRC-verified
envelope::

    {"crc": "1f2e3d4c", "record": {"config_hash": ..., "git_hash": ...,
                                   "seed": ..., "payload": {...}}}

with the CRC computed over the canonical (sorted-keys, no-whitespace)
JSON of the inner record, so any torn append, truncation, or bit flip
is detected on read.  Records are written with ``fsync`` before the
append returns, so a trial reported persisted survives power loss.

Concurrency without coordination: each writing process appends to its
own uniquely named *segment* file under ``segments/``, so concurrent
workers never interleave bytes.  A scan merges the compacted base file
(``results.jsonl``) with every segment; :meth:`ResultsStore.compact`
folds the segments into a canonical base — records deduplicated by key
and sorted — and deletes them.  Because the canonical base is a pure
function of the record *set*, two runs that completed the same trials
compact to **bit-identical** stores regardless of interruptions,
worker counts, or append order; the chaos harness asserts exactly
that.

Corrupt records never poison a scan: a line that fails CRC or JSON
validation is *quarantined* — appended with provenance to
``quarantine/quarantined.jsonl``, removed from its source file via an
atomic rewrite, logged, and surfaced as a ``record_quarantined``
telemetry event.  The scan then continues; lost records are re-run by
the queue's reconcile step, not silently dropped.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.errors import StoreError
from repro.observability import events as _events
from repro.observability.logs import get_logger
from repro.resilience.atomic import atomic_write, fsync_dir

PathLike = Union[str, Path]

_logger = get_logger("experiments.store")

RECORD_VERSION = 1

BASE_FILENAME = "results.jsonl"
SEGMENTS_DIRNAME = "segments"
QUARANTINE_DIRNAME = "quarantine"
QUARANTINE_FILENAME = "quarantined.jsonl"


class ResultKey(NamedTuple):
    """Identity of one trial result: what config, what code, what seed."""

    config_hash: str
    git_hash: str
    seed: int

    def as_str(self) -> str:
        return f"{self.config_hash}:{self.git_hash}:{self.seed}"


def canonical_json(obj: object) -> str:
    """The one true serialization — sorted keys, no whitespace — so
    CRCs and compacted stores are byte-stable across processes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _crc(text: str) -> str:
    return format(zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_record(record: dict) -> str:
    """One WAL line (without newline) for a record dict."""
    inner = canonical_json(record)
    return canonical_json({"crc": _crc(inner), "record": record})


def decode_record(line: str) -> dict:
    """Parse and CRC-verify one WAL line; raises ValueError on any
    corruption (torn JSON, missing fields, CRC mismatch)."""
    envelope = json.loads(line)
    if not isinstance(envelope, dict) or "record" not in envelope \
            or "crc" not in envelope:
        raise ValueError("line lacks the crc/record envelope")
    record = envelope["record"]
    expected = _crc(canonical_json(record))
    if envelope["crc"] != expected:
        raise ValueError(
            f"CRC mismatch: stored {envelope['crc']!r}, "
            f"computed {expected!r}")
    for field in ("config_hash", "git_hash", "seed", "payload"):
        if field not in record:
            raise ValueError(f"record lacks {field!r}")
    return record


def git_revision(root: Optional[PathLike] = None) -> str:
    """The current git commit hash, or ``"unknown"`` outside a repo.

    Results are keyed by it so a store can hold trials from several
    code versions without mixing them.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


@dataclass
class CompactionStats:
    """What one :meth:`ResultsStore.compact` call did."""

    records: int
    segments_merged: int
    quarantined: int
    duplicates_dropped: int
    conflicts: int


class ResultsStore:
    """A directory of crash-safe trial records (see module docstring)."""

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)
        self.segments_dir = self.directory / SEGMENTS_DIRNAME
        self.quarantine_dir = self.directory / QUARANTINE_DIRNAME
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self._segment_stream = None
        self._segment_path: Optional[Path] = None

    # -- writing ----------------------------------------------------------

    @property
    def base_path(self) -> Path:
        return self.directory / BASE_FILENAME

    @property
    def quarantine_path(self) -> Path:
        return self.quarantine_dir / QUARANTINE_FILENAME

    def _open_segment(self):
        if self._segment_stream is None or self._segment_stream.closed:
            # The zero-padded timestamp makes segment names sort in
            # creation order, which is what gives cross-segment
            # first-wins dedup its "first" (pid + uuid only break ties).
            self._segment_path = self.segments_dir / (
                f"seg-{time.time_ns():020d}-{os.getpid()}-"
                f"{uuid.uuid4().hex[:8]}.jsonl")
            self._segment_stream = open(self._segment_path, "a",
                                        encoding="utf-8")
        return self._segment_stream

    def _close_segment(self) -> None:
        if self._segment_stream is not None \
                and not self._segment_stream.closed:
            self._segment_stream.close()
        self._segment_stream = None
        self._segment_path = None

    def append(self, config_hash: str, git_hash: str, seed: int,
               payload: dict) -> ResultKey:
        """Durably append one trial record; returns its key.

        The line is flushed and fsync'd before this returns: a record
        the caller saw appended survives a SIGKILL or power loss one
        instruction later.
        """
        key = ResultKey(config_hash, git_hash, int(seed))
        record = {
            "version": RECORD_VERSION,
            "config_hash": key.config_hash,
            "git_hash": key.git_hash,
            "seed": key.seed,
            "payload": payload,
        }
        line = encode_record(record)
        try:
            stream = self._open_segment()
            stream.write(line + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        except OSError as exc:
            raise StoreError(
                f"cannot append record {key.as_str()!r}: {exc}") from exc
        _events.emit("record_appended", key=key.as_str())
        return key

    def close(self) -> None:
        self._close_segment()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scanning (with quarantine) ---------------------------------------

    def _source_files(self) -> List[Path]:
        """Base first, then segments in name order: a deterministic
        merge order for any record set."""
        files = []
        if self.base_path.exists():
            files.append(self.base_path)
        files.extend(sorted(self.segments_dir.glob("*.jsonl")))
        return files

    def _quarantine(self, source: Path, line_number: int, raw: str,
                    reason: str) -> None:
        entry = {
            "source": source.name,
            "line_number": line_number,
            "raw": raw[:2000],
            "reason": reason,
        }
        try:
            with open(self.quarantine_path, "a",
                      encoding="utf-8") as stream:
                stream.write(canonical_json(entry) + "\n")
                stream.flush()
                os.fsync(stream.fileno())
        except OSError as exc:  # pragma: no cover - disk full etc.
            _logger.error("cannot quarantine record: %s", exc)
        _events.emit("record_quarantined", source=source.name,
                     reason=reason, line_number=line_number)

    def _atomic_rewrite(self, path: Path, lines: List[str]) -> None:
        try:
            atomic_write(path, "".join(line + "\n" for line in lines),
                         durable=True)
        except OSError as exc:
            raise StoreError(
                f"cannot rewrite {path.name}: {exc}") from exc

    def _scan_file(self, path: Path) -> Tuple[List[Tuple[str, dict]],
                                              int]:
        """(encoded line, record) pairs from one file; quarantines and
        strips corrupt lines (the file is rewritten without them)."""
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return [], 0
        except OSError as exc:
            raise StoreError(f"cannot read {path.name}: {exc}") from exc
        good: List[Tuple[str, dict]] = []
        bad = 0
        for number, raw in enumerate(text.splitlines(), start=1):
            if not raw.strip():
                continue
            try:
                record = decode_record(raw)
            except ValueError as exc:
                self._quarantine(path, number, raw, str(exc))
                bad += 1
                continue
            good.append((raw, record))
        if bad:
            # Move the corruption aside physically, not just logically:
            # the rewritten file holds only verified records, so the
            # same bad line is never re-quarantined on the next scan.
            self._atomic_rewrite(path, [line for line, _ in good])
        return good, bad

    def scan(self) -> Iterator[Tuple[ResultKey, dict]]:
        """Yield ``(key, record)`` for every verified record, base then
        segments, quarantining corruption as it is found.  Duplicate
        keys are yielded in encounter order (see :meth:`records` for
        the deduplicated view)."""
        # Scanning may rewrite files; never scan through our own open
        # append handle (the next append simply opens a new segment).
        self._close_segment()
        for path in self._source_files():
            for _, record in self._scan_file(path)[0]:
                yield (ResultKey(record["config_hash"],
                                 record["git_hash"],
                                 int(record["seed"])),
                       record)

    def records(self) -> Dict[ResultKey, dict]:
        """key → record, first occurrence winning.

        First-wins makes resume idempotent: a trial re-executed because
        its completion marker was lost cannot overwrite the record the
        original execution already persisted.
        """
        out: Dict[ResultKey, dict] = {}
        for key, record in self.scan():
            out.setdefault(key, record)
        return out

    def keys(self) -> List[ResultKey]:
        return sorted(self.records())

    def has(self, key: ResultKey) -> bool:
        return key in self.records()

    def get(self, key: ResultKey) -> Optional[dict]:
        return self.records().get(key)

    def payloads(self) -> Dict[ResultKey, dict]:
        """key → trial payload (the caller-supplied result dict)."""
        return {key: record["payload"]
                for key, record in self.records().items()}

    def quarantined(self) -> List[dict]:
        """Every quarantined line's provenance entry, oldest first."""
        if not self.quarantine_path.exists():
            return []
        entries = []
        for raw in self.quarantine_path.read_text(
                encoding="utf-8", errors="replace").splitlines():
            if not raw.strip():
                continue
            try:
                entries.append(json.loads(raw))
            except ValueError:
                entries.append({"raw": raw[:2000],
                                "reason": "unparsable quarantine entry"})
        return entries

    # -- compaction -------------------------------------------------------

    def compact(self) -> CompactionStats:
        """Fold base + segments into the canonical base file.

        The output is deduplicated by key (first occurrence wins, in
        deterministic merge order), sorted by key, and written
        atomically with fsync.  Two stores holding the same record set
        compact to byte-identical files — the property the chaos
        harness checks end to end.
        """
        self._close_segment()
        merged: Dict[ResultKey, dict] = {}
        duplicates = 0
        conflicts = 0
        quarantined = 0
        segments = sorted(self.segments_dir.glob("*.jsonl"))
        for path in self._source_files():
            good, bad = self._scan_file(path)
            quarantined += bad
            for _, record in good:
                key = ResultKey(record["config_hash"],
                                record["git_hash"], int(record["seed"]))
                if key in merged:
                    duplicates += 1
                    if canonical_json(merged[key]) \
                            != canonical_json(record):
                        conflicts += 1
                        _logger.warning(
                            "conflicting duplicate for %s kept "
                            "first-written record", key.as_str(),
                            extra={"key": key.as_str()})
                    continue
                merged[key] = record
        lines = [encode_record(merged[key]) for key in sorted(merged)]
        self._atomic_rewrite(self.base_path, lines)
        for path in segments:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        fsync_dir(self.segments_dir)
        stats = CompactionStats(
            records=len(merged),
            segments_merged=len(segments),
            quarantined=quarantined,
            duplicates_dropped=duplicates,
            conflicts=conflicts,
        )
        _events.emit("store_compacted", records=stats.records,
                     segments=stats.segments_merged,
                     quarantined=stats.quarantined,
                     duplicates_dropped=stats.duplicates_dropped)
        return stats

    def digest(self) -> str:
        """CRC-32 of the compacted base file's bytes (compact first for
        a canonical value)."""
        if not self.base_path.exists():
            return _crc("")
        return _crc(self.base_path.read_text(encoding="utf-8"))
