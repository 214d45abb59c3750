"""Write-ahead logging for the relational store.

The paper delegates durability to an industrial RDBMS (§4.5.1); this module
provides the equivalent guarantee for the embedded store: every committed
mutation is appended to ``wal.jsonl`` in the database directory *before* it
is considered durable, so a crash between two snapshots loses nothing that
was acknowledged.

Record format — one JSON object per line::

    {"crc": <crc32 of the canonical op JSON>, "op": {...}}

The CRC lets recovery distinguish a *torn tail* (the process died while
appending the final record — expected after a crash, silently discarded)
from *interior corruption* (a bad block in the middle of the log —
quarantined and reported).  Appends are flushed and ``fsync``'d by default,
matching the "no acknowledged write is ever lost" contract.

Op payloads are produced by :class:`~repro.relstore.database.Database`
journaling (see ``Database.set_journal``) and replayed by
:mod:`repro.relstore.persist` on open.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .errors import WalError

WAL_NAME = "wal.jsonl"

#: Transaction-framing op kinds.  ``Database.commit`` wraps a
#: transaction's ops in ``{"op": "txn_begin", "txn": n}`` …
#: ``{"op": "txn_commit", "txn": n}`` records; recovery replays ops
#: between a matched pair atomically and drops an unmatched (crashed
#: mid-commit) group entirely.
TXN_BEGIN = "txn_begin"
TXN_COMMIT = "txn_commit"


#: One encoder for every canonical serialization: ``json.dumps`` with
#: options builds a new ``JSONEncoder`` per call.  ``encode`` keeps no
#: state between calls, so threads share it.
_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                              separators=(",", ":"))


def canonical_json(payload: Any) -> str:
    """The canonical serialization CRCs are computed over."""
    return _CANONICAL.encode(payload)


def checksum(payload: Any) -> int:
    """CRC32 of the canonical JSON of *payload*."""
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


def encode_record(op: dict[str, Any]) -> str:
    """Serialize one WAL record (without trailing newline).

    The op is serialized once: its canonical text is both what the CRC
    covers and what the envelope embeds.  With sorted keys ("crc" before
    "op") and compact separators this is byte for byte
    ``canonical_json({"crc": checksum(op), "op": op})``.
    """
    text = _CANONICAL.encode(op)
    return '{"crc":%d,"op":%s}' % (zlib.crc32(text.encode("utf-8")), text)


@dataclass(frozen=True)
class BadRecord:
    """A WAL line that failed parsing or its checksum."""

    line_number: int
    reason: str
    raw: str
    torn_tail: bool = False


@dataclass
class WalReplay:
    """Outcome of scanning a write-ahead log."""

    records: list[dict[str, Any]] = field(default_factory=list)
    bad_records: list[BadRecord] = field(default_factory=list)

    @property
    def torn_tail(self) -> bool:
        """Whether the log ended in a partially written record."""
        return any(bad.torn_tail for bad in self.bad_records)

    @property
    def interior_corruption(self) -> list[BadRecord]:
        """Bad records that are *not* the expected torn tail."""
        return [bad for bad in self.bad_records if not bad.torn_tail]


def _decode_line(line_number: int, line: str) -> dict[str, Any] | BadRecord:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return BadRecord(line_number, f"bad JSON: {exc}", line)
    if not isinstance(record, dict) or "op" not in record:
        return BadRecord(line_number, "not a WAL record", line)
    op = record["op"]
    if record.get("crc") != checksum(op):
        return BadRecord(line_number, "checksum mismatch", line)
    if not isinstance(op, dict) or "op" not in op:
        return BadRecord(line_number, "malformed op payload", line)
    return op


class WriteAheadLog:
    """An append-only, checksummed, fsync'd operation log.

    Args:
        path: the log file; created (with its parent directory) on first
            append.
        sync: ``fsync`` after every append.  Turning this off trades the
            durability of the most recent appends for speed; recovery still
            works because every surviving record carries its own CRC.
    """

    def __init__(self, path: str | Path, *, sync: bool = True) -> None:
        self.path = Path(path)
        self.sync = sync
        self._handle = None  # opened lazily, in append mode (O_APPEND)
        self.appended = 0
        #: Group-commit state: concurrent appenders enqueue encoded
        #: lines; one of them (the *leader*) drains the whole queue and
        #: makes it durable with a single write+fsync while the others
        #: (*followers*) wait on the condition for their ticket to be
        #: covered.  ``_enqueued``/``_durable`` are line sequence
        #: numbers; a failed batch records ``_error`` up to
        #: ``_error_seq`` so exactly its participants raise.
        self._group_cond = threading.Condition()
        self._pending: list[str] = []
        self._writer_busy = False
        self._enqueued = 0
        self._durable = 0
        self._error: Exception | None = None
        self._error_seq = 0
        #: Batches made durable (each is one write+flush); ``fsyncs``
        #: counts the ones that actually hit the disk barrier.
        self.batches = 0
        self.fsyncs = 0

    # ------------------------------------------------------------------ #
    # writing

    def _ensure_open(self):
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            self._handle = self.path.open("a", encoding="utf-8")
        return self._handle

    def _repair_torn_tail(self) -> None:
        """Truncate partial bytes left by a crash mid-append.

        A log that does not end in a newline holds the tail of an append
        whose fsync never completed — bytes that were never acknowledged.
        Appending onto that line would merge the *next* (acknowledged,
        fsync'd) record with the torn garbage, so that a later replay
        discards both as one unreadable line, losing the acknowledged
        write.  Truncating back to the last newline drops only the
        unacknowledged partial record.
        """
        try:
            with self.path.open("rb+") as handle:
                data = handle.read()
                if not data or data.endswith(b"\n"):
                    return
                handle.truncate(data.rfind(b"\n") + 1)
                if self.sync:
                    os.fsync(handle.fileno())
        except FileNotFoundError:
            return
        except OSError as exc:
            raise WalError(f"cannot repair {self.path}: {exc}") from exc

    def append(self, op: dict[str, Any]) -> None:
        """Durably append one op payload.

        Raises:
            WalError: if the log cannot be written.
        """
        self.append_many([op])

    def append_many(self, ops: list[dict[str, Any]]) -> None:
        """Durably append several op payloads with one fsync (group commit).

        All of *ops* land contiguously in the log (one ``write``), so a
        transaction's framed batch can only be cut short by a crash —
        never interleaved with another writer's records.  Concurrent
        callers are batched: the first to reach the file becomes the
        leader and fsyncs every line enqueued so far, and the followers
        it covered return without their own fsync.  Under a committing
        crowd this amortizes the disk barrier — the dominant cost of a
        small commit — across the whole group.

        Raises:
            WalError: if the batch containing these ops could not be
                written; the ops are then *not* durable.
        """
        if not ops:
            return
        lines = [encode_record(op) for op in ops]
        with self._group_cond:
            self._enqueued += len(lines)
            ticket = self._enqueued
            self._pending.extend(lines)
            while True:
                if self._error is not None and self._error_seq >= ticket:
                    error = self._error
                    raise WalError(
                        f"cannot append to {self.path}: {error}") from error
                if self._durable >= ticket:
                    self.appended += len(lines)
                    return
                if not self._writer_busy:
                    break
                self._group_cond.wait()
            self._writer_busy = True
            batch = self._pending
            self._pending = []
            target = self._enqueued
        error: Exception | None = None
        try:
            handle = self._ensure_open()
            handle.write("".join(line + "\n" for line in batch))
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
                self.fsyncs += 1
            self.batches += 1
        except (OSError, WalError) as exc:
            error = exc
        with self._group_cond:
            self._writer_busy = False
            self._durable = target
            if error is not None:
                self._error = error
                self._error_seq = target
            else:
                self.appended += len(lines)
            self._group_cond.notify_all()
        if error is not None:
            raise WalError(f"cannot append to {self.path}: {error}") from error

    def truncate(self) -> None:
        """Discard every record (after a checkpoint captured the state)."""
        try:
            if self._handle is not None and not self._handle.closed:
                self._handle.flush()
                self._handle.truncate(0)
                if self.sync:
                    os.fsync(self._handle.fileno())
            elif self.path.exists():
                truncate_wal_file(self.path, sync=self.sync)
        except OSError as exc:
            raise WalError(f"cannot truncate {self.path}: {exc}") from exc

    def close(self) -> None:
        """Close the underlying file handle (reopened on next append)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # reading

    def replay(self) -> WalReplay:
        """Scan the log, separating intact records from corruption.

        Never raises on content problems: a torn final record is the
        normal signature of a crash mid-append and is flagged as such;
        anything else lands in ``bad_records`` with ``torn_tail=False``
        for the caller to quarantine or reject.
        """
        return replay_wal_file(self.path)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.replay().records)

    def __repr__(self) -> str:
        return f"<WriteAheadLog {self.path} appended={self.appended}>"


def replay_wal_file(path: str | Path) -> WalReplay:
    """Scan a WAL file that may not exist (empty replay) or be damaged."""
    path = Path(path)
    replay = WalReplay()
    if not path.is_file():
        return replay
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise WalError(f"cannot read {path}: {exc}") from exc
    # Split on the "\n" the writer ends records with, not splitlines():
    # unescaped text (ensure_ascii=False) may hold U+0085, U+2028 or
    # U+2029, which splitlines() would also break a record at.
    lines = text.split("\n")
    last_content = 0
    for number, line in enumerate(lines, start=1):
        if line.strip():
            last_content = number
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        decoded = _decode_line(number, line)
        if isinstance(decoded, BadRecord):
            # A bad *final* record is the signature of dying mid-append:
            # the bytes after the last intact record are garbage, so it is
            # discarded as a torn tail rather than treated as corruption.
            torn = number == last_content
            replay.bad_records.append(BadRecord(
                decoded.line_number, decoded.reason, decoded.raw,
                torn_tail=torn))
        else:
            replay.records.append(decoded)
    return replay


def rewrite_wal_file(path: str | Path, records: list[dict[str, Any]], *,
                     sync: bool = True) -> None:
    """Atomically replace the log with just *records*, re-encoded.

    Recovery uses this to make its repairs stick on disk: a torn tail or
    quarantined corrupt line is dropped from the file itself, so reopening
    does not re-discover (and re-quarantine) the same damage, and a later
    append cannot land on a torn partial line.  If the rename is lost to a
    power failure the old log simply resurfaces and the next recovery
    repairs it again — the rewrite is idempotent.
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with tmp_path.open("w", encoding="utf-8") as handle:
            for op in records:
                handle.write(encode_record(op) + "\n")
            handle.flush()
            if sync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        raise WalError(f"cannot rewrite {path}: {exc}") from exc


def truncate_wal_file(path: str | Path, *, sync: bool = True) -> None:
    """Truncate a WAL file in place without holding a log object."""
    path = Path(path)
    with path.open("r+", encoding="utf-8") as handle:
        handle.truncate(0)
        if sync:
            os.fsync(handle.fileno())
