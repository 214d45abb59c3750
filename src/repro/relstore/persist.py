"""Durable, crash-safe storage of a database as a directory of JSON files.

Layout::

    <dir>/catalog.json             # schemas, index defs, per-file digests
    <dir>/<table>.jsonl            # one checksummed JSON record per row
    <dir>/wal.jsonl                # ops committed since the last snapshot
    <dir>/<table>.quarantine.jsonl # rows recovery refused to load (if any)

Durability contract (the paper delegates this to an industrial RDBMS,
§4.5.1; heavy-traffic serving needs it here):

* Snapshots are atomic per file — write to a temp name, ``fsync`` the file,
  ``os.replace``, ``fsync`` the directory — so a crash (or power failure)
  mid-save leaves the previous version intact.
* Every row record carries a CRC32; every data file's digest and row count
  are recorded in the catalog.  Torn or bit-flipped rows are detected on
  load, not silently returned.
* Mutations between snapshots are captured in a write-ahead log
  (:mod:`repro.relstore.wal`); :func:`load_database` /
  :func:`recover_database` replay the log past the last snapshot.
* :func:`recover_database` never aborts on damaged rows: they are
  quarantined into ``<table>.quarantine.jsonl`` and itemized in a
  :class:`RecoveryReport`.  :func:`load_database` keeps the historical
  strict behavior (raise on corruption) unless asked to recover.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .database import Database
from .errors import CorruptionError, PersistenceError
from .index import InvertedIndex, UniqueIndex
from .table import Table
from .types import Schema
from .wal import (TXN_BEGIN, TXN_COMMIT, WAL_NAME, WalReplay, WriteAheadLog,
                  replay_wal_file, rewrite_wal_file, truncate_wal_file)

CATALOG_NAME = "catalog.json"
#: Version 2 adds per-row CRCs + durable row ids + per-file digests; version
#: 1 (plain rows) is still read transparently.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

ON_ERROR_MODES = ("raise", "quarantine")


def _fsync_directory(directory: Path) -> None:
    """Flush directory metadata so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; nothing more we can do
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse fsync on directories
    finally:
        os.close(fd)


def _atomic_write_text(path: Path, text: str) -> None:
    """Durably replace *path* with *text* (all-or-nothing).

    The temp file is fsync'd before the rename and the parent directory
    after it; without both, ``os.replace`` alone can still lose or tear the
    "atomic" save on power failure.
    """
    tmp_path = path.with_name(path.name + ".tmp")
    with tmp_path.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_directory(path.parent)


def _row_crc(row_id: int, row: dict[str, Any]) -> int:
    payload = json.dumps([row_id, row], sort_keys=True, ensure_ascii=False,
                         separators=(",", ":"))
    return zlib.crc32(payload.encode("utf-8"))


def _encode_row(row_id: int, row: dict[str, Any]) -> str:
    return json.dumps({"crc": _row_crc(row_id, row), "id": row_id, "row": row},
                      sort_keys=True, ensure_ascii=False)


# --------------------------------------------------------------------- #
# recovery reporting


@dataclass(frozen=True)
class QuarantinedRecord:
    """One stored record that failed validation during recovery."""

    source: str        # file the record came from, e.g. "nodes.jsonl"
    line_number: int
    reason: str
    raw: str = ""


@dataclass
class RecoveryReport:
    """What opening a database directory found and fixed up."""

    directory: str
    tables: int = 0
    rows_loaded: int = 0
    wal_records_applied: int = 0
    wal_torn_tail_discarded: int = 0
    #: Ops inside a txn_begin frame whose txn_commit never made it to
    #: disk (crash mid-commit): dropped wholesale, never replayed.
    wal_uncommitted_dropped: int = 0
    quarantined: list[QuarantinedRecord] = field(default_factory=list)
    checksum_failures: list[str] = field(default_factory=list)
    missing_files: list[str] = field(default_factory=list)
    orphan_files: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing was quarantined, missing, or inconsistent."""
        return not (self.quarantined or self.checksum_failures
                    or self.missing_files or self.orphan_files
                    or self.wal_torn_tail_discarded
                    or self.wal_uncommitted_dropped)

    def summary(self) -> str:
        """One human-readable line per finding (empty string when clean)."""
        lines = [f"{self.tables} table(s), {self.rows_loaded} row(s), "
                 f"{self.wal_records_applied} WAL op(s) replayed"]
        if self.wal_torn_tail_discarded:
            lines.append(f"discarded torn WAL tail "
                         f"({self.wal_torn_tail_discarded} record(s))")
        if self.wal_uncommitted_dropped:
            lines.append(f"dropped uncommitted transaction record(s) "
                         f"({self.wal_uncommitted_dropped}) from the WAL")
        for record in self.quarantined:
            lines.append(f"quarantined {record.source}:{record.line_number}: "
                         f"{record.reason}")
        lines.extend(f"checksum: {note}" for note in self.checksum_failures)
        lines.extend(f"missing file: {name}" for name in self.missing_files)
        lines.extend(f"orphan file: {name}" for name in self.orphan_files)
        return "\n".join(lines)


def _quarantine(directory: Path, report: RecoveryReport, source: str,
                line_number: int, reason: str, raw: str) -> None:
    record = QuarantinedRecord(source, line_number, reason, raw.rstrip("\n"))
    report.quarantined.append(record)
    stem = source[:-len(".jsonl")] if source.endswith(".jsonl") else source
    quarantine_path = directory / f"{stem}.quarantine.jsonl"
    entry = {"source": source, "line": line_number,
             "reason": reason, "raw": record.raw}
    if quarantine_path.is_file():
        # Recovery must be idempotent on disk: damage that cannot be
        # scrubbed from its source file (table rows) is re-*reported* on
        # every open but appended to the quarantine file only once.
        for line in quarantine_path.read_text(encoding="utf-8").split("\n"):
            try:
                if json.loads(line) == entry:
                    return
            except json.JSONDecodeError:
                continue
    with quarantine_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, ensure_ascii=False, sort_keys=True)
                     + "\n")


# --------------------------------------------------------------------- #
# saving


def save_database(database: Database, directory: str | Path) -> None:
    """Write a snapshot of *database* to *directory* (created if needed).

    A successful snapshot captures the complete state, so any write-ahead
    log in the directory is truncated afterwards: its records are now part
    of the snapshot and must not be replayed on top of it.

    Raises:
        PersistenceError: if the directory cannot be written.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistenceError(f"cannot create {directory}: {exc}") from exc
    catalog: dict[str, Any] = {"version": FORMAT_VERSION,
                               "name": database.name, "tables": {}}
    for table_name in database.table_names():
        table = database.table(table_name)
        indexes = []
        for index in table.indexes.values():
            if table.schema.primary_key and index.name == f"pk_{table_name}":
                continue  # recreated automatically from the schema
            indexes.append({
                "name": index.name,
                "column": index.column,
                "unique": isinstance(index, UniqueIndex),
                "inverted": isinstance(index, InvertedIndex),
            })
        lines = [_encode_row(row_id, table.schema.as_dict(row))
                 for row_id, row in sorted(table._rows.items())]
        data = "\n".join(lines) + ("\n" if lines else "")
        catalog["tables"][table_name] = {
            "schema": table.schema.to_json(),
            "indexes": indexes,
            "rows": len(lines),
            "next_row_id": table._next_row_id,
            "digest": zlib.crc32(data.encode("utf-8")),
        }
        _atomic_write_text(directory / f"{table_name}.jsonl", data)
    _atomic_write_text(directory / CATALOG_NAME,
                       json.dumps(catalog, ensure_ascii=False, indent=2,
                                  sort_keys=True))
    _truncate_stale_wal(database, directory)


def _truncate_stale_wal(database: Database, directory: Path) -> None:
    wal = getattr(database, "_wal", None)
    wal_path = directory / WAL_NAME
    if wal is not None and Path(wal.path) == wal_path:
        wal.truncate()
    elif wal_path.exists():
        truncate_wal_file(wal_path)


def checkpoint(database: Database, directory: str | Path) -> None:
    """Snapshot *database* and reset its write-ahead log (alias of
    :func:`save_database`, named for intent)."""
    save_database(database, directory)


# --------------------------------------------------------------------- #
# loading + recovery


def load_database(directory: str | Path, *,
                  on_error: str = "raise") -> Database:
    """Read a database previously written by :func:`save_database`.

    Replays any write-ahead log found next to the snapshot, so state
    committed after the last snapshot is not lost.

    Args:
        directory: the database directory.
        on_error: ``"raise"`` (default) aborts on any damaged row or WAL
            record — the historical strict behavior; ``"quarantine"``
            loads everything intact and moves damaged records into
            ``<table>.quarantine.jsonl`` (see :func:`recover_database` for
            the accompanying report).

    Raises:
        PersistenceError: if the catalog is missing or malformed, or (in
            strict mode) on any corruption.
    """
    database, _ = _load(Path(directory), on_error=on_error)
    return database


def recover_database(directory: str | Path,
                     ) -> tuple[Database, RecoveryReport]:
    """Open a possibly crash-damaged database, quarantining corruption.

    Never aborts on torn/bit-flipped rows or WAL records: every intact,
    committed row is loaded; damaged ones are appended to
    ``<table>.quarantine.jsonl`` and itemized in the returned
    :class:`RecoveryReport`.

    A directory that crashed before its first checkpoint has a WAL but no
    catalog yet; it is recovered by replaying the WAL from scratch.

    Raises:
        PersistenceError: only if there is nothing to recover from — no
            readable catalog and no WAL.
    """
    directory = Path(directory)
    if not (directory / CATALOG_NAME).is_file() \
            and (directory / WAL_NAME).is_file():
        database = Database(directory.name or "main")
        report = RecoveryReport(directory=str(directory))
        report.wal_records_applied = _replay_wal(database, directory, report,
                                                 on_error="quarantine")
        return database, report
    return _load(directory, on_error="quarantine")


def open_database(directory: str | Path, *, sync: bool = True,
                  ) -> tuple[Database, RecoveryReport]:
    """Open (or create) a durable database with write-ahead logging.

    Loads the snapshot if one exists (recovering past any crash damage),
    replays the WAL, then attaches the WAL as the database's journal so
    every subsequent committed mutation is durably logged.  Call
    :func:`save_database` / :func:`checkpoint` periodically to fold the
    log back into a fresh snapshot.

    Args:
        directory: the database directory; created when absent.
        sync: fsync the WAL on every append (see
            :class:`~repro.relstore.wal.WriteAheadLog`).
    """
    directory = Path(directory)
    if (directory / CATALOG_NAME).is_file():
        database, report = _load(directory, on_error="quarantine")
    else:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PersistenceError(
                f"cannot create {directory}: {exc}") from exc
        database = Database(directory.name or "main")
        report = RecoveryReport(directory=str(directory))
        report.wal_records_applied = _replay_wal(database, directory, report,
                                                on_error="quarantine")
    wal = WriteAheadLog(directory / WAL_NAME, sync=sync)
    database._wal = wal
    database.set_journal(wal.append, wal.append_many)
    return database, report


def _load(directory: Path, *, on_error: str
          ) -> tuple[Database, RecoveryReport]:
    if on_error not in ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, "
                         f"got {on_error!r}")
    strict = on_error == "raise"
    report = RecoveryReport(directory=str(directory))
    catalog_path = directory / CATALOG_NAME
    if not catalog_path.is_file():
        raise PersistenceError(f"no {CATALOG_NAME} in {directory}")
    try:
        catalog = json.loads(catalog_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read catalog: {exc}") from exc
    version = catalog.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise PersistenceError(f"unsupported format version {version!r}")
    database = Database(catalog.get("name", "main"))
    tables = catalog.get("tables", {})
    # Scanned up front: whether the WAL still holds committed ops decides
    # below if a snapshot/catalog mismatch is a crash-mid-save in-between
    # state (recoverable by replay) or genuine corruption.
    wal_replay = replay_wal_file(directory / WAL_NAME)
    wal_pending = bool(wal_replay.records)
    for table_name, entry in tables.items():
        schema = Schema.from_json(entry["schema"])
        table = database.create_table(table_name, schema)
        for spec in entry.get("indexes", ()):
            table.create_index(spec["name"], spec["column"],
                               unique=spec.get("unique", False),
                               inverted=spec.get("inverted", False))
        _load_table_file(directory, table, entry, version, strict, report,
                         wal_pending=wal_pending)
        report.tables += 1
    for path in sorted(directory.glob("*.jsonl")):
        stem = path.name[:-len(".jsonl")]
        if (path.name != WAL_NAME and stem not in tables
                and not stem.endswith(".quarantine")):
            report.orphan_files.append(path.name)
    report.wal_records_applied = _replay_wal(database, directory, report,
                                             on_error=on_error,
                                             replay=wal_replay)
    return database, report


def _load_table_file(directory: Path, table: Table, entry: dict[str, Any],
                     version: int, strict: bool, report: RecoveryReport,
                     *, wal_pending: bool = False) -> None:
    data_path = directory / f"{table.name}.jsonl"
    if not data_path.is_file():
        if strict:
            raise PersistenceError(
                f"missing data file for table {table.name!r}")
        report.missing_files.append(data_path.name)
        return
    raw = data_path.read_text(encoding="utf-8", errors="replace")
    expected_digest = entry.get("digest")
    digest_mismatch = (expected_digest is not None
                       and zlib.crc32(raw.encode("utf-8")) != expected_digest)
    loaded = 0
    damaged = 0
    # "\n" only, as in WAL replay: stored text may hold U+2028 and kin.
    for line_number, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        problem = _load_row_line(table, line, version)
        if problem is None:
            loaded += 1
            continue
        damaged += 1
        if strict:
            # Per-row problems give more precise errors than the
            # file-level digest, so they are raised first.
            raise CorruptionError(
                f"{data_path.name}:{line_number}: {problem}")
        _quarantine(directory, report, data_path.name, line_number,
                    problem, line)
    report.rows_loaded += loaded
    notes = []
    if digest_mismatch:
        notes.append(f"{data_path.name}: file digest mismatch")
    expected_rows = entry.get("rows")
    if expected_rows is not None and loaded + damaged < expected_rows:
        notes.append(f"{data_path.name}: {expected_rows - loaded - damaged} "
                     f"row(s) missing (truncated file?)")
    if notes and not damaged and wal_pending:
        # save_database replaces the data files first, the catalog last,
        # and truncates the WAL only after that.  A crash inside that
        # window leaves a data file *newer* than the catalog describing
        # it: every row CRC still validates and the WAL still holds the
        # committed ops that produced the file, so replay reconciles the
        # state.  That in-between state must stay loadable (even in
        # strict mode) — it is a survived crash, not corruption.
        notes = []
    for note in notes:
        if strict:
            raise CorruptionError(note)
        report.checksum_failures.append(note)
    next_row_id = entry.get("next_row_id")
    if next_row_id is not None:
        table._next_row_id = max(table._next_row_id, next_row_id)


def _load_row_line(table: Table, line: str, version: int) -> str | None:
    """Insert one stored line into *table*; returns a problem description
    instead of raising (the caller decides strict vs quarantine)."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"bad JSON: {exc}"
    try:
        if version >= 2:
            if not isinstance(record, dict) or "row" not in record:
                return "not a row record"
            row_id, row = record.get("id"), record["row"]
            if not isinstance(row_id, int):
                return "missing row id"
            if record.get("crc") != _row_crc(row_id, row):
                return "row checksum mismatch"
            table.insert(row, row_id=row_id)
        else:
            table.insert(record)
    except Exception as exc:  # SchemaError / IntegrityError / bad shape
        return f"row rejected: {exc}"
    return None


# --------------------------------------------------------------------- #
# WAL replay


def _replay_wal(database: Database, directory: Path, report: RecoveryReport,
                *, on_error: str, replay: WalReplay | None = None) -> int:
    strict = on_error == "raise"
    if replay is None:
        replay = replay_wal_file(directory / WAL_NAME)
    for bad in replay.bad_records:
        if bad.torn_tail:
            report.wal_torn_tail_discarded += 1
            continue
        if strict:
            raise CorruptionError(
                f"{WAL_NAME}:{bad.line_number}: {bad.reason}")
        _quarantine(directory, report, WAL_NAME, bad.line_number,
                    bad.reason, bad.raw)
    # Transaction framing: ops between a txn_begin and its txn_commit
    # replay only when the commit marker made it to disk.  A group cut
    # short by a crash mid-commit is dropped wholesale — recovery never
    # applies a partial transaction.
    survivors: list[dict[str, Any]] = []
    apply_list: list[tuple[int, dict[str, Any]]] = []
    pending: list[tuple[int, dict[str, Any]]] | None = None
    pending_frame: dict[str, Any] | None = None
    dropped = 0
    for position, op in enumerate(replay.records, start=1):
        kind = op.get("op")
        if kind == TXN_BEGIN:
            if pending is not None:
                dropped += len(pending) + 1
            pending, pending_frame = [], op
        elif kind == TXN_COMMIT:
            if pending is None:
                dropped += 1  # stray commit marker without its begin
                continue
            survivors.append(pending_frame)
            survivors.extend(framed_op for _, framed_op in pending)
            survivors.append(op)
            apply_list.extend(pending)
            pending, pending_frame = None, None
        elif pending is not None:
            pending.append((position, op))
        else:
            survivors.append(op)
            apply_list.append((position, op))
    if pending is not None:
        dropped += len(pending) + 1
    report.wal_uncommitted_dropped += dropped
    if (replay.bad_records or dropped) and not strict:
        # Make the repair durable: drop the torn tail, the (already
        # quarantined) corrupt lines, and any uncommitted transaction
        # frame from the log itself, so the next open does not
        # re-discover the same damage and — critically — the next
        # append cannot land new autocommit records *inside* an orphan
        # txn_begin frame (which a later replay would then drop).
        rewrite_wal_file(directory / WAL_NAME, survivors)
    applied = 0
    for position, op in apply_list:
        try:
            _apply_wal_op(database, op)
            applied += 1
        except Exception as exc:
            reason = f"replay failed: {exc}"
            if strict:
                raise CorruptionError(f"{WAL_NAME} op {position}: {reason}") \
                    from exc
            _quarantine(directory, report, WAL_NAME, position, reason,
                        json.dumps(op, ensure_ascii=False, sort_keys=True))
    return applied


def _apply_wal_op(database: Database, op: dict[str, Any]) -> None:
    """Apply one journaled op.  Idempotent: replaying the same log twice
    (e.g. reopening without a checkpoint) reproduces the same state."""
    kind = op["op"]
    if kind in ("checkpoint", TXN_BEGIN, TXN_COMMIT):
        return
    name = op["table"]
    if kind == "create_table":
        database.create_table(name, Schema.from_json(op["schema"]),
                              if_not_exists=True)
        return
    if kind == "drop_table":
        database.drop_table(name, if_exists=True)
        return
    table = database.table(name)  # QueryError -> quarantined by caller
    if kind in ("insert", "update"):
        row_id, row = op["id"], op["row"]
        if row_id in table._rows:
            if table.get(row_id) != row:
                table.update(row_id, row)
        else:
            table.insert(row, row_id=row_id)
    elif kind == "delete":
        if op["id"] in table._rows:
            table.delete_row(op["id"])
    elif kind == "clear":
        table.clear()
    elif kind == "create_index":
        if op["name"] not in table.indexes:
            table.create_index(op["name"], op["column"],
                               unique=op.get("unique", False),
                               inverted=op.get("inverted", False))
    elif kind == "drop_index":
        if op["name"] in table.indexes:
            table.drop_index(op["name"])
    else:
        raise PersistenceError(f"unknown WAL op {kind!r}")
