"""The database object: a namespace of tables with MVCC transactions.

Transactions run under snapshot isolation (see :mod:`repro.relstore.mvcc`):
``begin()`` binds a transaction to the calling thread and pins a stable
read snapshot; writes go in place with an undo log and per-row version
chains so other threads keep reading the committed state; ``commit``
publishes every touched row atomically under a fresh commit sequence
number, after journaling the transaction's ops as one framed WAL batch
(txn-begin … txn-commit) so recovery replays all of it or none of it.
Write-write conflicts resolve first-committer-wins with
:class:`~repro.relstore.errors.TransactionConflictError`; savepoints
give partial rollback inside a transaction; ``read_view()`` gives
non-transactional readers the same stable-snapshot guarantee without
ever blocking on writers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import QueryError, SchemaError, TransactionError
from .mvcc import MvccState, Transaction, replay_undo
from .predicate import ALWAYS, Predicate
from .table import Table
from .types import Schema
from .wal import TXN_BEGIN, TXN_COMMIT


class Database:
    """A named collection of :class:`~repro.relstore.table.Table` objects."""

    def __init__(self, name: str = "main") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._journal: Callable[[Mapping[str, Any]], None] | None = None
        self._journal_many: Callable[[list[Mapping[str, Any]]], None] | None = None
        self._wal = None  # WriteAheadLog attached by persist.open_database
        self._mvcc = MvccState(lambda: list(self._tables.values()))

    # ------------------------------------------------------------------ #
    # journaling (write-ahead logging)

    def set_journal(self, journal: Callable[[Mapping[str, Any]], None] | None,
                    journal_many: Callable[[list[Mapping[str, Any]]], None] | None = None) -> None:
        """Route every committed mutation through *journal* (or stop, if None).

        Used by :func:`repro.relstore.persist.open_database` to attach a
        write-ahead log.  Ops performed inside a transaction are buffered
        and only reach the journal on ``commit``; ``rollback`` discards
        them (undo is purely physical and never journaled).

        When *journal_many* is given (the WAL's ``append_many``), a
        commit delivers its ops as one batch wrapped in ``txn_begin`` /
        ``txn_commit`` framing records — recovery then replays the
        transaction atomically, and the batch is made durable with a
        single (group-committed) fsync.  A plain *journal* receives the
        bare ops one by one, unframed, preserving the pre-MVCC contract
        for in-memory journals.
        """
        self._journal = journal
        self._journal_many = journal_many
        for table in self._tables.values():
            self._attach(table)

    def _attach(self, table: Table) -> None:
        # An unjournaled database leaves its tables' journals unset, so
        # they skip building ops nobody reads.
        table.journal = self._route if self._journal is not None else None

    def _route(self, ops: list[Mapping[str, Any]]) -> None:
        """Journal the ops of one statement.

        Inside a transaction they are buffered until commit.  An
        autocommit statement of several ops goes to *journal_many* as
        one framed batch (one fsync; recovery replays all of it or
        none); any other op goes to *journal* on its own.
        """
        if self._journal is None:
            return
        txn = self._mvcc.current_txn()
        if txn is not None:
            # Every caller builds its op dicts fresh per statement and
            # keeps no reference, so the buffer owns them uncopied.
            txn.ops.extend(ops)
        elif len(ops) > 1 and self._journal_many is not None:
            self._journal_framed(Transaction.next_id(), ops)
        else:
            for op in ops:
                self._journal(op)

    def _journal_framed(self, txn_id: int,
                        ops: list[Mapping[str, Any]]) -> None:
        framed: list[Mapping[str, Any]] = [{"op": TXN_BEGIN, "txn": txn_id}]
        framed.extend(ops)
        framed.append({"op": TXN_COMMIT, "txn": txn_id})
        self._journal_many(framed)

    # ------------------------------------------------------------------ #
    # catalog

    def create_table(self, name: str, schema: Schema, *, if_not_exists: bool = False) -> Table:
        """Create a table.

        Raises:
            SchemaError: if the table exists and *if_not_exists* is False.
        """
        if name in self._tables:
            if if_not_exists:
                return self._tables[name]
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, schema)
        table.bind_mvcc(self._mvcc)
        self._attach(table)
        self._tables[name] = table
        self._route([{"op": "create_table", "table": name,
                      "schema": schema.to_json()}])
        txn = self._mvcc.current_txn()
        if txn is not None:
            txn.record_ddl(lambda: self._tables.pop(name, None))
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        """Drop a table.

        Raises:
            QueryError: if the table does not exist and *if_exists* is False.
        """
        if name not in self._tables:
            if if_exists:
                return
            raise QueryError(f"no table {name!r}")
        table = self._tables.pop(name)
        self._route([{"op": "drop_table", "table": name}])
        txn = self._mvcc.current_txn()
        if txn is not None:
            txn.record_ddl(lambda: self._tables.__setitem__(name, table))

    def table(self, name: str) -> Table:
        """Return the table called *name*.

        Raises:
            QueryError: if it does not exist.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"no table {name!r}; have {sorted(self._tables)}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table called *name* exists."""
        return name in self._tables

    def table_names(self) -> list[str]:
        """Sorted names of all tables."""
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def check_consistency(self) -> list[str]:
        """Run :meth:`Table.check_consistency` over every table; returns
        the concatenated problem list (empty = all indexes consistent).

        Checks physical state: call it quiesced or from the writer's
        thread between transactions (see ``Table.check_consistency``).
        """
        problems: list[str] = []
        for name in self.table_names():
            problems.extend(self._tables[name].check_consistency())
        return problems

    def __repr__(self) -> str:
        return f"<Database {self.name} tables={self.table_names()}>"

    # ------------------------------------------------------------------ #
    # transactional mutation helpers

    def insert(self, table_name: str, values: Mapping[str, Any]) -> int:
        """Insert into a table; undo/versioning is captured at table level."""
        return self.table(table_name).insert(values)

    def insert_many(self, table_name: str, rows: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert several rows as one statement (see :meth:`Table.insert_many`)."""
        return self.table(table_name).insert_many(rows)

    def update(self, table_name: str, row_id: int, changes: Mapping[str, Any]) -> None:
        """Update one row; undo/versioning is captured at table level."""
        self.table(table_name).update(row_id, changes)

    def delete(self, table_name: str, predicate: Predicate = ALWAYS) -> int:
        """Delete matching rows; rollback restores them under their
        original row ids (durable-row-id invariant)."""
        return self.table(table_name).delete(predicate)

    # ------------------------------------------------------------------ #
    # transactions

    @property
    def in_transaction(self) -> bool:
        """Whether the *calling thread* has an open transaction."""
        return self._mvcc.current_txn() is not None

    def begin(self) -> None:
        """Open a transaction bound to the calling thread.

        The transaction reads from a snapshot pinned now; its writes
        stay invisible to other threads until :meth:`commit`.

        Raises:
            TransactionError: if this thread already has one open (no
                nesting — use :meth:`savepoint`), or holds a read view.
        """
        self._mvcc.begin()

    def commit(self) -> None:
        """Commit the open transaction.

        Journals the buffered ops first (framed, one fsync), then
        publishes every touched row under a fresh commit sequence
        number, then runs the :meth:`on_commit` callbacks.  If
        journaling fails the transaction is rolled back so memory never
        diverges from the durable log.

        Raises:
            TransactionError: if no transaction is open on this thread.
        """
        txn = self._mvcc.current_txn()
        if txn is None:
            raise TransactionError("no transaction to commit")
        try:
            if txn.ops:
                if self._journal_many is not None:
                    self._journal_framed(txn.txn_id, txn.ops)
                elif self._journal is not None:
                    for op in txn.ops:
                        self._journal(op)
        except BaseException:
            self.rollback()
            raise
        self._mvcc.finish_commit(txn)
        for callback in txn.on_commit:
            callback()

    def on_commit(self, callback: Callable[[], None]) -> None:
        """Run *callback* once the calling thread's transaction commits.

        Outside a transaction it runs at once: an autocommit write is
        committed already.  A callback registered twice in one
        transaction runs once; a rollback drops them all (a rollback to
        a savepoint does not).
        """
        txn = self._mvcc.current_txn()
        if txn is None:
            callback()
        elif callback not in txn.on_commit:
            txn.on_commit.append(callback)

    def rollback(self) -> None:
        """Undo every change made since :meth:`begin`.

        Raises:
            TransactionError: if no transaction is open on this thread.
        """
        txn = self._mvcc.current_txn()
        if txn is None:
            raise TransactionError("no transaction to roll back")
        try:
            replay_undo(txn.undo)
        finally:
            txn.undo.clear()
            txn.ops.clear()
            txn.savepoints.clear()
            txn.on_commit.clear()
            self._mvcc.discard(txn)

    # -- savepoints ----------------------------------------------------- #

    def _current_txn_or_raise(self, action: str) -> Transaction:
        txn = self._mvcc.current_txn()
        if txn is None:
            raise TransactionError(f"no transaction to {action}")
        return txn

    def savepoint(self, name: str) -> None:
        """Mark a savepoint inside the open transaction.

        Re-using a name stacks a new mark; ``rollback_to_savepoint``
        targets the most recent one.

        Raises:
            TransactionError: outside a transaction, or on an invalid name.
        """
        txn = self._current_txn_or_raise("set a savepoint in")
        if not str(name).isidentifier():
            raise TransactionError(f"invalid savepoint name {name!r}")
        txn.savepoints.append((name, len(txn.undo), len(txn.ops)))

    @staticmethod
    def _find_savepoint(txn: Transaction, name: str) -> int:
        for position in range(len(txn.savepoints) - 1, -1, -1):
            if txn.savepoints[position][0] == name:
                return position
        raise TransactionError(f"no savepoint {name!r}")

    def rollback_to_savepoint(self, name: str) -> None:
        """Undo changes made since savepoint *name* (which survives, so
        it can be rolled back to again); savepoints set after it are
        destroyed.

        Raises:
            TransactionError: outside a transaction or on unknown name.
        """
        txn = self._current_txn_or_raise("roll back in")
        position = self._find_savepoint(txn, name)
        _, undo_len, ops_len = txn.savepoints[position]
        replay_undo(txn.undo[undo_len:])
        del txn.undo[undo_len:]
        del txn.ops[ops_len:]
        del txn.savepoints[position + 1:]

    def release_savepoint(self, name: str) -> None:
        """Forget savepoint *name* (and any set after it), keeping the
        changes made since.

        Raises:
            TransactionError: outside a transaction or on unknown name.
        """
        txn = self._current_txn_or_raise("release a savepoint in")
        position = self._find_savepoint(txn, name)
        del txn.savepoints[position:]

    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        """Context manager committing on success and rolling back on error."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()

    # ------------------------------------------------------------------ #
    # read views & maintenance

    @contextmanager
    def read_view(self) -> Iterator["Database"]:
        """Pin a stable committed snapshot for the calling thread's reads.

        Every table read inside the block sees exactly the state
        committed when the view was entered — concurrent committers
        don't block the reader and don't change what it sees.  Views
        are reentrant and read-only (a write inside one raises
        :class:`TransactionError`); inside an open transaction this is
        a no-op, since the transaction snapshot already governs reads.
        """
        self._mvcc.enter_view()
        try:
            yield self
        finally:
            self._mvcc.exit_view()

    def vacuum(self) -> int:
        """Garbage-collect version chains up to the oldest pinned
        snapshot; returns the number of chain entries pruned."""
        return self._mvcc.gc()

    def mvcc_stats(self) -> dict[str, int]:
        """Counters for observability and tests."""
        state = self._mvcc
        return {
            "csn": state.csn,
            "active_transactions": len(state._txns),
            "pinned_snapshots": len(state._pins),
            "version_entries": sum(
                len(chain) for table in self._tables.values()
                for chain in table._versions.values()),
        }
