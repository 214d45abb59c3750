"""Multi-version concurrency control for the relational store.

One :class:`MvccState` is shared by a :class:`~repro.relstore.database.Database`
and all of its tables.  It implements snapshot isolation:

* Every committed state of the store is identified by a **commit
  sequence number** (CSN).  Readers pin a CSN (a *snapshot*) and see
  exactly the rows committed at or before it, regardless of concurrent
  writers — readers never block.
* Writers mutate rows **in place** and record the previous committed
  value on a per-row *version chain* (``Table._versions``) before the
  first change, so pinned readers can reconstruct the value their
  snapshot saw.  An undo log restores the physical state on rollback.
* Write-write conflicts are detected **first-committer-wins**: touching
  a row whose committed CSN is newer than the transaction's snapshot
  raises :class:`~repro.relstore.errors.TransactionConflictError`
  immediately (the other writer already committed, so this transaction
  could only lose).
* A single **writer slot** (a plain lock held from a transaction's
  first write until commit/rollback, or for the duration of one
  autocommit statement) serializes the *physical* write phases.  This
  keeps the heap dicts and indexes single-writer — the concurrency win
  of MVCC here is that readers never wait, which is exactly the shape
  of the paper's workload (read-heavy suggest/search, bursty writes).

Version chains are garbage-collected up to the oldest pinned snapshot
(the *watermark*); with no pins active, writes skip version bookkeeping
entirely so bulk loads and WAL replay pay nothing.

Transactions are **thread-bound**: ``begin()`` binds the transaction to
the calling thread, and that thread's subsequent table reads see its
own uncommitted writes while every other thread sees the snapshot.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable

from .errors import TransactionConflictError, TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .table import Table

#: Undo-log entry kinds (first element of each entry tuple).
_ROW = "row"
_DDL = "ddl"


class Transaction:
    """One open transaction: snapshot, undo log, buffered journal ops."""

    _ids = itertools.count(1)

    __slots__ = ("txn_id", "read_csn", "pin_token", "thread_ident",
                 "undo", "ops", "savepoints", "holds_slot", "on_commit")

    def __init__(self, read_csn: int, pin_token: int,
                 thread_ident: int) -> None:
        self.txn_id = Transaction.next_id()
        #: The snapshot this transaction reads from.
        self.read_csn = read_csn
        self.pin_token = pin_token
        self.thread_ident = thread_ident
        #: Undo entries, oldest first.  ``("row", table, row_id, before,
        #: first_touch, chain_appended)`` or ``("ddl", callable)``.
        self.undo: list[tuple[Any, ...]] = []
        #: Journal ops buffered until commit.
        self.ops: list[dict[str, Any]] = []
        #: ``(name, undo_len, ops_len)`` marks, oldest first.
        self.savepoints: list[tuple[str, int, int]] = []
        self.holds_slot = False
        #: Callbacks run once the commit is published (see
        #: ``Database.on_commit``); a rollback drops them.
        self.on_commit: list[Callable[[], None]] = []

    @classmethod
    def next_id(cls) -> int:
        """The next id of the counter transactions and WAL frames share."""
        return next(cls._ids)

    def record_ddl(self, undo: Callable[[], None]) -> None:
        """Record a catalog-level inverse (create/drop table or index)."""
        self.undo.append((_DDL, undo))

    def claim(self, table: "Table", row_id: int, before: tuple | None) -> None:
        """Register a row write *before* it is applied.

        On the first touch of a row this checks first-committer-wins
        conflicts, snapshots the committed value onto the version chain
        and marks the row dirty; every touch appends an undo entry.

        Raises:
            TransactionConflictError: if another transaction committed a
                change to this row after our snapshot was taken.
        """
        first = row_id not in table._dirty
        chain_appended = False
        if first:
            committed_csn = table._row_csn.get(row_id, 0)
            if committed_csn > self.read_csn:
                raise TransactionConflictError(
                    f"row {row_id} of table {table.name!r} was committed at "
                    f"csn {committed_csn}, after this transaction's snapshot "
                    f"(csn {self.read_csn}); first committer wins")
            with table._mvcc.lock:  # atomic with a GC pass's checks
                if before is not None or committed_csn:
                    table._versions.setdefault(row_id, []).append(
                        (committed_csn, before))
                    chain_appended = True
                table._dirty.add(row_id)
        self.undo.append((_ROW, table, row_id, before, first, chain_appended))

    def conflict_check(self, table: "Table", row_id: int) -> None:
        """First-committer-wins check without registering a write."""
        if row_id not in table._dirty:
            committed_csn = table._row_csn.get(row_id, 0)
            if committed_csn > self.read_csn:
                raise TransactionConflictError(
                    f"row {row_id} of table {table.name!r} was committed at "
                    f"csn {committed_csn}, after this transaction's snapshot "
                    f"(csn {self.read_csn}); first committer wins")

    def touched(self) -> list[tuple["Table", int]]:
        """Unique (table, row_id) first-touches, in touch order."""
        return [(entry[1], entry[2]) for entry in self.undo
                if entry[0] == _ROW and entry[4]]


def replay_undo(entries: list[tuple[Any, ...]]) -> None:
    """Reverse-apply undo entries (physical restores, never journaled).

    Used by rollback, rollback to a savepoint and a failed statement
    inside a transaction: each brings rows, indexes, version chains and
    dirty marks back to their state before the entries were recorded.
    """
    unsorted: set["Table"] = set()
    for entry in reversed(entries):
        if entry[0] == _DDL:
            entry[1]()
            continue
        _, table, row_id, before, first, chain_appended = entry
        current = table._rows.get(row_id)
        if before is None:
            if current is not None:
                table.remove_row(row_id)
        elif current is None or current != before:
            if table._restore_row(row_id, before):
                unsorted.add(table)
        if first:
            with table._mvcc.lock:  # atomic with a GC pass's checks
                if chain_appended:
                    chain = table._versions.get(row_id)
                    if chain:
                        chain.pop()
                        if not chain:
                            del table._versions[row_id]
                table._dirty.discard(row_id)
            table._mutations += 1
    for table in unsorted:
        table._sort_rows()


class _WriteTicket:
    """Bookkeeping for one statement (one or many rows of one table).

    Obtained from :meth:`MvccState.open_write`; the table mutator calls
    :meth:`claim` before each physical row change, :meth:`seal` once
    after all changes succeeded (every row of the statement shares its
    CSN), :meth:`abort` when they raised, and :meth:`release`
    unconditionally (after the journal emit, so WAL order matches
    commit order)."""

    __slots__ = ("state", "txn", "mode", "claims", "sealed", "undo_mark")

    def __init__(self, state: "MvccState", txn: Transaction | None) -> None:
        self.state = state
        self.txn = txn
        #: Inside a transaction: the undo-log length before this
        #: statement, so a failed statement undoes exactly its own claims.
        self.undo_mark = len(txn.undo) if txn is not None else 0
        #: Autocommit bookkeeping mode: None (undecided), "chain"
        #: (readers pinned: version chains + dirty marks), or "fast"
        #: (no pins: skip versioning, hold the in-flight latch).
        self.mode: str | None = None
        #: Autocommit chain-mode claims: (table, row_id, chain_appended).
        self.claims: list[tuple["Table", int, bool]] = []
        self.sealed = False

    def claim(self, table: "Table", row_id: int, before: tuple | None) -> None:
        if self.txn is not None:
            self.txn.claim(table, row_id, before)
            return
        if self.mode == "fast":
            return  # decided under the lock; nothing to record per row
        state = self.state
        with state.lock:
            if self.mode is None:
                self.mode = "chain" if state._pins else "fast"
                if self.mode == "fast":
                    state._inflight += 1
            if self.mode == "chain":
                prev = table._row_csn.get(row_id, 0)
                chain_appended = False
                if before is not None or prev:
                    table._versions.setdefault(row_id, []).append(
                        (prev, before))
                    chain_appended = True
                    state._garbage += 1
                table._dirty.add(row_id)
                self.claims.append((table, row_id, chain_appended))

    def conflict_check(self, table: "Table", row_id: int) -> None:
        if self.txn is not None:
            self.txn.conflict_check(table, row_id)

    def seal(self, table: "Table") -> None:
        """Publish an autocommit statement: allocate its CSN and stamp."""
        if self.txn is not None:
            return  # visibility is published at commit time
        state = self.state
        with state.lock:
            # Stamp every row before publishing the CSN: a lock-free
            # reader that takes the new CSN as its snapshot must find
            # all of the statement's rows committed, not some of them.
            csn = state.csn + 1
            for claimed_table, row_id, _ in self.claims:
                claimed_table._row_csn[row_id] = csn
                claimed_table._dirty.discard(row_id)
            state.csn = csn
            if self.claims:
                table._mutations += 1
            if self.mode == "fast":
                state._inflight -= 1
                state._inflight_cond.notify_all()
        self.sealed = True

    def abort(self, table: "Table") -> None:
        """Discard claim bookkeeping after a failed statement.

        The table mutators restore heap and indexes before this runs, so
        only the version-chain / dirty marks need unwinding.  Inside a
        transaction the statement's undo entries are replayed and cut,
        so the transaction goes on as if the statement never ran.
        """
        if self.sealed:
            return
        if self.txn is not None:
            undo = self.txn.undo
            replay_undo(undo[self.undo_mark:])
            del undo[self.undo_mark:]
            return
        state = self.state
        with state.lock:
            for claimed_table, row_id, chain_appended in self.claims:
                if chain_appended:
                    chain = claimed_table._versions.get(row_id)
                    if chain:
                        chain.pop()
                        state._garbage -= 1
                        if not chain:
                            del claimed_table._versions[row_id]
                claimed_table._dirty.discard(row_id)
                claimed_table._mutations += 1
            self.claims.clear()
            if self.mode == "fast":
                state._inflight -= 1
                state._inflight_cond.notify_all()
                self.mode = None

    def release(self) -> None:
        """Release the writer slot (transactions keep it until commit)."""
        if self.txn is None:
            self.state.writer_slot.release()


class MvccState:
    """Shared snapshot/versioning state for one database's tables."""

    #: Run a full garbage-collection pass after this many commits.
    GC_COMMIT_INTERVAL = 64

    def __init__(self, tables: Callable[[], list["Table"]] | None = None) -> None:
        self.lock = threading.Lock()
        #: Latest committed commit sequence number.
        self.csn = 0
        #: Serializes physical write phases (txn first-write..commit, or
        #: one autocommit statement).
        self.writer_slot = threading.Lock()
        self._tables = tables or (lambda: [])
        self._txns: dict[int, Transaction] = {}
        #: Thread ident -> pinned view csn (from ``Database.read_view``).
        self._view_csn: dict[int, int] = {}
        self._view_depth: dict[int, tuple[int, int]] = {}
        #: Pin token -> pinned csn; the min is the GC watermark.
        self._pins: dict[int, int] = {}
        self._pin_ids = itertools.count(1)
        #: Count of txns + views; zero means reads can take the
        #: current-state fast path.
        self._active = 0
        #: Fast-path (unversioned) autocommit statements in flight; new
        #: pins wait these out so a snapshot is never torn.
        self._inflight = 0
        self._inflight_cond = threading.Condition(self.lock)
        #: The transaction currently holding the writer slot, if any.
        self._writer_txn: Transaction | None = None
        #: Held by the running GC pass; a second pass skips, because two
        #: passes would both ``del`` the same version chain.
        self._gc_pass = threading.Lock()
        #: Roughly the chain entries and CSN stamps a GC pass could
        #: reclaim; a pass starts when it is non-zero, and a pass with
        #: no pin zeroes it.
        self._garbage = 0
        self._commits = 0

    # ------------------------------------------------------------------ #
    # snapshots (pins)

    def pin(self) -> tuple[int, int]:
        """Pin the current committed CSN; returns ``(token, csn)``."""
        with self.lock:
            while self._inflight:
                self._inflight_cond.wait()
            token = next(self._pin_ids)
            self._pins[token] = self.csn
            return token, self.csn

    def unpin(self, token: int) -> None:
        with self.lock:
            self._pins.pop(token, None)
            should_gc = not self._pins and self._garbage
        if should_gc:
            self.gc()

    # ------------------------------------------------------------------ #
    # per-thread context

    def current_txn(self) -> Transaction | None:
        """The transaction bound to the calling thread, or None."""
        if not self._txns:
            return None
        return self._txns.get(threading.get_ident())

    def read_context(self) -> tuple[Transaction | None, int | None]:
        """``(txn, snapshot_csn)`` for the calling thread's reads.

        ``(None, None)`` means no snapshot semantics apply anywhere and
        the caller may read current state directly (the fast path).
        With activity elsewhere, unpinned threads get a per-statement
        snapshot of the latest committed CSN so they still never observe
        uncommitted rows.
        """
        if not self._active:
            return None, None
        ident = threading.get_ident()
        txn = self._txns.get(ident)
        if txn is not None:
            return txn, txn.read_csn
        snapshot = self._view_csn.get(ident)
        if snapshot is None:
            snapshot = self.csn
        return None, snapshot

    def is_own_write(self, txn: Transaction, table: "Table",
                     row_id: int) -> bool:
        """Whether *row_id*'s current state is *txn*'s own uncommitted write."""
        return txn is self._writer_txn and row_id in table._dirty

    # ------------------------------------------------------------------ #
    # read views

    def enter_view(self) -> bool:
        """Pin a read view for the calling thread (reentrant).

        Returns True when this call created the outermost view (the
        matching :meth:`exit_view` must then unpin).  Inside an open
        transaction this is a no-op: the transaction snapshot already
        governs reads.
        """
        ident = threading.get_ident()
        if self._txns.get(ident) is not None:
            return False
        held = self._view_depth.get(ident)
        if held is not None:
            token, depth = held
            self._view_depth[ident] = (token, depth + 1)
            return False
        token, csn = self.pin()
        with self.lock:
            self._view_csn[ident] = csn
            self._view_depth[ident] = (token, 1)
            self._active += 1
        return True

    def exit_view(self) -> None:
        ident = threading.get_ident()
        if self._txns.get(ident) is not None:
            return
        held = self._view_depth.get(ident)
        if held is None:
            return
        token, depth = held
        if depth > 1:
            self._view_depth[ident] = (token, depth - 1)
            return
        with self.lock:
            del self._view_depth[ident]
            del self._view_csn[ident]
            self._active -= 1
        self.unpin(token)

    # ------------------------------------------------------------------ #
    # transactions

    def begin(self) -> Transaction:
        ident = threading.get_ident()
        if self._txns.get(ident) is not None:
            raise TransactionError("transaction already open")
        if ident in self._view_depth:
            raise TransactionError(
                "cannot begin a transaction under an open read view")
        token, csn = self.pin()
        txn = Transaction(csn, token, ident)
        with self.lock:
            self._txns[ident] = txn
            self._active += 1
        return txn

    def ensure_slot(self, txn: Transaction) -> None:
        """Acquire the writer slot on the transaction's first write."""
        if not txn.holds_slot:
            self.writer_slot.acquire()
            txn.holds_slot = True
            self._writer_txn = txn

    def open_write(self) -> _WriteTicket:
        """Start one table mutation on the calling thread.

        Transactions keep their already-held (or now-acquired) writer
        slot; autocommit statements acquire it for the statement.

        Raises:
            TransactionError: when the thread holds a read view (views
                are read-only) without an open transaction.
        """
        txn = self.current_txn()
        if txn is not None:
            self.ensure_slot(txn)
            return _WriteTicket(self, txn)
        if threading.get_ident() in self._view_depth:
            raise TransactionError(
                "cannot write under a read view; open a transaction instead")
        self.writer_slot.acquire()
        return _WriteTicket(self, None)

    def finish_commit(self, txn: Transaction) -> int:
        """Publish *txn*'s writes: stamp touched rows with a fresh CSN."""
        touched = txn.touched()
        with self.lock:
            csn = self.csn + 1  # published after the stamps, as in seal
            for table, row_id in touched:
                table._row_csn[row_id] = csn
                table._dirty.discard(row_id)
                self._garbage += 1
            self.csn = csn
            for table in {table for table, _ in touched}:
                table._mutations += 1
            self._commits += 1
            run_gc = (self._commits % self.GC_COMMIT_INTERVAL == 0
                      and self._garbage)
        self._end(txn)
        if run_gc or self._should_gc_now():
            self.gc()
        return csn

    def discard(self, txn: Transaction) -> None:
        """Drop *txn* after its undo log has been replayed (rollback)."""
        self._end(txn)
        if self._should_gc_now():
            self.gc()

    def _end(self, txn: Transaction) -> None:
        with self.lock:
            self._txns.pop(txn.thread_ident, None)
            self._active -= 1
            if self._writer_txn is txn:
                self._writer_txn = None
        if txn.holds_slot:
            txn.holds_slot = False
            self.writer_slot.release()
        self.unpin(txn.pin_token)

    def _should_gc_now(self) -> bool:
        return not self._pins and bool(self._garbage)

    # ------------------------------------------------------------------ #
    # garbage collection

    def gc(self) -> int:
        """Prune version chains invisible to every pinned snapshot.

        Returns the number of chain entries discarded.  Safe to run
        concurrently with readers: chains are replaced wholesale, never
        mutated in place, and only entries below the watermark go.  The
        pass holds :attr:`lock`, as claims and seals do, so a chain
        entry or CSN stamp cannot arrive between its check of a row and
        its deletion.  Passes are serialized: a call that finds one
        already running skips its own and returns 0 (concurrent
        ``unpin`` calls each start a pass; one is enough).
        """
        if not self._gc_pass.acquire(blocking=False):
            return 0
        try:
            with self.lock:
                # The oldest pinned snapshot (the latest CSN with no pins).
                watermark = min(self._pins.values()) if self._pins else self.csn
                pruned = 0
                for table in self._tables():
                    pruned += table._gc_versions(watermark)
                # With no pin, every committed version is reclaimable and
                # is gone now; an in-flight statement's marks wait for a
                # later pass.  (``pruned`` counts chain entries, not CSN
                # stamps, so subtracting it alone left the count above
                # zero for good and every unpin ran a pass.)
                self._garbage = (max(0, self._garbage - pruned)
                                 if self._pins else 0)
            return pruned
        finally:
            self._gc_pass.release()
