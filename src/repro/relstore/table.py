"""Heap tables with index-accelerated selection.

A :class:`Table` stores rows as tuples keyed by a monotonically increasing
row id.  Secondary indexes are maintained incrementally; ``select`` consults
the predicate's equality / ``IN`` / membership bindings to pick an index and
falls back to a full scan.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import IntegrityError, QueryError, SchemaError
from .index import BaseIndex, HashIndex, InvertedIndex, UniqueIndex
from .mvcc import MvccState, Transaction
from .predicate import ALWAYS, Predicate
from .types import Schema


class Table:
    """A single relational table.

    Mutations are serialized by the owning database's MVCC writer slot;
    reads are versioned (see :mod:`repro.relstore.mvcc`): a thread
    holding a transaction or read view sees a stable committed snapshot
    plus its own writes, and never blocks on writers.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name.isidentifier():
            raise SchemaError(f"table name {name!r} is not a valid identifier")
        self.name = name
        self.schema = schema
        self._rows: dict[int, tuple[Any, ...]] = {}
        self._next_row_id = 1
        self._indexes: dict[str, BaseIndex] = {}
        #: MVCC bookkeeping.  ``_row_csn`` stamps the commit sequence
        #: number at which a row's current state became current (absent
        #: = "old enough for every snapshot"); ``_versions`` holds the
        #: per-row chain of superseded committed values as ascending
        #: ``(csn, value_or_None)`` pairs; ``_dirty`` marks rows whose
        #: current state is an uncommitted in-place write; ``_mutations``
        #: is a writer-only change stamp readers use to validate
        #: lock-free snapshot reads.
        self._row_csn: dict[int, int] = {}
        self._versions: dict[int, list[tuple[int, tuple[Any, ...] | None]]] = {}
        self._dirty: set[int] = set()
        self._mutations = 0
        #: A standalone table gets a private MVCC state; ``Database``
        #: rebinds its shared one via :meth:`bind_mvcc`.
        self._mvcc = MvccState(lambda: [self])
        #: Optional mutation journal: a callable receiving the op dicts of
        #: one committed statement (one op per row; a single op for
        #: ``clear`` or index DDL).  Set by ``Database`` so a
        #: write-ahead log can capture mutations made directly on the
        #: table (the QUEST service layer mutates tables without going
        #: through ``Database`` helpers).
        self.journal: Callable[[list[dict[str, Any]]], None] | None = None
        if schema.primary_key is not None:
            self.create_index(f"pk_{name}", schema.primary_key, unique=True)

    def bind_mvcc(self, state: MvccState) -> None:
        """Share the owning database's MVCC state (snapshots span tables)."""
        self._mvcc = state

    def _emit(self, ops: Iterable[dict[str, Any]]) -> None:
        """Journal one statement's ops; an unjournaled table never
        builds them."""
        if self.journal is not None:
            self.journal(list(ops))

    # ------------------------------------------------------------------ #
    # introspection

    def __len__(self) -> int:
        txn, snapshot = self._mvcc.read_context()
        if snapshot is None:
            return len(self._rows)
        return sum(1 for _ in self._visible_items(txn, snapshot))

    def __repr__(self) -> str:
        return f"<Table {self.name} rows={len(self)} indexes={sorted(self._indexes)}>"

    @property
    def indexes(self) -> Mapping[str, BaseIndex]:
        """The table's indexes by name (read-only view)."""
        return dict(self._indexes)

    def row_ids(self) -> Iterator[int]:
        """Iterate over all row ids visible to the calling thread."""
        txn, snapshot = self._mvcc.read_context()
        if snapshot is None:
            return iter(self._rows)
        return (row_id for row_id, _ in self._visible_items(txn, snapshot))

    # ------------------------------------------------------------------ #
    # index management

    def create_index(self, index_name: str, column: str, *, unique: bool = False,
                     inverted: bool = False) -> BaseIndex:
        """Create and backfill an index on *column*.

        Args:
            index_name: unique name of the index within this table.
            column: indexed column; must exist in the schema.
            unique: enforce one row per value (implies a hash index).
            inverted: index the *elements* of a JSON-list column instead of
                the value itself.  Mutually exclusive with *unique*.

        Raises:
            SchemaError: on unknown column or duplicate index name, or
                when an inverted index meets a list element that cannot
                be a key (a nested list or object); no index is added.
            IntegrityError: if a unique index finds existing duplicates.
        """
        if index_name in self._indexes:
            raise SchemaError(f"index {index_name!r} already exists on {self.name!r}")
        self.schema.column(column)
        if unique and inverted:
            raise SchemaError("an index cannot be both unique and inverted")
        if unique:
            index: BaseIndex = UniqueIndex(index_name, column)
        elif inverted:
            index = InvertedIndex(index_name, column)
        else:
            index = HashIndex(index_name, column)
        position = self.schema.index_of(column)
        index.check_batch((row_id, row[position])
                          for row_id, row in self._rows.items())
        for row_id, row in self._rows.items():
            index.add(row_id, row[position])
        self._indexes[index_name] = index
        txn = self._mvcc.current_txn()
        if txn is not None:
            txn.record_ddl(lambda: self._indexes.pop(index_name, None))
        self._emit([{"op": "create_index", "table": self.name,
                     "name": index_name, "column": column,
                     "unique": unique, "inverted": inverted}])
        return index

    def drop_index(self, index_name: str) -> None:
        """Remove an index.

        Raises:
            SchemaError: if the index does not exist.
        """
        if index_name not in self._indexes:
            raise SchemaError(f"no index {index_name!r} on table {self.name!r}")
        index = self._indexes.pop(index_name)
        txn = self._mvcc.current_txn()
        if txn is not None:
            txn.record_ddl(
                lambda: self._indexes.__setitem__(index_name, index))
        self._emit([{"op": "drop_index", "table": self.name,
                     "name": index_name}])

    def _index_on(self, column: str, *, inverted: bool = False) -> BaseIndex | None:
        for index in self._indexes.values():
            if index.column != column:
                continue
            is_inverted = isinstance(index, InvertedIndex)
            if inverted == is_inverted:
                return index
        return None

    def index_for(self, column: str, *, inverted: bool = False) -> BaseIndex | None:
        """The index covering *column*, or None if there is none.

        Args:
            column: the indexed column to look for.
            inverted: require an element (inverted) index instead of a
                scalar one.

        Callers must handle the None case: indexes can be dropped at
        runtime and externally supplied tables may never have had them.
        A keyed row lookup should use :meth:`row_ids_where`, which plans
        the index probe and the scan fallback itself.
        """
        return self._index_on(column, inverted=inverted)

    # ------------------------------------------------------------------ #
    # mutation

    def insert(self, values: Mapping[str, Any], *,
               row_id: int | None = None) -> int:
        """Insert one row; returns its row id.

        Args:
            values: the row as a column->value mapping.
            row_id: restore the row under this explicit id (used by WAL
                replay and snapshot loading so ids stay stable across
                reopens); must not collide with a live row.

        Raises:
            SchemaError: on schema violations, or a list element an
                inverted index cannot hold.
            IntegrityError: on unique-index violations or a duplicate
                explicit *row_id* (no partial effects).
        """
        return self._insert_rows([self.schema.normalize(values)], row_id)[0]

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert several rows as one statement; returns their row ids.

        Every row is validated, and checked against the unique indexes,
        before any is written.  The rows then share one writer-slot
        hold, one commit (CSN) and, on a WAL-backed database outside a
        transaction, one framed WAL batch.  A failure on any row leaves
        the table exactly as it was.  Readers in a read view or a
        transaction see all of the rows or none of them; a read outside
        both walks current state and can see a statement in flight.

        Raises:
            SchemaError / IntegrityError: as :meth:`insert`, for any row.
        """
        normalized = [self.schema.normalize(values) for values in rows]
        if not normalized:
            return []
        return self._insert_rows(normalized, None)

    def _insert_rows(self, rows: list[tuple[Any, ...]],
                     row_id: int | None) -> list[int]:
        """One insert statement over normalized *rows* (ids ascending
        from *row_id*, or from the next free id)."""
        ticket = self._mvcc.open_write()
        inserted: list[int] = []
        committed = False
        try:
            if row_id is None:
                row_id = self._next_row_id
            else:
                ticket.conflict_check(self, row_id)
                if row_id in self._rows:
                    raise IntegrityError(
                        f"row id {row_id} already exists in table {self.name!r}")
            # Refuse a duplicate key or an unindexable element before
            # linking any row, so a refused statement never puts a row
            # where a lock-free reader sees it, nor a key in an index.
            for index in self._indexes.values():
                position = self.schema.index_of(index.column)
                index.check_batch(
                    (new_id, row[position])
                    for new_id, row in enumerate(rows, start=row_id))
            for new_id, row in enumerate(rows, start=row_id):
                ticket.claim(self, new_id, None)
                self._link(new_id, row)
                inserted.append(new_id)
            self._next_row_id = max(self._next_row_id, row_id + len(rows))
            ticket.seal(self)
            committed = True
            self._emit(
                {"op": "insert", "table": self.name, "id": new_id,
                 "row": self.schema.as_dict(row)}
                for new_id, row in zip(inserted, rows))
            return inserted
        finally:
            if not committed:
                for new_id in reversed(inserted):
                    self._unlink(new_id, self._rows[new_id])
                ticket.abort(self)
            ticket.release()

    def _link(self, row_id: int, row: tuple[Any, ...]) -> None:
        """Index and store one claimed row whose index keys were checked."""
        for index in self._indexes.values():
            index.add(row_id, row[self.schema.index_of(index.column)])
        self._rows[row_id] = row
        self._mutations += 1

    def get(self, row_id: int) -> dict[str, Any]:
        """Return the row with id *row_id* as a dict.

        Under a transaction or read view this is the row as of the
        snapshot (plus the transaction's own writes).

        Raises:
            QueryError: if the row does not exist (or is not visible).
        """
        txn, snapshot = self._mvcc.read_context()
        if snapshot is None:
            row = self._rows.get(row_id)
        else:
            row = self._read_visible(txn, snapshot, row_id)
        if row is None:
            raise QueryError(f"no row {row_id} in table {self.name!r}")
        return self.schema.as_dict(row)

    def update(self, row_id: int, changes: Mapping[str, Any]) -> None:
        """Apply *changes* (a partial column->value mapping) to one row.

        Raises:
            QueryError: if the row does not exist.
            SchemaError / IntegrityError: on constraint violations; the row
                is left unchanged in that case.
        """
        self._update_rows(lambda: [row_id], changes)

    def update_where(self, predicate: Predicate,
                     changes: Mapping[str, Any]) -> int:
        """Apply *changes* to all rows matching *predicate* as one
        statement; returns the count.

        Matched like :meth:`delete`.  Every matched row is
        conflict-checked and normalized, and the unique indexes are
        checked against the statement's end state, before any row
        changes; the changes then share one commit, so the update
        applies completely or not at all.

        Raises:
            SchemaError / IntegrityError: as :meth:`update`, for any row
                (nothing is updated then).
            TransactionConflictError: as :meth:`delete_row`.
        """
        return self._update_rows(lambda: self.row_ids_where(predicate),
                                 changes)

    def _update_rows(self, targets: Callable[[], list[int]],
                     changes: Mapping[str, Any]) -> int:
        """One update statement over the row ids *targets* returns."""
        ticket = self._mvcc.open_write()
        committed = False
        try:
            updates: list[tuple[int, tuple[Any, ...], tuple[Any, ...]]] = []
            for row_id in targets():
                ticket.conflict_check(self, row_id)
                old_row = self._rows.get(row_id)
                if old_row is None:
                    raise QueryError(f"no row {row_id} in table {self.name!r}")
                merged = self.schema.as_dict(old_row)
                merged.update(changes)
                updates.append((row_id, old_row, self.schema.normalize(merged)))
            if not updates:
                return 0
            for index in self._indexes.values():
                position = self.schema.index_of(index.column)
                index.check_batch((row_id, new_row[position])
                                  for row_id, _, new_row in updates)
            for row_id, old_row, _ in updates:
                ticket.claim(self, row_id, old_row)
            # Checked above, so nothing from here on can fail.  Old keys
            # leave an index before new ones arrive, so the order the
            # rows are applied in never matters.
            for index in self._indexes.values():
                position = self.schema.index_of(index.column)
                moved = [(row_id, old_row[position], new_row[position])
                         for row_id, old_row, new_row in updates
                         if old_row[position] != new_row[position]]
                for row_id, old_value, _ in moved:
                    index.remove(row_id, old_value)
                for row_id, _, new_value in moved:
                    index.add(row_id, new_value)
            for row_id, _, new_row in updates:
                self._rows[row_id] = new_row
            self._mutations += 1
            ticket.seal(self)
            committed = True
            self._emit({"op": "update", "table": self.name, "id": row_id,
                        "row": self.schema.as_dict(new_row)}
                       for row_id, _, new_row in updates)
            return len(updates)
        finally:
            if not committed:
                ticket.abort(self)
            ticket.release()

    def delete_row(self, row_id: int) -> None:
        """Delete one row by its id.

        Raises:
            QueryError: if the row does not exist.
            TransactionConflictError: in a transaction, if another
                transaction committed a change to the row after this
                transaction's snapshot.
        """
        self._delete_rows(lambda: [row_id])

    def delete(self, predicate: Predicate = ALWAYS) -> int:
        """Delete all rows matching *predicate* as one statement; returns
        the count.

        The matching set is computed against the caller's snapshot (plus
        its own writes) once the statement holds the writer slot.  Every
        matched row is conflict-checked before any is removed, and the
        removals share one commit, so the delete applies completely or
        not at all.

        Raises:
            TransactionConflictError: as :meth:`delete_row`, for any
                matched row (nothing is deleted then).
        """
        return self._delete_rows(lambda: self.row_ids_where(predicate))

    def _delete_rows(self, doomed: Callable[[], list[int]]) -> int:
        """One delete statement over the row ids *doomed* returns."""
        ticket = self._mvcc.open_write()
        removed: list[tuple[int, tuple[Any, ...]]] = []
        committed = False
        try:
            row_ids = doomed()
            for row_id in row_ids:
                ticket.conflict_check(self, row_id)
                if row_id not in self._rows:
                    raise QueryError(f"no row {row_id} in table {self.name!r}")
            if not row_ids:
                return 0
            for row_id in row_ids:
                row = self._rows[row_id]
                ticket.claim(self, row_id, row)
                self._unlink(row_id, row)
                removed.append((row_id, row))
            ticket.seal(self)
            committed = True
            self._emit({"op": "delete", "table": self.name, "id": row_id}
                       for row_id in row_ids)
            return len(row_ids)
        finally:
            if not committed:
                if any([self._restore_row(row_id, row)
                        for row_id, row in reversed(removed)]):
                    self._sort_rows()
                ticket.abort(self)
            ticket.release()

    def _unlink(self, row_id: int, row: tuple[Any, ...]) -> None:
        """Drop one row from the heap and every index."""
        del self._rows[row_id]
        for index in self._indexes.values():
            index.remove(row_id, row[self.schema.index_of(index.column)])
        self._mutations += 1

    def clear(self) -> None:
        """Delete all rows (indexes are emptied, ids keep increasing)."""
        ticket = self._mvcc.open_write()
        committed = False
        try:
            for row_id, row in list(self._rows.items()):
                ticket.claim(self, row_id, row)
                self._unlink(row_id, row)
            ticket.seal(self)
            committed = True
            self._emit([{"op": "clear", "table": self.name}])
        finally:
            if not committed:
                ticket.abort(self)
            ticket.release()

    def remove_row(self, row_id: int) -> dict[str, Any]:
        """Physically remove a row and its index entries; the inverse of
        :meth:`insert`.

        Unlike :meth:`delete_row` this emits no journal op and records
        no version: it is the inverse API that undo/replay paths use to
        restore prior physical state without re-logging it (rollback of
        an insert must disappear from the WAL, not append to it).
        Returns the removed row as a dict.

        Raises:
            QueryError: if the row does not exist.
        """
        row = self._rows.get(row_id)
        if row is None:
            raise QueryError(f"no row {row_id} in table {self.name!r}")
        self._unlink(row_id, row)
        return self.schema.as_dict(row)

    def _restore_row(self, row_id: int, row: tuple[Any, ...]) -> bool:
        """Physically re-install *row* under its original id (undo path).

        Preserves the durable-row-id invariant: rollback of a delete
        brings the row back under the same id with identical index
        entries, so candidate orderings are byte-identical to the
        pre-transaction state.  No journal op, no version record.

        Returns True when the row landed out of id order; the caller
        then calls :meth:`_sort_rows` once, after its last restore.
        """
        current = self._rows.get(row_id)
        for index in self._indexes.values():
            position = self.schema.index_of(index.column)
            if current is None:
                index.add(row_id, row[position])
            elif current[position] != row[position]:
                index.remove(row_id, current[position])
                index.add(row_id, row[position])
        out_of_order = (current is None and bool(self._rows)
                        and next(reversed(self._rows)) > row_id)
        self._rows[row_id] = row
        self._next_row_id = max(self._next_row_id, row_id + 1)
        self._mutations += 1
        return out_of_order

    def _sort_rows(self) -> None:
        """Put ``_rows`` back in ascending id order after restores.

        Scans and row_ids() iterate _rows in insertion order, which is
        ascending-id order everywhere else (ids only grow).  A restored
        row is appended at the *end*, so a rolled-back delete would
        silently reorder every id-ordered scan.  Sorting once per
        rollback, not once per restored row, keeps the earlier order
        byte-identical without making the undo of a large delete
        quadratic in its size.
        """
        self._rows = dict(sorted(self._rows.items()))
        self._mutations += 1

    def _gc_versions(self, watermark: int) -> int:
        """Prune version-chain entries no pinned snapshot can reach.

        Called by :meth:`MvccState.gc`, under its lock, with the oldest
        pinned CSN.  For each chain, keep the suffix starting at the
        last entry at or below the watermark (the base value some pin
        may still need); drop the chain (and the CSN stamp) entirely
        when the current row state itself is old enough for every pin.
        Chains are replaced, never mutated, so concurrent readers keep
        iterating a consistent list.  Returns the number of entries
        pruned.
        """
        pruned = 0
        for row_id in list(self._versions):
            chain = self._versions.get(row_id)
            if not chain:
                continue
            if (row_id not in self._dirty
                    and self._row_csn.get(row_id, 0) <= watermark):
                del self._versions[row_id]
                pruned += len(chain)
                continue
            cut = 0
            for position, (entry_csn, _) in enumerate(chain):
                if entry_csn <= watermark:
                    cut = position
                else:
                    break
            if cut:
                self._versions[row_id] = chain[cut:]
                pruned += cut
        for row_id in list(self._row_csn):
            if (self._row_csn.get(row_id, 0) <= watermark
                    and row_id not in self._dirty
                    and row_id not in self._versions):
                del self._row_csn[row_id]
        return pruned

    # ------------------------------------------------------------------ #
    # querying

    # -- MVCC visibility ------------------------------------------------ #

    def _chain_visible(self, row_id: int,
                       snapshot: int) -> tuple[Any, ...] | None:
        """The committed value at *snapshot* from the version chain.

        Chain entries are ascending ``(csn, value)`` pairs meaning "as
        of *csn* the committed value was *value*" (None = absent); the
        last entry at or below the snapshot wins.  An empty/missing
        chain means the row did not exist at the snapshot.
        """
        chain = self._versions.get(row_id)
        if not chain:
            return None
        value: tuple[Any, ...] | None = None
        for entry_csn, entry_value in chain:
            if entry_csn <= snapshot:
                value = entry_value
            else:
                break
        return value

    def _read_committed(self, row_id: int,
                        snapshot: int) -> tuple[Any, ...] | None:
        """Lock-free committed read at *snapshot* (None = not visible).

        Optimistic: reads are validated against the writer-only
        ``_mutations`` stamp and retried on interference, so a torn
        in-place write can never leak into a snapshot.  A writer bumps
        that stamp only after its change, so a heap read is also
        re-validated against the row's own marks: a writer claims (marks
        dirty) before it changes ``_rows`` and stamps the CSN before it
        clears the mark, so a row still clean and equally stamped after
        the read was read as committed.
        """
        while True:
            stamp = self._mutations
            if row_id in self._dirty:
                result = self._chain_visible(row_id, snapshot)
            else:
                csn = self._row_csn.get(row_id, 0)
                if csn > snapshot:
                    result = self._chain_visible(row_id, snapshot)
                else:
                    result = self._rows.get(row_id)
                    if (row_id in self._dirty
                            or self._row_csn.get(row_id, 0) != csn):
                        continue
            if self._mutations == stamp:
                return result

    def _read_visible(self, txn: Transaction | None, snapshot: int,
                      row_id: int) -> tuple[Any, ...] | None:
        """What the calling thread sees for *row_id*: its transaction's
        own uncommitted write, else the committed value at *snapshot*."""
        if txn is not None and self._mvcc.is_own_write(txn, self, row_id):
            return self._rows.get(row_id)
        return self._read_committed(row_id, snapshot)

    def _visible_items(self, txn: Transaction | None,
                       snapshot: int) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Full scan of the rows visible at the caller's snapshot.

        Ascending row-id order, matching a plain scan of ``_rows`` —
        rows visible only through a version chain (deleted after the
        snapshot) must not trail the scan out of order.
        """
        candidates: set[int] = set(self._rows)
        for source in (self._row_csn, self._versions, self._dirty):
            candidates.update(source)
        for row_id in sorted(candidates):
            row = self._read_visible(txn, snapshot, row_id)
            if row is not None:
                yield row_id, row

    def _plan(self, predicate: Predicate) -> tuple[BaseIndex, list[Any]] | None:
        """The index probe for *predicate* as ``(index, keys)``, or None
        for a full scan.

        An equality on an indexed column comes first, then an ``IN`` on
        one (one probe per value), then a ``contains`` on an inverted
        index.  Every binding is conjunctive, so the probe's rows are a
        superset of the matches; callers re-check the predicate.  A hash
        index holds no NULLs, so a binding that NULL satisfies (``==
        None``, or an ``IN`` list holding None) cannot use one.
        """
        for column, value in predicate.equality_bindings().items():
            index = self._index_on(column)
            if index is not None and value is not None:
                return index, [value]
        for column, values in predicate.set_bindings().items():
            index = self._index_on(column)
            if index is not None and None not in values:
                return index, list(values)
        for column, element in predicate.membership_bindings().items():
            index = self._index_on(column, inverted=True)
            if index is not None:
                return index, [element]
        return None

    @staticmethod
    def _probe(index: BaseIndex, keys: list[Any]) -> set[int]:
        """The row ids *index* holds under any of *keys*, each once."""
        if len(keys) == 1:
            return index.lookup(keys[0])
        hits: set[int] = set()
        for key in keys:
            hits |= index.lookup(key)
        return hits

    def _index_candidates(self, index: BaseIndex, keys: list[Any],
                          txn: Transaction | None,
                          snapshot: int) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Snapshot-safe index probe.

        The index reflects *current* state, so beyond its hits we must
        consider rows whose committed value changed after the snapshot
        and rows with uncommitted in-place writes — their snapshot value
        may match a key even though their current value does not.
        Callers re-check the predicate against the visible record.

        ``_dirty`` is read before ``_row_csn``: a seal stamps the CSN
        and then clears the dirty mark, so a row unlinked before the
        probe is in one of the two whenever its seal lands between them.
        """
        candidates = self._probe(index, keys)
        candidates.update(self._dirty)
        candidates.update(row_id for row_id, csn in list(self._row_csn.items())
                          if csn > snapshot)
        for row_id in candidates:
            row = self._read_visible(txn, snapshot, row_id)
            if row is not None:
                yield row_id, row

    def _candidate_rows(self, predicate: Predicate) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Yield (row_id, row) pairs, narrowed through an index if possible."""
        txn, snapshot = self._mvcc.read_context()
        plan = self._plan(predicate)
        if snapshot is None:
            if plan is None:
                yield from self._rows.items()
            else:
                for row_id in self._probe(*plan):
                    yield row_id, self._rows[row_id]
        elif plan is None:
            yield from self._visible_items(txn, snapshot)
        else:
            yield from self._index_candidates(*plan, txn, snapshot)

    def select(
        self,
        predicate: Predicate = ALWAYS,
        *,
        columns: Sequence[str] | None = None,
        order_by: str | Callable[[dict[str, Any]], Any] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Return matching rows as dicts.

        Args:
            predicate: row filter; defaults to all rows.
            columns: project onto these columns (default: all).
            order_by: column name or key function for an ascending sort
                (NULLs last when it is a column name).
            limit: maximum number of rows returned (applied after sorting).

        Raises:
            QueryError: if a projected or sort column does not exist.
        """
        if columns is not None:
            for name in columns:
                if not self.schema.has_column(name):
                    raise QueryError(f"unknown column {name!r} in projection")
        matches: list[dict[str, Any]] = []
        for _, row in self._candidate_rows(predicate):
            record = self.schema.as_dict(row)
            if predicate(record):
                matches.append(record)
        if order_by is not None:
            if isinstance(order_by, str):
                if not self.schema.has_column(order_by):
                    raise QueryError(f"unknown column {order_by!r} in ORDER BY")
                sort_column = order_by
                matches.sort(key=lambda record: (record[sort_column] is None,
                                                 record[sort_column]))
            else:
                matches.sort(key=order_by)
        if limit is not None:
            matches = matches[:limit]
        if columns is not None:
            matches = [{name: record[name] for name in columns} for record in matches]
        return matches

    def row_ids_where(self, predicate: Predicate) -> list[int]:
        """Ascending ids of the visible rows matching *predicate*.

        Planned like :meth:`select`: an equality or ``IN`` on an indexed
        column (or a ``contains`` on an inverted one) probes the index,
        anything else scans, and under a transaction or read view only rows visible at
        the snapshot count.  This is the keyed lookup for callers that
        need row ids (to update or delete) rather than row values.
        """
        return sorted(row_id for row_id, row in self._candidate_rows(predicate)
                      if predicate(self.schema.as_dict(row)))

    def select_one(self, predicate: Predicate) -> dict[str, Any] | None:
        """Return the first matching row, or None."""
        rows = self.select(predicate, limit=1)
        return rows[0] if rows else None

    def count(self, predicate: Predicate = ALWAYS) -> int:
        """Number of rows matching *predicate* (snapshot-aware)."""
        if predicate is ALWAYS:
            return len(self)
        return sum(1 for _ in self._matching(predicate))

    def distinct(self, column: str, predicate: Predicate = ALWAYS) -> set[Any]:
        """The set of distinct values of *column* among matching rows.

        List-valued (JSON) cells are converted to tuples so the result is a
        proper set.
        """
        position = self.schema.index_of(column)
        values: set[Any] = set()
        for record in self._matching(predicate):
            value = record[self.schema.column_names[position]]
            if isinstance(value, list):
                value = tuple(value)
            values.add(value)
        return values

    def group_count(self, column: str, predicate: Predicate = ALWAYS) -> dict[Any, int]:
        """Histogram of *column* values among matching rows.

        This powers the paper's *code frequency baseline* (error codes per
        part ID sorted by frequency).
        """
        self.schema.column(column)
        counts: dict[Any, int] = {}
        for record in self._matching(predicate):
            value = record[column]
            if isinstance(value, list):
                value = tuple(value)
            counts[value] = counts.get(value, 0) + 1
        return counts

    def _matching(self, predicate: Predicate) -> Iterator[dict[str, Any]]:
        for _, row in self._candidate_rows(predicate):
            record = self.schema.as_dict(row)
            if predicate(record):
                yield record

    def scan(self) -> Iterator[dict[str, Any]]:
        """Iterate over all visible rows as dicts (no filtering)."""
        txn, snapshot = self._mvcc.read_context()
        if snapshot is None:
            for row in self._rows.values():
                yield self.schema.as_dict(row)
            return
        for _, row in self._visible_items(txn, snapshot):
            yield self.schema.as_dict(row)

    def check_consistency(self) -> list[str]:
        """Verify every index against a full scan; returns the problems.

        Rebuilds each index's expected posting sets from the heap and
        reports every divergence (missing row id, stale row id, stray
        key) as a human-readable string — an empty list means the table's
        indexes exactly mirror its rows.  Used by the concurrency
        regression tests: unsynchronized writers corrupt exactly this
        invariant first.

        This is a check of the *physical* (current) state, not of a
        snapshot; run it from the writer's thread between transactions
        (or otherwise quiesced) so in-flight in-place writes don't show
        up as false divergences.
        """
        problems: list[str] = []
        for index in self._indexes.values():
            position = self.schema.index_of(index.column)
            expected: dict[Any, set[int]] = {}
            for row_id, row in self._rows.items():
                value = row[position]
                if isinstance(index, InvertedIndex):
                    if isinstance(value, (list, tuple)):
                        for element in value:
                            expected.setdefault(element, set()).add(row_id)
                elif value is not None:  # hash indexes skip NULLs
                    expected.setdefault(HashIndex._key(value),
                                        set()).add(row_id)
            for key in set(index.keys()) - set(expected):
                problems.append(f"{self.name}.{index.name}: stray key "
                                f"{key!r} not present in any row")
            for key, want in expected.items():
                have = index.lookup(key)
                if have != want:
                    problems.append(
                        f"{self.name}.{index.name}[{key!r}]: index has "
                        f"rows {sorted(have)}, heap has {sorted(want)}")
        return problems

    def explain(self, predicate: Predicate = ALWAYS) -> dict[str, Any]:
        """Describe how :meth:`select` would access rows for *predicate*.

        Returns a dict with ``access`` (``"hash_index"``,
        ``"inverted_index"`` or ``"full_scan"``), the ``index`` name when
        one is used, and the estimated number of rows read.
        """
        plan = self._plan(predicate)
        if plan is None:
            return {"access": "full_scan", "index": None, "column": None,
                    "rows_examined": len(self._rows)}
        index, keys = plan
        access = ("inverted_index" if isinstance(index, InvertedIndex)
                  else "hash_index")
        return {"access": access, "index": index.name, "column": index.column,
                "rows_examined": len(self._probe(index, keys))}

    def aggregate(self, aggregations: Sequence[tuple[str, str]],
                  predicate: Predicate = ALWAYS,
                  group_by: Sequence[str] = ()) -> list[dict[str, Any]]:
        """Grouped aggregation over matching rows.

        Args:
            aggregations: (function, column) pairs; functions are
                ``count`` (column may be ``"*"``), ``sum``, ``avg``,
                ``min``, ``max``.
            predicate: row filter.
            group_by: grouping columns (empty: one global group, which
                is returned even when no row matches, as in SQL).

        Returns one dict per group holding the grouping columns plus one
        ``"func(column)"`` key per aggregation.  Groups are sorted by
        their grouping-column values.

        Raises:
            QueryError: on unknown columns or aggregate functions.
        """
        for name in group_by:
            self.schema.column(name)
        for function, column in aggregations:
            if function not in ("count", "sum", "avg", "min", "max"):
                raise QueryError(f"unknown aggregate function {function!r}")
            if column != "*":
                self.schema.column(column)
            elif function != "count":
                raise QueryError(f"{function}(*) is not supported")
        groups: dict[tuple, list[dict[str, Any]]] = {}
        for record in self._matching(predicate):
            key = tuple(record[name] for name in group_by)
            groups.setdefault(key, []).append(record)
        if not group_by and not groups:
            groups[()] = []
        results = []
        for key in sorted(groups, key=lambda k: tuple(
                (value is None, value) for value in k)):
            rows = groups[key]
            result: dict[str, Any] = dict(zip(group_by, key))
            for function, column in aggregations:
                label = f"{function}({column})"
                if function == "count":
                    if column == "*":
                        result[label] = len(rows)
                    else:
                        result[label] = sum(1 for row in rows
                                            if row[column] is not None)
                    continue
                values = [row[column] for row in rows
                          if row[column] is not None]
                if not values:
                    result[label] = None
                elif function == "sum":
                    result[label] = sum(values)
                elif function == "avg":
                    result[label] = sum(values) / len(values)
                elif function == "min":
                    result[label] = min(values)
                else:
                    result[label] = max(values)
            results.append(result)
        return results
