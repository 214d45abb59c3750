"""Multi-row statements: ``Table.insert_many``, ``Table.update_where``
and ``Table.delete``.

A multi-row write is one statement: one writer-slot hold, one commit
sequence number and, on a WAL-backed database outside a transaction,
one framed WAL batch.  These tests pin down that such a statement

* ends in exactly the state the same rows written one at a time reach
  (rows, row ids, index contents, journal ops with framing removed);
* applies completely or not at all: a ``SchemaError``,
  ``IntegrityError`` or ``TransactionConflictError`` on any row leaves
  no row, index entry, row-id advance or version-chain mark behind;
* is never seen in part by a concurrent read view;
* recovers all-or-nothing from a torn WAL frame (``-m faults``), and a
  WAL written before statements were framed still replays.

Plus the ``IN`` planner: an ``IN`` on an indexed column probes the
index once per value instead of scanning.
"""

import contextlib
import random
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relstore import (ALWAYS, Database, IntegrityError, SchemaError,
                            TransactionConflictError, TransactionError, col,
                            open_database)
from repro.relstore.mvcc import _WriteTicket
from repro.relstore.predicate import Lambda
from repro.relstore.table import Table
from repro.relstore.types import Schema
from repro.relstore.wal import TXN_BEGIN, TXN_COMMIT, WAL_NAME, replay_wal_file

SCHEMA = Schema.build([("k", "text"), ("part", "text"), ("tags", "json"),
                       ("n", "integer")])
FRAMING = (TXN_BEGIN, TXN_COMMIT)
FIXTURES = Path(__file__).parent / "fixtures"


def make_db(name="statements"):
    """A database journaling into ``db.ops`` (frames kept as given)."""
    db = Database(name)
    table = db.create_table("t", SCHEMA)
    table.create_index("ux_k", "k", unique=True)
    table.create_index("ix_part", "part")
    table.create_index("ix_tags", "tags", inverted=True)
    db.ops = []
    db.frames = []

    def journal_many(batch):
        db.frames.append(batch)
        db.ops.extend(batch)

    db.set_journal(db.ops.append, journal_many)
    return db


def state(table):
    """Everything a statement may touch, as plain values."""
    return {
        "rows": {row_id: table._rows[row_id] for row_id in table._rows},
        "order": list(table._rows),
        "next_row_id": table._next_row_id,
        "indexes": {name: {key: index.lookup(key) for key in index.keys()}
                    for name, index in table.indexes.items()},
        "versions": {row_id: list(chain)
                     for row_id, chain in table._versions.items()},
        "dirty": set(table._dirty),
    }


def unframed(ops):
    return [op for op in ops if op["op"] not in FRAMING]


class PinnedView:
    """Hold a read view on another thread, so autocommit statements keep
    version chains (the MVCC "chain" mode) instead of the fast path."""

    def __init__(self, db):
        self.db = db
        self.entered = threading.Event()
        self.leave = threading.Event()
        self.thread = threading.Thread(target=self._hold)

    def _hold(self):
        with self.db.read_view():
            self.entered.set()
            self.leave.wait(30)

    def __enter__(self):
        self.thread.start()
        assert self.entered.wait(30)
        return self

    def __exit__(self, *exc_info):
        self.leave.set()
        self.thread.join(30)
        assert not self.thread.is_alive()


# --------------------------------------------------------------------- #
# one statement == the same rows one at a time

_keys = st.sampled_from([f"k{i}" for i in range(12)])
_parts = st.sampled_from(["a", "b", "c", None])
_tag_lists = st.lists(st.sampled_from(["x", "y", "z"]), max_size=2,
                      unique=True)
_rows = st.fixed_dictionaries({"k": _keys, "part": _parts,
                               "tags": _tag_lists,
                               "n": st.integers(0, 4)})
_predicates = st.one_of(
    st.builds(lambda v: col("part") == v, st.sampled_from(["a", "b", "c"])),
    st.builds(lambda vs: col("part").in_(vs),
              st.sets(st.sampled_from(["a", "b", "c"]), max_size=3)),
    st.builds(lambda v: col("n") == v, st.integers(0, 4)),
    st.builds(lambda vs: col("n").in_(vs),
              st.sets(st.integers(0, 4), max_size=3)),
    st.builds(lambda v: col("tags").contains(v),
              st.sampled_from(["x", "y", "z"])),
    st.builds(lambda v: col("n") >= v, st.integers(0, 5)),
    st.just(ALWAYS),
)
_statements = st.lists(
    st.one_of(st.tuples(st.just("insert"), st.lists(_rows, max_size=6)),
              st.tuples(st.just("delete"), _predicates)),
    max_size=8)


def one_at_a_time(table, kind, argument):
    if kind == "insert":
        for row in argument:
            table.insert(row)
    else:
        for row_id in table.row_ids_where(argument):
            table.delete_row(row_id)


@settings(max_examples=60, deadline=None)
@given(_statements, st.sampled_from(["autocommit", "transaction", "pinned"]))
def test_statement_equals_rows_one_at_a_time(statements, mode):
    db, reference = make_db("statement"), make_db("reference")
    table, expected = db.table("t"), reference.table("t")
    pinned = PinnedView(db) if mode == "pinned" else None
    if pinned is not None:
        pinned.__enter__()
    try:
        if mode == "transaction":
            db.begin()
            reference.begin()
        for kind, argument in statements:
            before = state(table)
            csn, ops = db._mvcc.csn, len(db.ops)
            try:
                if kind == "insert":
                    table.insert_many(argument)
                else:
                    table.delete(argument)
            except IntegrityError:
                # Nothing of a refused statement stays behind.
                assert kind == "insert"
                assert state(table) == before
                assert (db._mvcc.csn, len(db.ops)) == (csn, ops)
                continue
            one_at_a_time(expected, kind, argument)
            changed = len(unframed(db.ops[ops:]))
            if mode != "transaction":
                # One CSN and, for several rows, one frame per statement.
                assert db._mvcc.csn == csn + (1 if changed else 0)
                framed = db.ops[ops:]
                if changed > 1:
                    assert framed[0]["op"] == TXN_BEGIN
                    assert framed[-1] == {"op": TXN_COMMIT,
                                          "txn": framed[0]["txn"]}
                else:
                    assert len(framed) == changed
            assert state(table)["rows"] == state(expected)["rows"]
        if mode == "transaction":
            db.commit()
            reference.commit()
    finally:
        if pinned is not None:
            pinned.__exit__(None, None, None)
    got, want = state(table), state(expected)
    for key in ("rows", "order", "next_row_id", "indexes"):
        assert got[key] == want[key], key
    assert unframed(db.ops) == unframed(reference.ops)
    assert table.check_consistency() == []


def test_statement_ops_and_ids_match_single_inserts():
    db = make_db()
    ids = db.insert_many("t", [{"k": "a", "part": "p", "n": 1},
                               {"k": "b", "part": "p", "n": 2}])
    assert ids == [1, 2]
    assert [op["op"] for op in db.ops] == [TXN_BEGIN, "insert", "insert",
                                          TXN_COMMIT]
    assert [op.get("id") for op in db.frames[0]] == [None, 1, 2, None]
    assert db.insert_many("t", []) == []
    assert db.table("t").delete(col("part") == "nothing") == 0
    assert len(db.frames) == 1


def test_single_row_statements_stay_bare_ops():
    db = make_db()
    db.table("t").insert_many([{"k": "a", "n": 1}])
    db.table("t").delete(col("k") == "a")
    assert [op["op"] for op in db.ops] == ["insert", "delete"]
    assert db.frames == []


def test_transaction_journals_the_same_ops_as_before():
    db = make_db()
    table = db.table("t")
    with db.transaction():
        table.insert_many([{"k": "a", "n": 1}, {"k": "b", "n": 2}])
        table.delete(col("n") >= 0)
    assert [op["op"] for op in db.ops] == [
        TXN_BEGIN, "insert", "insert", "delete", "delete", TXN_COMMIT]
    assert len(db.frames) == 1


# --------------------------------------------------------------------- #
# all or nothing

SEED_ROWS = [{"k": f"k{i}", "part": "p", "tags": ["x"], "n": i}
             for i in range(5)]


def seeded_db():
    db = make_db()
    db.table("t").insert_many(SEED_ROWS)
    db.ops.clear()
    db.frames.clear()
    return db


def bad_batches():
    """(name, batch, error) with the bad row at every position k."""
    for k in range(4):
        good = [{"k": f"new{i}", "part": "q", "tags": ["y"], "n": i}
                for i in range(4)]
        schema_bad = [dict(row) for row in good]
        schema_bad[k]["n"] = "not a number"
        yield f"schema-{k}", schema_bad, SchemaError
        clash_existing = [dict(row) for row in good]
        clash_existing[k]["k"] = "k3"
        yield f"unique-existing-{k}", clash_existing, IntegrityError
        if k:
            clash_batch = [dict(row) for row in good]
            clash_batch[k]["k"] = clash_batch[0]["k"]
            yield f"unique-in-batch-{k}", clash_batch, IntegrityError
        # ix_tags cannot key a nested object; the unique and hash
        # indexes of that row come first in index order.
        unindexable = [dict(row) for row in good]
        unindexable[k]["tags"] = ["y", {"x": 1}]
        yield f"inverted-element-{k}", unindexable, SchemaError


@pytest.mark.parametrize("mode", ["autocommit", "pinned", "transaction"])
@pytest.mark.parametrize("name,batch,error",
                         list(bad_batches()),
                         ids=[name for name, _, _ in bad_batches()])
def test_refused_insert_many_leaves_nothing(mode, name, batch, error):
    db = seeded_db()
    table = db.table("t")
    before, csn = state(table), db._mvcc.csn
    if mode == "transaction":
        db.begin()
        table.insert({"k": "kept", "n": 9})
        inside, undo = state(table), len(db._mvcc.current_txn().undo)
        with pytest.raises(error):
            table.insert_many(batch)
        assert state(table) == inside
        assert len(db._mvcc.current_txn().undo) == undo
        db.commit()
        assert sorted(r["k"] for r in table.scan()) == sorted(
            [row["k"] for row in SEED_ROWS] + ["kept"])
        assert [op["op"] for op in db.ops] == [TXN_BEGIN, "insert",
                                              TXN_COMMIT]
        return
    with PinnedView(db) if mode == "pinned" else contextlib.nullcontext():
        with pytest.raises(error):
            table.insert_many(batch)
        assert state(table) == before
        assert db._mvcc.csn == csn
    assert db.ops == []
    assert table.check_consistency() == []
    # The ids the refused statement would have taken are still free.
    assert table.insert_many([{"k": "after", "n": 0},
                              {"k": "after2", "n": 0}]) == [6, 7]


class RecordingHeap(dict):
    """A row heap that records every row id stored into it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.stored = []

    def __setitem__(self, row_id, row):
        self.stored.append(row_id)
        super().__setitem__(row_id, row)


@pytest.mark.parametrize("name,batch,error",
                         [case for case in bad_batches()
                          if not case[0].startswith("schema")],
                         ids=[name for name, _, _ in bad_batches()
                              if not name.startswith("schema")])
def test_refused_insert_many_never_links_a_row(name, batch, error):
    """A lock-free reader outside any view walks the heap; a statement a
    unique or inverted index refuses must not put a row there even for a
    moment."""
    table = seeded_db().table("t")
    table._rows = heap = RecordingHeap(table._rows)
    with pytest.raises(error):
        table.insert_many(batch)
    assert heap.stored == []


@pytest.mark.parametrize("k", range(5))
def test_delete_conflict_on_kth_row_deletes_nothing(k):
    db = seeded_db()
    table = db.table("t")
    db.begin()
    undo = len(db._mvcc.current_txn().undo)

    def commit_elsewhere():
        (row_id,) = table.row_ids_where(col("k") == f"k{k}")
        table.update(row_id, {"n": 100})

    thread = threading.Thread(target=commit_elsewhere)
    thread.start()
    thread.join(30)
    before = state(table)
    with pytest.raises(TransactionConflictError):
        table.delete(col("part") == "p")
    assert state(table) == before
    assert len(db._mvcc.current_txn().undo) == undo
    db.rollback()
    assert table.count() == len(SEED_ROWS)
    assert table.check_consistency() == []


def test_update_where_is_one_statement():
    db = seeded_db()
    table = db.table("t")
    csn = db._mvcc.csn
    assert table.update_where(col("n") >= 3, {"part": "q", "n": 7}) == 2
    assert db._mvcc.csn == csn + 1
    assert [op["op"] for op in db.ops] == [TXN_BEGIN, "update", "update",
                                          TXN_COMMIT]
    assert len(db.frames) == 1
    assert sorted(table.row_ids_where(col("part") == "q")) == [4, 5]
    assert table.update_where(col("part") == "nothing", {"n": 0}) == 0
    assert len(db.frames) == 1
    assert table.check_consistency() == []


def bad_updates():
    """(name, predicate, changes, error) for refused update statements."""
    yield "unique-two-matched", col("n") >= 1, {"k": "z"}, IntegrityError
    yield "unique-unmatched", col("n") == 1, {"k": "k3"}, IntegrityError
    yield "unique-null", col("n") == 1, {"k": None}, IntegrityError
    yield "schema", col("n") >= 1, {"n": "not a number"}, SchemaError
    # Moves every indexed key of the matched rows, so a partial apply
    # would strand them under both old and new keys.
    yield ("inverted-element", col("n") >= 1,
           {"part": "z", "tags": ["y", {"x": 1}]}, SchemaError)
    yield ("inverted-element-one-row", col("n") == 1,
           {"k": "z", "part": "z", "tags": ["y", {"x": 1}]}, SchemaError)


@pytest.mark.parametrize("mode", ["autocommit", "pinned", "transaction"])
@pytest.mark.parametrize("name,predicate,changes,error", list(bad_updates()),
                         ids=[case[0] for case in bad_updates()])
def test_refused_update_where_changes_nothing(mode, name, predicate,
                                              changes, error):
    db = seeded_db()
    table = db.table("t")
    before, csn = state(table), db._mvcc.csn
    if mode == "transaction":
        db.begin()
        table.insert({"k": "kept", "n": 9})
        inside, undo = state(table), len(db._mvcc.current_txn().undo)
        with pytest.raises(error):
            table.update_where(predicate, changes)
        assert state(table) == inside
        assert len(db._mvcc.current_txn().undo) == undo
        db.rollback()
        assert state(table)["rows"] == before["rows"]
        return
    with PinnedView(db) if mode == "pinned" else contextlib.nullcontext():
        with pytest.raises(error):
            table.update_where(predicate, changes)
        assert state(table) == before
        assert db._mvcc.csn == csn
    assert db.ops == []
    assert table.check_consistency() == []


def test_refused_inverted_index_adds_nothing():
    db = seeded_db()
    table = db.table("t")
    table.drop_index("ix_tags")
    table.insert({"k": "nested", "part": "p", "tags": ["x", {"y": 1}]})
    db.ops.clear()
    before = state(table)
    with pytest.raises(SchemaError):
        table.create_index("ix_tags", "tags", inverted=True)
    assert state(table) == before
    assert "ix_tags" not in table.indexes
    assert db.ops == []
    assert table.check_consistency() == []


@pytest.mark.parametrize("k", range(5))
def test_update_conflict_on_kth_row_updates_nothing(k):
    db = seeded_db()
    table = db.table("t")
    db.begin()
    undo = len(db._mvcc.current_txn().undo)

    def commit_elsewhere():
        (row_id,) = table.row_ids_where(col("k") == f"k{k}")
        table.update(row_id, {"n": 100})

    thread = threading.Thread(target=commit_elsewhere)
    thread.start()
    thread.join(30)
    before = state(table)
    with pytest.raises(TransactionConflictError):
        table.update_where(col("part") == "p", {"part": "q"})
    assert state(table) == before
    assert len(db._mvcc.current_txn().undo) == undo
    db.rollback()
    assert table.count(col("part") == "p") == len(SEED_ROWS)
    assert table.check_consistency() == []


def test_rolling_back_a_large_delete_sorts_the_heap_once(monkeypatch):
    """Undoing a delete restores rows out of id order; the heap is put
    back in order once per rollback, not once per row (per-row sorting
    is quadratic: a 20,000-row delete took over 30 s to roll back)."""
    db = make_db()
    table = db.table("t")
    table.insert_many({"k": str(i), "n": i % 3} for i in range(300))
    order = list(table.row_ids())
    sorts = []
    original = Table._sort_rows
    monkeypatch.setattr(Table, "_sort_rows",
                        lambda self: (sorts.append(self.name), original(self)))
    db.begin()
    assert table.delete(col("n").in_([0, 2])) == 200
    db.rollback()
    assert sorts == ["t"]
    assert list(table.row_ids()) == order
    assert table.check_consistency() == []


def test_delete_is_refused_under_a_read_view():
    db = seeded_db()
    with db.read_view():
        with pytest.raises(TransactionError):
            db.table("t").delete(col("part") == "p")
    assert db.table("t").count() == len(SEED_ROWS)


# --------------------------------------------------------------------- #
# readers never see part of a statement

def test_read_view_never_sees_part_of_a_statement():
    db = Database("readers")
    table = db.create_table("t", SCHEMA)
    table.create_index("ix_part", "part")
    size = 6
    failures, seen, stop = [], [set(), set()], threading.Event()

    def read(states):
        while not stop.is_set():
            with db.read_view():
                counts = table.group_count("part")
                by_index = {part: len(table.row_ids_where(
                    col("part") == part)) for part in counts}
            states.add(frozenset(counts))
            for part, count in counts.items():
                if count != size or by_index[part] != size:
                    failures.append((part, count, by_index[part]))
            # Leave gaps with no view pinned, so statements also start on
            # the unversioned fast path and a view may open mid-statement.
            time.sleep(0.0002)

    readers = [threading.Thread(target=read, args=(states,))
               for states in seen]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    batch = 0
    try:
        for reader in readers:
            reader.start()
        # Each batch is one insert_many; the batch before it goes in one
        # delete.  Write until both readers saw many committed states.
        while min(len(states) for states in seen) < 20 and batch < 20000:
            table.insert_many({"k": f"{batch}-{i}", "part": f"b{batch}",
                               "n": i} for i in range(size))
            table.delete(col("part") == f"b{batch - 1}")
            batch += 1
    finally:
        stop.set()
        for reader in readers:
            reader.join(30)
        sys.setswitchinterval(old)
    assert failures == []
    assert min(len(states) for states in seen) >= 20
    assert table.count() == size


def held_seals(monkeypatch):
    """Make every autocommit seal wait until ``go`` is set; ``at`` is set
    once a statement has claimed and changed its rows and waits to seal."""
    at, go = threading.Event(), threading.Event()
    original = _WriteTicket.seal

    def seal(ticket, table):
        at.set()
        assert go.wait(timeout=30)
        original(ticket, table)

    monkeypatch.setattr(_WriteTicket, "seal", seal)
    return at, go


def test_index_read_sees_a_row_whose_delete_seals_mid_read(monkeypatch):
    """A delete unlinks its row before a view's index probe and seals
    while the view collects the rows the index may no longer show (dirty
    rows, rows stamped after the snapshot).  A seal stamps the CSN, then
    clears the dirty mark, so reading the stamps first and the dirty
    marks second missed the row; here the seal is forced to land while
    the reader reads the stamps."""
    db = Database("seal")
    table = db.create_table("t", SCHEMA)
    table.create_index("ix_part", "part")
    table.insert_many({"k": str(i), "part": "p", "n": i} for i in range(3))
    at_seal, go_seal = held_seals(monkeypatch)
    sealed, reader = threading.Event(), threading.get_ident()

    class SealingStamps(dict):
        """CSN stamps whose first read by the reader lets the seal land."""

        def items(self):
            items = list(super().items())
            if threading.get_ident() == reader and not go_seal.is_set():
                go_seal.set()
                assert sealed.wait(timeout=30)
            return items

    table._row_csn = SealingStamps(table._row_csn)

    def delete():
        table.delete(col("n") == 1)
        sealed.set()

    with db.read_view():
        deleter = threading.Thread(target=delete)
        deleter.start()
        assert at_seal.wait(timeout=30)
        found = table.row_ids_where(col("part") == "p")
        go_seal.set()
        deleter.join(timeout=30)
        assert sealed.is_set()
        assert len(found) == 3
        assert table.group_count("part") == {"p": 3}
    assert table.group_count("part") == {"p": 2}


def test_view_read_sees_a_row_whose_delete_unlinks_mid_read(monkeypatch):
    """A view reads a row that is neither dirty nor stamped after its
    snapshot from the heap.  A delete that claims and unlinks the row
    between those checks and the heap read, and has not yet bumped the
    table's change stamp, made the read return nothing.  The delete is
    forced to run there and to hold inside its index removal while the
    read finishes."""
    db = Database("unlink")
    table = db.create_table("t", SCHEMA)
    table.create_index("ix_part", "part")
    [row_id] = table.insert_many([{"k": "a", "part": "p", "n": 0}])
    index = table.indexes["ix_part"]
    unlinking, release = threading.Event(), threading.Event()
    reader = threading.get_ident()
    original_remove = index.remove

    def remove(*args):
        unlinking.set()
        assert release.wait(timeout=30)
        original_remove(*args)

    monkeypatch.setattr(index, "remove", remove)
    deleter = threading.Thread(target=table.delete_row, args=(row_id,))

    class DeletingRows(dict):
        """Heap rows whose first read by the reader runs the delete up
        to its index removal."""

        def get(self, key, default=None):
            if threading.get_ident() == reader and not deleter.ident:
                deleter.start()
                assert unlinking.wait(timeout=30)
            return super().get(key, default)

    table._rows = DeletingRows(table._rows)
    try:
        with db.read_view():
            row = table.get(row_id)
            release.set()
            deleter.join(timeout=30)
            assert not deleter.is_alive()
            assert row["k"] == "a"
        assert table.count() == 0
    finally:
        release.set()


@pytest.mark.parametrize("in_transaction", [False, True],
                         ids=["autocommit", "transaction"])
def test_gc_pass_keeps_a_chain_entry_a_claim_appends(monkeypatch,
                                                     in_transaction):
    """A GC pass checks a row (not dirty, stamped at or below the
    watermark) and then deletes its version chain.  A delete that claims
    the row between the two appends the value a pinned view still needs;
    deleting the chain then lost it, and the view missed the row.  The
    pass is paused right after its dirty check until the delete has
    claimed (or 0.5 s went by, as when the pass holds the lock the
    claim needs)."""
    db = Database("gc")
    table = db.create_table("t", SCHEMA)
    [row_id] = table.insert_many([{"k": "a", "part": "p", "n": 0}])
    state = db._mvcc
    old, _ = state.pin()
    table.update(row_id, {"n": 1})  # a chain entry; the stamp is current
    current, _ = state.pin()  # keeps unpin from starting a pass
    state.unpin(old)
    at_seal, go_seal = held_seals(monkeypatch)
    ready, proceed = threading.Event(), threading.Event()
    gc_thread = threading.Thread(target=db.vacuum)

    def delete():
        if in_transaction:
            db.begin()
        ready.set()
        assert proceed.wait(timeout=30)
        table.delete_row(row_id)
        if in_transaction:
            db.commit()

    deleter = threading.Thread(target=delete)

    class PausingDirty(set):
        """Dirty marks whose first check by the GC pass lets the delete
        claim, and waits for it."""

        def __contains__(self, item):
            found = super().__contains__(item)
            if (threading.current_thread() is gc_thread
                    and not proceed.is_set()):
                proceed.set()
                at_seal.wait(timeout=0.5)
            return found

    table._dirty = PausingDirty(table._dirty)
    try:
        with db.read_view():
            deleter.start()
            assert ready.wait(timeout=30)
            gc_thread.start()
            gc_thread.join(timeout=30)
            assert proceed.is_set()  # the pass reached the row
            go_seal.set()
            deleter.join(timeout=30)
            assert not deleter.is_alive() and not gc_thread.is_alive()
            assert table.select(col("part") == "p") == [
                {"k": "a", "part": "p", "tags": None, "n": 1}]
        assert table.count() == 0
    finally:
        go_seal.set()
        proceed.set()
        state.unpin(current)


# --------------------------------------------------------------------- #
# IN on an indexed column

def test_in_on_an_indexed_column_does_not_scan():
    db = Database("in")
    table = db.create_table("t", SCHEMA)
    table.create_index("ix_part", "part")
    table.insert_many({"k": str(i), "part": f"p{i % 50}", "n": i}
                      for i in range(500))
    seen = []
    spy = Lambda(lambda row: seen.append(row["k"]) or True)
    predicate = col("part").in_(["p1", "p2", "p2"]) & spy
    assert table.explain(predicate) == {
        "access": "hash_index", "index": "ix_part", "column": "part",
        "rows_examined": 20}
    assert len(table.select(predicate)) == 20
    assert len(seen) == 20  # only the index's rows were read
    seen.clear()
    with db.read_view():  # the snapshot path probes the index too
        assert len(table.row_ids_where(predicate)) == 20
    assert len(seen) == 20
    seen.clear()
    assert table.delete(col("part").in_(["p3", "p4"]) & spy) == 20
    assert len(seen) == 20


@pytest.mark.parametrize("predicate", [col("part").in_([None, "p1"]),
                                       col("part") == None])  # noqa: E711
def test_null_bindings_scan_rather_than_miss_null_rows(predicate):
    """A hash index holds no NULLs, so a predicate NULL satisfies scans."""
    db = Database("nulls")
    table = db.create_table("t", SCHEMA)
    table.create_index("ix_part", "part")
    ids = table.insert_many({"k": str(i), "part": None if i % 3 else "p1",
                             "n": i} for i in range(9))
    expected = [row_id for row_id in ids if predicate(table.get(row_id))]
    assert len(expected) >= 6  # the six NULL rows at least
    assert table.explain(predicate)["access"] == "full_scan"
    assert table.row_ids_where(predicate) == expected
    with db.read_view():
        assert table.row_ids_where(predicate) == expected


_in_rows = st.lists(st.fixed_dictionaries({
    "k": st.text(alphabet="abcdef", min_size=1, max_size=3),
    "part": st.sampled_from(["a", "b", "c", "d", None]),
    "n": st.integers(0, 3)}), max_size=25)
_in_values = st.sets(st.sampled_from(["a", "b", "c", "d", "zz", None]),
                     max_size=4)
_changes = st.lists(st.tuples(st.sampled_from(["insert", "update", "delete"]),
                              st.integers(0, 30),
                              st.sampled_from(["a", "b", "c", "d"])),
                    max_size=8)


def _twin(indexed):
    db = Database("twin")
    table = db.create_table("t", Schema.build([("k", "text"),
                                               ("part", "text"),
                                               ("n", "integer")]))
    if indexed:
        table.create_index("ix_part", "part")
    return db, table


def _apply(table, changes):
    for kind, pick, part in changes:
        ids = sorted(table.row_ids())
        try:
            if kind == "insert" or not ids:
                table.insert({"k": f"new{pick}", "part": part, "n": pick % 4})
            elif kind == "update":
                table.update(ids[pick % len(ids)], {"part": part})
            else:
                table.delete_row(ids[pick % len(ids)])
        except TransactionConflictError:
            continue  # a row the other thread committed after our snapshot


@settings(max_examples=60, deadline=None)
@given(_in_rows, _in_values, _changes, _changes)
def test_in_through_the_index_equals_a_scan(rows, values, theirs, ours):
    """Same ids and rows through the index as through a full scan, on
    current state, and inside a transaction whose snapshot another
    thread's commits moved past and which then made its own writes."""
    predicate = col("part").in_(values) & (col("n") >= 1)
    answers = []
    for indexed in (True, False):
        db, table = _twin(indexed)
        table.insert_many(rows)
        current = (table.row_ids_where(predicate),
                   sorted(map(repr, table.select(predicate))))
        db.begin()
        thread = threading.Thread(target=_apply, args=(table, theirs))
        thread.start()
        thread.join(30)
        _apply(table, ours)
        snapshot = (table.row_ids_where(predicate),
                    sorted(map(repr, table.select(predicate))),
                    table.count(predicate))
        db.rollback()
        assert table.check_consistency() == []
        answers.append((current, snapshot))
    assert answers[0] == answers[1]


# --------------------------------------------------------------------- #
# WAL frames and recovery

def wal_db(directory):
    db, report = open_database(directory)
    if not db.has_table("t"):
        table = db.create_table("t", SCHEMA)
        table.create_index("ux_k", "k", unique=True)
    return db, report


def rows_by_id(table):
    return {row_id: table.get(row_id) for row_id in table.row_ids()}


@pytest.mark.faults
@pytest.mark.parametrize("seed", [11, 23, 37, 51, 68])
@pytest.mark.parametrize("statement", ["insert_many", "delete"])
def test_torn_statement_frame_recovers_none_of_it(tmp_path, seed, statement):
    rng = random.Random(seed)
    directory = tmp_path / "store"
    db, _ = wal_db(directory)
    table = db.table("t")
    table.insert_many({"k": f"base{i}", "part": "p", "n": i}
                      for i in range(rng.randint(2, 5)))
    survivors = rows_by_id(table)
    wal_path = directory / WAL_NAME
    safe_length = len(wal_path.read_bytes())
    if statement == "insert_many":
        table.insert_many({"k": f"doomed{i}", "part": "q", "n": i}
                          for i in range(rng.randint(2, 6)))
    else:
        assert table.delete(col("part") == "p") == len(survivors)
    data = wal_path.read_bytes()
    # The frame's txn_begin record reached the disk; its txn_commit did
    # not.  The cut never reaches back past the first line of the frame.
    begin_end = data.index(b"\n", safe_length) + 1
    cut = rng.randrange(1, len(data) - begin_end)
    db._wal.close()
    wal_path.write_bytes(data[:len(data) - cut])

    reopened, report = wal_db(directory)
    try:
        assert rows_by_id(reopened.table("t")) == survivors
        assert report.wal_uncommitted_dropped + \
            report.wal_torn_tail_discarded >= 1
        assert reopened.check_consistency() == []
    finally:
        reopened._wal.close()


@pytest.mark.faults
@pytest.mark.parametrize("seed", [11, 23, 37, 51, 68])
def test_complete_statement_frame_recovers_all_of_it(tmp_path, seed):
    rng = random.Random(seed)
    directory = tmp_path / "store"
    db, _ = wal_db(directory)
    table = db.table("t")
    wal = db._wal
    for batch in range(rng.randint(1, 4)):
        fsyncs = wal.fsyncs
        table.insert_many({"k": f"{batch}-{i}", "part": f"b{batch % 2}",
                           "n": i} for i in range(rng.randint(2, 6)))
        assert wal.fsyncs == fsyncs + 1  # one frame, one fsync
        if batch % 2:
            table.delete(col("part") == "b0")
    expected = rows_by_id(table)
    wal.close()

    reopened, report = wal_db(directory)
    try:
        assert rows_by_id(reopened.table("t")) == expected
        assert report.clean
        assert reopened.check_consistency() == []
    finally:
        reopened._wal.close()


def write_history(db):
    """The statements behind ``fixtures/wal_before_statement_frames.jsonl``.

    That log was written by running this function on the store as it was
    before multi-row statements were framed: every row of an autocommit
    ``insert_many`` or ``delete`` is a bare op there.
    """
    table = db.create_table("t", SCHEMA)
    table.create_index("ux_k", "k", unique=True)
    table.create_index("ix_part", "part")
    table.insert_many([{"k": f"k{i}", "part": "ab"[i % 2], "n": i}
                       for i in range(6)])
    table.delete(col("part") == "a")
    table.insert({"k": "single", "part": "c", "n": 10})
    (row_id,) = table.row_ids_where(col("k") == "k1")
    table.update(row_id, {"n": 11})
    with db.transaction():
        table.insert_many([{"k": f"t{i}", "part": "d", "n": i}
                           for i in range(3)])
        table.delete(col("k") == "t1")
    table.insert_many([{"k": "last0", "part": "e", "n": 0},
                       {"k": "last1", "part": "e", "n": 1}])


def test_wal_written_before_statement_frames_replays_the_same(tmp_path):
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    old_dir.mkdir()
    shutil.copy(FIXTURES / "wal_before_statement_frames.jsonl",
                old_dir / WAL_NAME)
    old_records = replay_wal_file(old_dir / WAL_NAME).records
    assert [op["op"] for op in old_records].count(TXN_BEGIN) == 1

    db, _ = open_database(new_dir)
    write_history(db)
    expected = rows_by_id(db.table("t"))
    db._wal.close()
    new_records = replay_wal_file(new_dir / WAL_NAME).records
    assert [op["op"] for op in new_records].count(TXN_BEGIN) == 4
    assert unframed(new_records) == unframed(old_records)

    for directory in (old_dir, new_dir):
        reopened, report = open_database(directory)
        try:
            assert report.clean
            assert rows_by_id(reopened.table("t")) == expected
            assert reopened.table("t")._next_row_id == \
                db.table("t")._next_row_id
        finally:
            reopened._wal.close()
