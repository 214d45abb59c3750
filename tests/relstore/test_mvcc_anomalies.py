"""The isolation-anomaly battery for MVCC snapshot isolation.

Each classic anomaly gets a named test showing it prevented — or, for
write skew (which snapshot isolation famously permits), a test
*documenting* that it is allowed, so the isolation level's edge is
pinned down rather than discovered in production:

=====================  ==========================================
anomaly                under ``Database.transaction()``
=====================  ==========================================
dirty read             prevented (readers see committed versions)
non-repeatable read    prevented (stable per-transaction snapshot)
lost update            prevented (first committer wins ->
                       ``TransactionConflictError``)
write skew             ALLOWED — snapshot isolation, not
                       serializable; documented below
=====================  ==========================================

Also here: savepoint semantics, read views, the public
``Table.remove_row`` inverse API, the delete-rollback row-id
regression, the concurrent-reader stress test, and hypothesis
properties for serial equivalence and version-chain GC.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relstore import (Database, QueryError, Schema,
                            TransactionConflictError, TransactionError, col)
from repro.relstore.table import Table

SCHEMA = [("k", "text"), ("n", "integer")]


def make_db(rows=()):
    db = Database("anomalies")
    table = db.create_table("t", Schema.build(SCHEMA))
    for row in rows:
        table.insert(row)
    return db


def in_thread(fn):
    """Run *fn* to completion on another thread, re-raising its error."""
    box = {}

    def runner():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "helper thread deadlocked"
    if "error" in box:
        raise box["error"]
    return box.get("value")


def rows_by_k(table):
    return {row["k"]: row["n"] for row in table.scan()}


class TestDirtyRead:
    def test_uncommitted_insert_is_invisible_to_other_threads(self):
        db = make_db([{"k": "a", "n": 1}])
        table = db.table("t")
        writer_holds = threading.Event()
        release_writer = threading.Event()

        def writer():
            with pytest.raises(RuntimeError):
                with db.transaction():
                    table.insert({"k": "dirty", "n": 99})
                    table.update(next(iter(table.row_ids())), {"n": 42})
                    writer_holds.set()
                    assert release_writer.wait(timeout=30)
                    raise RuntimeError("forced rollback")

        thread = threading.Thread(target=writer)
        thread.start()
        assert writer_holds.wait(timeout=30)
        try:
            # A plain reader on another thread: no dirty row, no dirty
            # update — only the committed state.
            assert rows_by_k(table) == {"a": 1}
            with db.read_view():
                assert table.count() == 1
                assert rows_by_k(table) == {"a": 1}
        finally:
            release_writer.set()
            thread.join(timeout=30)
        assert rows_by_k(table) == {"a": 1}

    def test_uncommitted_delete_still_visible_to_readers(self):
        db = make_db([{"k": "a", "n": 1}, {"k": "b", "n": 2}])
        table = db.table("t")
        writer_holds = threading.Event()
        release_writer = threading.Event()

        def writer():
            db.begin()
            table.delete(col("k") == "b")
            writer_holds.set()
            assert release_writer.wait(timeout=30)
            db.rollback()

        thread = threading.Thread(target=writer)
        thread.start()
        assert writer_holds.wait(timeout=30)
        try:
            assert rows_by_k(table) == {"a": 1, "b": 2}
        finally:
            release_writer.set()
            thread.join(timeout=30)
        assert rows_by_k(table) == {"a": 1, "b": 2}


class TestNonRepeatableRead:
    def test_snapshot_is_stable_across_concurrent_commit(self):
        db = make_db([{"k": "a", "n": 1}])
        table = db.table("t")
        row_id = next(iter(table.row_ids()))
        db.begin()
        assert table.get(row_id)["n"] == 1
        in_thread(lambda: table.update(row_id, {"n": 2}))  # autocommits
        # Same query, same transaction, same answer — even though the
        # update is durably committed by now.
        assert table.get(row_id)["n"] == 1
        assert rows_by_k(table) == {"a": 1}
        db.commit()
        assert table.get(row_id)["n"] == 2

    def test_phantoms_do_not_appear_mid_transaction(self):
        db = make_db([{"k": "a", "n": 1}])
        table = db.table("t")
        db.begin()
        assert table.count() == 1
        in_thread(lambda: table.insert({"k": "phantom", "n": 9}))
        assert table.count() == 1
        assert [row["k"] for row in table.scan()] == ["a"]
        db.commit()
        assert table.count() == 2


class TestLostUpdate:
    def test_first_committer_wins_second_raises(self):
        db = make_db([{"k": "counter", "n": 0}])
        table = db.table("t")
        row_id = next(iter(table.row_ids()))
        db.begin()
        mine = table.get(row_id)["n"]

        def other():
            with db.transaction():
                theirs = table.get(row_id)["n"]
                table.update(row_id, {"n": theirs + 1})

        in_thread(other)  # the other transaction commits first
        with pytest.raises(TransactionConflictError):
            table.update(row_id, {"n": mine + 1})
        db.rollback()
        # The first committer's increment survives; nothing was lost.
        assert table.get(row_id)["n"] == 1

    def test_conflict_applies_to_delete_and_reinsert_too(self):
        db = make_db([{"k": "a", "n": 1}])
        table = db.table("t")
        row_id = next(iter(table.row_ids()))
        db.begin()
        table.get(row_id)
        in_thread(lambda: table.delete_row(row_id))
        with pytest.raises(TransactionConflictError):
            table.delete_row(row_id)
        db.rollback()

    def test_disjoint_rows_do_not_conflict(self):
        db = make_db([{"k": "a", "n": 1}, {"k": "b", "n": 2}])
        table = db.table("t")
        ids = sorted(table.row_ids())
        db.begin()
        in_thread(lambda: table.update(ids[1], {"n": 20}))
        table.update(ids[0], {"n": 10})  # different row: no conflict
        db.commit()
        assert rows_by_k(table) == {"a": 10, "b": 20}


class TestWriteSkew:
    def test_write_skew_is_allowed_and_documented(self):
        """Snapshot isolation permits write skew: two transactions each
        read both rows, then write *different* rows based on what they
        read.  Neither write set intersects, so first-committer-wins
        never fires, and a cross-row invariant (here: at least one row
        keeps ``n >= 1``) can be violated.  Applications needing that
        invariant must materialize the conflict — e.g. update a common
        row — rather than rely on the store.  This test pins the
        behavior so a future change to serializable isolation shows up
        as a deliberate test update, not a silent semantic shift.
        """
        db = make_db([{"k": "x", "n": 1}, {"k": "y", "n": 1}])
        table = db.table("t")
        ids = {table.get(rid)["k"]: rid for rid in table.row_ids()}
        db.begin()
        assert sum(row["n"] for row in table.scan()) >= 1

        def other():
            with db.transaction():
                assert sum(row["n"] for row in table.scan()) >= 1
                table.update(ids["y"], {"n": 0})

        in_thread(other)
        table.update(ids["x"], {"n": 0})  # disjoint write: no conflict
        db.commit()  # both committed — the invariant is gone
        assert sum(row["n"] for row in table.scan()) == 0


class TestSavepoints:
    def test_rollback_to_savepoint_keeps_earlier_work(self):
        db = make_db()
        table = db.table("t")
        with db.transaction():
            table.insert({"k": "keep", "n": 1})
            db.savepoint("sp")
            doomed = table.insert({"k": "doomed", "n": 2})
            table.update(doomed, {"n": 3})
            db.rollback_to_savepoint("sp")
            assert rows_by_k(table) == {"keep": 1}
        assert rows_by_k(table) == {"keep": 1}

    def test_savepoint_survives_its_own_rollback(self):
        db = make_db([{"k": "a", "n": 1}])
        table = db.table("t")
        row_id = next(iter(table.row_ids()))
        with db.transaction():
            db.savepoint("sp")
            table.update(row_id, {"n": 2})
            db.rollback_to_savepoint("sp")
            table.update(row_id, {"n": 3})
            db.rollback_to_savepoint("sp")  # still addressable
            assert table.get(row_id)["n"] == 1
        assert table.get(row_id)["n"] == 1

    def test_release_keeps_changes_but_forgets_the_mark(self):
        db = make_db()
        table = db.table("t")
        with db.transaction():
            db.savepoint("sp")
            table.insert({"k": "kept", "n": 1})
            db.release_savepoint("sp")
            with pytest.raises(TransactionError):
                db.rollback_to_savepoint("sp")
        assert rows_by_k(table) == {"kept": 1}

    def test_rollback_to_destroys_later_savepoints(self):
        db = make_db()
        table = db.table("t")
        with db.transaction():
            db.savepoint("outer")
            table.insert({"k": "a", "n": 1})
            db.savepoint("inner")
            table.insert({"k": "b", "n": 2})
            db.rollback_to_savepoint("outer")
            with pytest.raises(TransactionError):
                db.rollback_to_savepoint("inner")
        assert rows_by_k(table) == {}

    def test_savepoint_journal_ops_are_discarded_too(self):
        db = make_db()
        table = db.table("t")
        journal = []
        db.set_journal(journal.append)
        with db.transaction():
            table.insert({"k": "kept", "n": 1})
            db.savepoint("sp")
            table.insert({"k": "dropped", "n": 2})
            db.rollback_to_savepoint("sp")
        assert [op["op"] for op in journal] == ["insert"]
        assert journal[0]["row"]["k"] == "kept"

    def test_savepoint_requires_transaction_and_valid_name(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db.savepoint("sp")
        with db.transaction():
            with pytest.raises(TransactionError):
                db.savepoint("not a name")
            with pytest.raises(TransactionError):
                db.release_savepoint("missing")


class TestSqlTransactionControl:
    def test_begin_commit_via_sql(self):
        from repro.relstore import execute
        db = make_db()
        execute(db, "BEGIN")
        execute(db, "INSERT INTO t (k, n) VALUES ('a', 1)")
        assert db.in_transaction
        execute(db, "COMMIT")
        assert rows_by_k(db.table("t")) == {"a": 1}

    def test_rollback_and_savepoints_via_sql(self):
        from repro.relstore import execute
        db = make_db()
        execute(db, "BEGIN TRANSACTION")
        execute(db, "INSERT INTO t (k, n) VALUES ('keep', 1)")
        execute(db, "SAVEPOINT sp")
        execute(db, "INSERT INTO t (k, n) VALUES ('drop', 2)")
        execute(db, "ROLLBACK TO SAVEPOINT sp")
        execute(db, "RELEASE SAVEPOINT sp")
        execute(db, "COMMIT")
        assert rows_by_k(db.table("t")) == {"keep": 1}

    def test_plain_rollback_via_sql(self):
        from repro.relstore import execute
        db = make_db([{"k": "a", "n": 1}])
        execute(db, "BEGIN WORK")
        execute(db, "DELETE FROM t")
        execute(db, "ROLLBACK")
        assert rows_by_k(db.table("t")) == {"a": 1}


class TestRemoveRow:
    """The public physical inverse of ``insert`` (used by undo replay)."""

    def test_remove_row_returns_the_removed_values(self):
        db = make_db()
        table = db.table("t")
        row_id = table.insert({"k": "a", "n": 1})
        removed = table.remove_row(row_id)
        assert removed == {"k": "a", "n": 1}
        assert table.count() == 0
        with pytest.raises(QueryError):
            table.get(row_id)

    def test_remove_row_maintains_indexes(self):
        db = make_db()
        table = db.table("t")
        table.create_index("ix_k", "k")
        row_id = table.insert({"k": "a", "n": 1})
        table.remove_row(row_id)
        assert list(table.index_for("k").lookup("a")) == []
        assert table.check_consistency() == []

    def test_remove_row_unknown_id_raises(self):
        db = make_db()
        with pytest.raises(QueryError):
            db.table("t").remove_row(123)

    def test_remove_row_is_not_journaled(self):
        db = make_db()
        table = db.table("t")
        journal = []
        db.set_journal(journal.append)
        row_id = table.insert({"k": "a", "n": 1})
        table.remove_row(row_id)
        assert [op["op"] for op in journal] == ["insert"]


class TestDeleteRollbackRegression:
    """Rolling back a delete must restore rows under their *original*
    row ids with byte-identical index candidate ordering — reinserting
    under fresh ids would silently reorder every id-ordered scan and
    candidate list downstream (the classifier's tie-break depends on
    it)."""

    def test_row_ids_identical_after_rollback(self):
        db = make_db([{"k": "a", "n": 1}, {"k": "b", "n": 2},
                      {"k": "a", "n": 3}, {"k": "c", "n": 4}])
        table = db.table("t")
        before_ids = list(table.row_ids())
        before_rows = [table.get(rid) for rid in before_ids]
        db.begin()
        assert table.delete(col("k") == "a") == 2
        db.rollback()
        assert list(table.row_ids()) == before_ids
        assert [table.get(rid) for rid in before_ids] == before_rows

    def test_index_candidate_ordering_identical_after_rollback(self):
        db = make_db()
        table = db.table("t")
        table.create_index("ix_k", "k")
        for i in range(8):
            table.insert({"k": "dup" if i % 2 else "other", "n": i})
        index = table.index_for("k")
        before = list(index.lookup("dup"))
        before_select = table.select(col("k") == "dup")
        db.begin()
        table.delete(col("k") == "dup")
        assert table.select(col("k") == "dup") == []
        db.rollback()
        assert list(index.lookup("dup")) == before
        assert table.select(col("k") == "dup") == before_select
        assert table.check_consistency() == []

    def test_database_level_delete_helper_rolls_back_identically(self):
        db = make_db([{"k": "a", "n": 1}, {"k": "b", "n": 2}])
        before = list(db.table("t").row_ids())
        db.begin()
        db.delete("t", col("k") == "a")
        db.rollback()
        assert list(db.table("t").row_ids()) == before

    def test_new_inserts_after_rollback_do_not_reuse_ids(self):
        db = make_db([{"k": "a", "n": 1}])
        table = db.table("t")
        old_id = next(iter(table.row_ids()))
        db.begin()
        table.delete_row(old_id)
        db.rollback()
        fresh = table.insert({"k": "z", "n": 9})
        assert fresh > old_id


class TestReadView:
    def test_read_view_is_stable_and_reentrant(self):
        db = make_db([{"k": "a", "n": 1}])
        table = db.table("t")
        with db.read_view():
            with db.read_view():  # reentrant
                in_thread(lambda: table.insert({"k": "b", "n": 2}))
                assert rows_by_k(table) == {"a": 1}
            assert rows_by_k(table) == {"a": 1}
        assert rows_by_k(table) == {"a": 1, "b": 2}

    def test_read_view_is_read_only(self):
        db = make_db()
        with db.read_view():
            with pytest.raises(TransactionError):
                db.table("t").insert({"k": "a", "n": 1})

    def test_vacuum_prunes_chains_after_views_close(self):
        db = make_db([{"k": "a", "n": 0}])
        table = db.table("t")
        row_id = next(iter(table.row_ids()))
        with db.read_view():
            for n in range(1, 5):
                in_thread(lambda n=n: table.update(row_id, {"n": n}))
            assert table.get(row_id)["n"] == 0
            assert db.mvcc_stats()["version_entries"] > 0
        db.vacuum()
        assert db.mvcc_stats()["version_entries"] == 0
        assert table.get(row_id)["n"] == 4

    def test_a_pass_with_no_pin_leaves_nothing_to_collect(self, monkeypatch):
        """A commit counts its CSN stamps as garbage, but a pass took off
        only the chain entries it pruned, so the count never went back
        to zero and every read view's exit ran a full pass."""
        db = make_db()
        table = db.table("t")
        with db.transaction():
            table.insert({"k": "a", "n": 1})
        passes = []
        original = Table._gc_versions
        monkeypatch.setattr(Table, "_gc_versions", lambda self, watermark: (
            passes.append(watermark), original(self, watermark))[1])
        for _ in range(3):
            with db.read_view():
                assert rows_by_k(table) == {"a": 1}
        assert passes == []
        assert db._mvcc._garbage == 0
        assert db.mvcc_stats()["version_entries"] == 0

    def test_concurrent_gc_passes_do_not_delete_a_chain_twice(self):
        """Regression: two GC passes (each ``unpin`` may start one) both
        reached ``del`` for the same version chain, and the second raised
        ``KeyError`` out of whatever call ended the transaction.  The
        first pass is held just before its first deletion while a second
        pass runs; the second must skip, and the first must finish."""
        db = make_db([{"k": "a", "n": 0}, {"k": "b", "n": 0}])
        table = db.table("t")
        state = db._mvcc
        old, _ = state.pin()
        for row_id in list(table.row_ids()):
            table.update(row_id, {"n": 1})
        current, _ = state.pin()  # keeps GC from running on unpin
        state.unpin(old)
        assert db.mvcc_stats()["version_entries"] == 2

        class PausingChains(dict):
            """Version chains whose first deletion waits to be resumed."""

            paused, resume = threading.Event(), threading.Event()

            def __delitem__(self, row_id):
                if not self.paused.is_set():
                    self.paused.set()
                    assert self.resume.wait(timeout=30)
                super().__delitem__(row_id)

        chains = table._versions = PausingChains(table._versions)
        first = {}

        def first_pass():
            try:
                first["pruned"] = db.vacuum()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                first["error"] = exc

        thread = threading.Thread(target=first_pass)
        thread.start()
        assert chains.paused.wait(timeout=30)
        second = in_thread(db.vacuum)
        chains.resume.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert "error" not in first, first.get("error")
        assert (first["pruned"], second) == (2, 0)
        assert db.mvcc_stats()["version_entries"] == 0
        state.unpin(current)
        assert rows_by_k(table) == {"a": 1, "b": 1}
        assert db.check_consistency() == []


class TestConcurrentReaderStress:
    def test_readers_never_see_uncommitted_rows(self):
        """N reader threads scan under read views while a writer
        transaction inserts, updates and rolls back; no reader ever
        observes an uncommitted row, and the physical state stays
        index-consistent between transactions."""
        db = make_db()
        table = db.table("t")
        table.create_index("ix_k", "k")
        for i in range(10):
            table.insert({"k": f"base{i}", "n": 0})
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    with db.read_view():
                        rows = list(table.scan())
                        count = table.count()
                        if len(rows) != count:
                            failures.append(
                                f"torn scan: {len(rows)} != {count}")
                        for row in rows:
                            if row["k"].startswith("uncommitted"):
                                failures.append(f"dirty row {row!r}")
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append(repr(exc))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for round_no in range(30):
                if round_no % 2:
                    db.begin()
                    doomed = table.insert(
                        {"k": f"uncommitted{round_no}", "n": round_no})
                    table.update(doomed, {"n": -1})
                    db.rollback()
                else:
                    with db.transaction():
                        table.insert(
                            {"k": f"committed{round_no}", "n": round_no})
                assert db.check_consistency() == []
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        assert failures == []
        committed = [row for row in table.scan()
                     if row["k"].startswith("committed")]
        assert len(committed) == 15


@settings(deadline=None, max_examples=40)
@given(st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=-100, max_value=100)),
    max_size=12),
    st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=-100, max_value=100)),
    max_size=12))
def test_committed_interleavings_are_serially_equivalent(ops_a, ops_b):
    """Two transactions over disjoint key ranges, with their operations
    interleaved at the statement level, must commit to exactly the state
    of running transaction A then transaction B serially — snapshot
    isolation over disjoint write sets is serializable."""

    def apply_ops(table, ops, prefix):
        ids = {}
        for action, key, value in ops:
            name = f"{prefix}{key}"
            if action == "insert" and name not in ids:
                ids[name] = table.insert({"k": name, "n": value})
            elif action == "update" and name in ids:
                table.update(ids[name], {"n": value})
            elif action == "delete" and name in ids:
                table.delete_row(ids.pop(name))

    serial = make_db()
    apply_ops(serial.table("t"), ops_a, "a")
    apply_ops(serial.table("t"), ops_b, "b")

    interleaved = make_db()
    table = interleaved.table("t")
    barrier_a = threading.Event()
    barrier_b = threading.Event()

    def txn_a():
        with interleaved.transaction():
            apply_ops(table, ops_a, "a")
            barrier_a.set()  # writes applied, still uncommitted
            assert barrier_b.wait(timeout=30)

    def txn_b():
        assert barrier_a.wait(timeout=30)
        # B begins while A's writes are pending, reads the pre-A
        # snapshot, and queues its own (disjoint) writes.
        with interleaved.transaction():
            snapshot_keys = {row["k"] for row in table.scan()}
            assert not any(k.startswith("a") for k in snapshot_keys)
            barrier_b.set()  # releases A to commit first
            apply_ops(table, ops_b, "b")

    threads = [threading.Thread(target=txn_a),
               threading.Thread(target=txn_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert rows_by_k(table) == rows_by_k(serial.table("t"))
    assert interleaved.check_consistency() == []


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=20))
def test_version_chain_gc_reclaims_everything_and_keeps_answers(values):
    """Any sequence of committed updates leaves a fully collectable
    version chain: with no snapshot pinned, ``vacuum()`` drops every
    entry, and reads before/after GC agree on the latest value."""
    db = make_db([{"k": "a", "n": 0}])
    table = db.table("t")
    row_id = next(iter(table.row_ids()))
    for value in values:
        with db.transaction():
            table.update(row_id, {"n": value})
    assert table.get(row_id)["n"] == values[-1]
    db.vacuum()
    assert db.mvcc_stats()["version_entries"] == 0
    assert table.get(row_id)["n"] == values[-1]
    assert db.check_consistency() == []
