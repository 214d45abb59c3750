"""Unit tests for the database object and transactions."""

import pytest

from repro.relstore.database import Database
from repro.relstore.errors import QueryError, SchemaError, TransactionError
from repro.relstore.predicate import col
from repro.relstore.types import Schema


@pytest.fixture
def db():
    database = Database("quality")
    database.create_table("codes", Schema.build(
        [("code", "text"), ("part_id", "text"), ("n", "integer")]))
    return database


class TestCatalog:
    def test_create_and_lookup(self, db):
        assert db.has_table("codes")
        assert "codes" in db
        assert db.table("codes").name == "codes"
        assert db.table_names() == ["codes"]

    def test_create_duplicate(self, db):
        with pytest.raises(SchemaError):
            db.create_table("codes", Schema.build([("a", "text")]))
        same = db.create_table("codes", Schema.build([("a", "text")]),
                               if_not_exists=True)
        assert same is db.table("codes")

    def test_drop(self, db):
        db.drop_table("codes")
        assert not db.has_table("codes")
        with pytest.raises(QueryError):
            db.drop_table("codes")
        db.drop_table("codes", if_exists=True)

    def test_unknown_table(self, db):
        with pytest.raises(QueryError, match="no table"):
            db.table("nope")


class TestTransactions:
    def test_commit_keeps_changes(self, db):
        with db.transaction():
            db.insert("codes", {"code": "E1", "part_id": "P1", "n": 1})
        assert db.table("codes").count() == 1

    def test_exception_rolls_back_insert(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("codes", {"code": "E1", "part_id": "P1", "n": 1})
                raise RuntimeError("boom")
        assert db.table("codes").count() == 0

    def test_rollback_restores_update(self, db):
        row_id = db.insert("codes", {"code": "E1", "part_id": "P1", "n": 1})
        db.begin()
        db.update("codes", row_id, {"n": 99})
        db.rollback()
        assert db.table("codes").get(row_id)["n"] == 1

    def test_rollback_restores_delete(self, db):
        db.insert("codes", {"code": "E1", "part_id": "P1", "n": 1})
        db.insert("codes", {"code": "E2", "part_id": "P1", "n": 2})
        db.begin()
        assert db.delete("codes", col("part_id") == "P1") == 2
        assert db.table("codes").count() == 0
        db.rollback()
        assert db.table("codes").count() == 2

    def test_rollback_removes_created_table(self, db):
        db.begin()
        db.create_table("tmp", Schema.build([("a", "text")]))
        db.rollback()
        assert not db.has_table("tmp")

    def test_rollback_restores_dropped_table(self, db):
        db.insert("codes", {"code": "E1", "part_id": "P1", "n": 1})
        db.begin()
        db.drop_table("codes")
        db.rollback()
        assert db.table("codes").count() == 1

    def test_rollback_insert_cleans_indexes(self, db):
        db.table("codes").create_index("ix_part", "part_id")
        db.begin()
        db.insert("codes", {"code": "E1", "part_id": "P1", "n": 1})
        db.rollback()
        assert db.table("codes").select(col("part_id") == "P1") == []

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.commit()

    def test_commit_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_rollback_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.rollback()

    def test_in_transaction_flag(self, db):
        assert not db.in_transaction
        db.begin()
        assert db.in_transaction
        db.commit()
        assert not db.in_transaction

    def test_mixed_operations_roll_back_in_order(self, db):
        row_id = db.insert("codes", {"code": "E1", "part_id": "P1", "n": 1})
        db.begin()
        db.update("codes", row_id, {"n": 2})
        db.update("codes", row_id, {"n": 3})
        db.insert("codes", {"code": "E2", "part_id": "P2", "n": 9})
        db.rollback()
        assert db.table("codes").get(row_id)["n"] == 1
        assert db.table("codes").count() == 1

    def test_on_commit_runs_after_the_commit_once(self, db):
        seen = []

        def callback():
            seen.append((db.in_transaction, db.table("codes").count()))

        with db.transaction():
            db.insert("codes", {"code": "E1", "part_id": "P1", "n": 1})
            db.on_commit(callback)
            db.on_commit(callback)
            assert seen == []
        assert seen == [(False, 1)]

    def test_on_commit_outside_a_transaction_runs_at_once(self, db):
        seen = []
        db.on_commit(lambda: seen.append(db.in_transaction))
        assert seen == [False]

    def test_rollback_drops_on_commit_callbacks(self, db):
        seen = []
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.on_commit(lambda: seen.append("first"))
                raise RuntimeError("boom")
        with db.transaction():
            db.on_commit(lambda: seen.append("second"))
        assert seen == ["second"]

    def test_insert_many(self, db):
        db.insert_many("codes", [{"code": "E1", "part_id": "P1", "n": 1},
                                 {"code": "E2", "part_id": "P1", "n": 2}])
        assert db.table("codes").count() == 2
