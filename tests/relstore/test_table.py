"""Unit tests for tables and indexes."""

import pytest

from repro.relstore.errors import IntegrityError, QueryError, SchemaError
from repro.relstore.index import HashIndex, InvertedIndex, UniqueIndex
from repro.relstore.predicate import col
from repro.relstore.table import Table
from repro.relstore.types import Column, ColumnType, Schema


def bundle_schema():
    return Schema.build(
        [
            Column("ref", ColumnType.TEXT, nullable=False),
            ("part_id", "text"),
            ("error_code", "text"),
            ("features", "json"),
            ("score", "real"),
        ],
        primary_key="ref",
    )


@pytest.fixture
def table():
    t = Table("bundles", bundle_schema())
    t.create_index("ix_part", "part_id")
    t.create_index("ix_feat", "features", inverted=True)
    t.insert({"ref": "R1", "part_id": "P1", "error_code": "E1",
              "features": ["c1", "c2"], "score": 0.9})
    t.insert({"ref": "R2", "part_id": "P1", "error_code": "E2",
              "features": ["c2", "c3"], "score": 0.5})
    t.insert({"ref": "R3", "part_id": "P2", "error_code": "E1",
              "features": ["c4"], "score": 0.1})
    return t


class TestBasics:
    def test_invalid_table_name(self):
        with pytest.raises(SchemaError):
            Table("bad name", bundle_schema())

    def test_len_and_repr(self, table):
        assert len(table) == 3
        assert "bundles" in repr(table)

    def test_primary_key_index_created_automatically(self, table):
        assert any(isinstance(ix, UniqueIndex) for ix in table.indexes.values())

    def test_get_unknown_row(self, table):
        with pytest.raises(QueryError):
            table.get(999)


class TestInsert:
    def test_insert_returns_increasing_ids(self, table):
        first = table.insert({"ref": "R4", "part_id": "P3"})
        second = table.insert({"ref": "R5", "part_id": "P3"})
        assert second == first + 1

    def test_duplicate_primary_key_rejected(self, table):
        with pytest.raises(IntegrityError, match="duplicate"):
            table.insert({"ref": "R1", "part_id": "P9"})
        # failed insert must not leave partial index entries
        assert len(table) == 3
        assert table.select(col("part_id") == "P9") == []

    def test_null_primary_key_rejected(self, table):
        # The schema marks the pk NOT NULL, so the schema check fires first;
        # a nullable-schema pk would be caught by the unique index instead.
        with pytest.raises((IntegrityError, SchemaError)):
            table.insert({"ref": None, "part_id": "P9"})

    def test_null_unique_index_value_rejected(self):
        t = Table("t", Schema.build([("k", "text"), ("v", "integer")]))
        t.create_index("ux", "k", unique=True)
        with pytest.raises(IntegrityError):
            t.insert({"k": None, "v": 1})

    def test_insert_many(self):
        t = Table("t", Schema.build([("a", "integer")]))
        ids = t.insert_many([{"a": 1}, {"a": 2}, {"a": 3}])
        assert len(ids) == 3
        assert t.count() == 3


class TestSelect:
    def test_select_all(self, table):
        assert len(table.select()) == 3

    def test_select_by_equality_uses_hash_index(self, table):
        rows = table.select(col("part_id") == "P1")
        assert {row["ref"] for row in rows} == {"R1", "R2"}

    def test_select_by_membership_uses_inverted_index(self, table):
        rows = table.select(col("features").contains("c2"))
        assert {row["ref"] for row in rows} == {"R1", "R2"}

    def test_index_narrowing_still_rechecks_predicate(self, table):
        pred = (col("part_id") == "P1") & (col("error_code") == "E2")
        rows = table.select(pred)
        assert [row["ref"] for row in rows] == ["R2"]

    def test_order_by_and_limit(self, table):
        rows = table.select(order_by=lambda row: -row["score"], limit=2)
        assert [row["ref"] for row in rows] == ["R1", "R2"]

    def test_order_by_callable(self, table):
        rows = table.select(order_by=lambda row: len(row["features"]))
        assert rows[0]["ref"] == "R3"

    def test_order_by_places_nulls_last(self, table):
        table.insert({"ref": "R9", "part_id": "P9", "score": None})
        rows = table.select(order_by="score")
        assert rows[-1]["ref"] == "R9"

    def test_projection(self, table):
        rows = table.select(col("ref") == "R1", columns=["ref", "score"])
        assert rows == [{"ref": "R1", "score": 0.9}]

    def test_projection_unknown_column(self, table):
        with pytest.raises(QueryError):
            table.select(columns=["bogus"])

    def test_order_by_unknown_column(self, table):
        with pytest.raises(QueryError):
            table.select(order_by="bogus")

    def test_select_one(self, table):
        assert table.select_one(col("ref") == "R2")["error_code"] == "E2"
        assert table.select_one(col("ref") == "nope") is None

    def test_count_and_distinct(self, table):
        assert table.count() == 3
        assert table.count(col("part_id") == "P1") == 2
        assert table.distinct("error_code") == {"E1", "E2"}
        assert table.distinct("features") == {("c1", "c2"), ("c2", "c3"), ("c4",)}

    def test_group_count(self, table):
        assert table.group_count("error_code") == {"E1": 2, "E2": 1}
        assert table.group_count("error_code", col("part_id") == "P1") == {
            "E1": 1, "E2": 1}


class TestUpdateDelete:
    def test_update_moves_index_entries(self, table):
        row_id = next(iter(table.row_ids()))
        table.update(row_id, {"part_id": "P9"})
        assert table.select_one(col("part_id") == "P9") is not None

    def test_update_inverted_index(self, table):
        row_id = [rid for rid in table.row_ids() if table.get(rid)["ref"] == "R3"][0]
        table.update(row_id, {"features": ["c9"]})
        assert table.select(col("features").contains("c4")) == []
        assert len(table.select(col("features").contains("c9"))) == 1

    def test_update_unique_violation_rolls_back(self, table):
        row_id = [rid for rid in table.row_ids() if table.get(rid)["ref"] == "R2"][0]
        with pytest.raises(IntegrityError):
            table.update(row_id, {"ref": "R1"})
        assert table.get(row_id)["ref"] == "R2"
        # R2 must still be findable through the pk index
        pk = [ix for ix in table.indexes.values() if isinstance(ix, UniqueIndex)][0]
        assert pk.lookup("R2") == {row_id}

    def test_update_unknown_row(self, table):
        with pytest.raises(QueryError):
            table.update(12345, {"part_id": "X"})

    def test_update_partial_index_rollback(self):
        # regression: when a LATER index rejects an update, indexes already
        # moved to the new value must be rolled back, not left pointing at
        # a value the row does not hold.
        t = Table("rollback", bundle_schema())
        t.create_index("ix_part", "part_id")
        t.create_index("ix_feat", "features", inverted=True)
        t.create_index("ux_code", "error_code", unique=True)
        first = t.insert({"ref": "R1", "part_id": "P1", "error_code": "E1",
                          "features": ["c1"]})
        t.insert({"ref": "R2", "part_id": "P2", "error_code": "E2",
                  "features": ["c2"]})
        with pytest.raises(IntegrityError):
            t.update(first, {"part_id": "P9", "features": ["c9"],
                             "error_code": "E2"})
        assert t.get(first)["part_id"] == "P1"
        assert t.index_for("part_id").lookup("P1") == {first}
        assert t.index_for("part_id").lookup("P9") == set()
        feat = t.index_for("features", inverted=True)
        assert feat.lookup("c1") == {first}
        assert feat.lookup("c9") == set()
        assert t.select_one(col("part_id") == "P1")["ref"] == "R1"

    def test_delete_with_predicate(self, table):
        assert table.delete(col("part_id") == "P1") == 2
        assert len(table) == 1
        assert table.select(col("features").contains("c2")) == []

    def test_delete_all_then_reinsert(self, table):
        table.delete()
        assert len(table) == 0
        table.insert({"ref": "R1", "part_id": "P1"})
        assert len(table) == 1

    def test_clear(self, table):
        table.clear()
        assert len(table) == 0
        assert table.select(col("part_id") == "P1") == []


class TestIndexManagement:
    def test_create_index_backfills(self, table):
        index = table.create_index("ix_code", "error_code")
        assert index.lookup("E1") != set()
        assert len(index.lookup("E1")) == 2

    def test_duplicate_index_name(self, table):
        with pytest.raises(SchemaError):
            table.create_index("ix_part", "error_code")

    def test_index_on_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.create_index("ix_x", "bogus")

    def test_unique_and_inverted_exclusive(self, table):
        with pytest.raises(SchemaError):
            table.create_index("ix_y", "features", unique=True, inverted=True)

    def test_unique_backfill_detects_duplicates(self, table):
        with pytest.raises(IntegrityError):
            table.create_index("ix_dup", "part_id", unique=True)

    def test_drop_index(self, table):
        table.drop_index("ix_part")
        assert "ix_part" not in table.indexes
        with pytest.raises(SchemaError):
            table.drop_index("ix_part")
        # selection still works via scan
        assert len(table.select(col("part_id") == "P1")) == 2

    def test_index_for_finds_matching_kind(self, table):
        assert isinstance(table.index_for("part_id"), HashIndex)
        assert isinstance(table.index_for("features", inverted=True),
                          InvertedIndex)
        # kind mismatch and unindexed columns return None, never raise
        assert table.index_for("features") is None
        assert table.index_for("part_id", inverted=True) is None
        assert table.index_for("score") is None

    def test_index_for_after_drop(self, table):
        table.drop_index("ix_part")
        assert table.index_for("part_id") is None


class TestIndexUnits:
    def test_hash_index_ignores_null(self):
        ix = HashIndex("ix", "c")
        ix.add(1, None)
        assert len(ix) == 0
        ix.remove(1, None)  # no error

    def test_hash_index_list_keys(self):
        ix = HashIndex("ix", "c")
        ix.add(1, ["a", "b"])
        assert ix.lookup(["a", "b"]) == {1}

    def test_hash_index_dict_keys(self):
        ix = HashIndex("ix", "c")
        ix.add(1, {"x": 1})
        assert ix.lookup({"x": 1}) == {1}

    def test_hash_index_remove_cleans_buckets(self):
        ix = HashIndex("ix", "c")
        ix.add(1, "a")
        ix.remove(1, "a")
        assert list(ix.keys()) == []

    def test_inverted_index_lookup_any(self):
        ix = InvertedIndex("ix", "c")
        ix.add(1, ["a", "b"])
        ix.add(2, ["b", "c"])
        assert ix.lookup_any(["a"]) == {1}
        assert ix.lookup_any(["b"]) == {1, 2}
        assert ix.lookup_any(["z"]) == set()

    def test_inverted_index_ignores_scalars(self):
        ix = InvertedIndex("ix", "c")
        ix.add(1, "scalar")
        assert len(ix) == 0

    def test_inverted_index_duplicate_elements(self):
        ix = InvertedIndex("ix", "c")
        ix.add(1, ["a", "a"])
        ix.remove(1, ["a", "a"])
        assert ix.lookup("a") == set()

    def test_unique_lookup_one(self):
        ix = UniqueIndex("ix", "c")
        ix.add(5, "k")
        assert ix.lookup_one("k") == 5
        assert ix.lookup_one("missing") is None

    def test_unique_re_add_same_row_ok(self):
        ix = UniqueIndex("ix", "c")
        ix.add(5, "k")
        ix.add(5, "k")
        assert ix.lookup_one("k") == 5


class TestDeleteRow:
    def test_delete_row_removes_and_unindexes(self, table):
        row_id = next(iter(table.row_ids()))
        part = table.get(row_id)["part_id"]
        count_before = table.count(col("part_id") == part)
        table.delete_row(row_id)
        assert table.count(col("part_id") == part) == count_before - 1

    def test_delete_row_unknown(self, table):
        with pytest.raises(QueryError):
            table.delete_row(424242)
