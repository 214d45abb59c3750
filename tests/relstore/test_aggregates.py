"""Tests for aggregation, grouping and the access-plan view."""

import pytest

from repro.relstore import Schema, col
from repro.relstore.errors import QueryError
from repro.relstore.table import Table


@pytest.fixture
def table():
    t = Table("codes", Schema.build([("part_id", "text"), ("code", "text"),
                                     ("score", "real")]))
    t.create_index("ix_part", "part_id")
    rows = [("P1", "E1", 0.9), ("P1", "E1", 0.7), ("P1", "E2", 0.5),
            ("P2", "E3", 0.8), ("P2", "E3", None)]
    for part, code, score in rows:
        t.insert({"part_id": part, "code": code, "score": score})
    return t


class TestAggregate:
    def test_global_count(self, table):
        result = table.aggregate([("count", "*")])
        assert result == [{"count(*)": 5}]

    def test_count_column_skips_nulls(self, table):
        result = table.aggregate([("count", "score")])
        assert result == [{"count(score)": 4}]

    def test_sum_avg_min_max(self, table):
        result = table.aggregate([("sum", "score"), ("avg", "score"),
                                  ("min", "score"), ("max", "score")])[0]
        assert result["sum(score)"] == pytest.approx(2.9)
        assert result["avg(score)"] == pytest.approx(2.9 / 4)
        assert result["min(score)"] == 0.5
        assert result["max(score)"] == 0.9

    def test_group_by(self, table):
        result = table.aggregate([("count", "*")], group_by=["part_id"])
        assert result == [{"part_id": "P1", "count(*)": 3},
                          {"part_id": "P2", "count(*)": 2}]

    def test_group_by_two_columns(self, table):
        result = table.aggregate([("count", "*")],
                                 group_by=["part_id", "code"])
        assert {"part_id": "P1", "code": "E1", "count(*)": 2} in result
        assert len(result) == 3

    def test_aggregate_with_predicate(self, table):
        result = table.aggregate([("max", "score")], col("part_id") == "P2")
        assert result == [{"max(score)": 0.8}]

    def test_all_null_group(self, table):
        table.insert({"part_id": "P3", "code": "E9", "score": None})
        result = table.aggregate([("avg", "score")], col("part_id") == "P3")
        assert result == [{"avg(score)": None}]

    def test_unknown_function(self, table):
        with pytest.raises(QueryError, match="unknown aggregate"):
            table.aggregate([("median", "score")])

    def test_star_only_for_count(self, table):
        with pytest.raises(QueryError):
            table.aggregate([("sum", "*")])

    def test_unknown_column(self, table):
        with pytest.raises(Exception):
            table.aggregate([("sum", "bogus")])


class TestExplain:
    def test_hash_index_access(self, table):
        plan = table.explain(col("part_id") == "P1")
        assert plan["access"] == "hash_index"
        assert plan["index"] == "ix_part"
        assert plan["rows_examined"] == 3

    def test_full_scan(self, table):
        plan = table.explain(col("code") == "E1")
        assert plan["access"] == "full_scan"
        assert plan["rows_examined"] == 5

    def test_inverted_index_access(self):
        t = Table("t", Schema.build([("features", "json")]))
        t.create_index("ix_f", "features", inverted=True)
        t.insert({"features": ["a", "b"]})
        t.insert({"features": ["b"]})
        plan = t.explain(col("features").contains("b"))
        assert plan["access"] == "inverted_index"
        assert plan["rows_examined"] == 2

