"""Property-based tests: the indexed store behaves like a naive reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relstore.database import Database
from repro.relstore.persist import load_database, save_database
from repro.relstore.predicate import col
from repro.relstore.table import Table
from repro.relstore.types import Schema

_part_ids = st.sampled_from(["P1", "P2", "P3"])
_features = st.lists(st.sampled_from(["c1", "c2", "c3", "c4"]),
                     max_size=4, unique=True)
_rows = st.lists(
    st.fixed_dictionaries({"part_id": _part_ids, "features": _features,
                           "n": st.integers(-5, 5)}),
    max_size=30,
)


def fresh_table() -> Table:
    table = Table("t", Schema.build([("part_id", "text"), ("features", "json"),
                                     ("n", "integer")]))
    table.create_index("ix_part", "part_id")
    table.create_index("ix_feat", "features", inverted=True)
    return table


@given(_rows, _part_ids)
def test_indexed_equality_matches_naive_filter(rows, target):
    table = fresh_table()
    for row in rows:
        table.insert(row)
    expected = [row for row in rows if row["part_id"] == target]
    got = table.select(col("part_id") == target)
    assert sorted(r["n"] for r in got) == sorted(r["n"] for r in expected)


@given(_rows, st.sampled_from(["c1", "c2", "c3", "c4"]))
def test_inverted_membership_matches_naive_filter(rows, element):
    table = fresh_table()
    for row in rows:
        table.insert(row)
    expected = [row for row in rows if element in row["features"]]
    got = table.select(col("features").contains(element))
    assert sorted(r["n"] for r in got) == sorted(r["n"] for r in expected)


@given(_rows)
def test_group_count_sums_to_row_count(rows):
    table = fresh_table()
    for row in rows:
        table.insert(row)
    counts = table.group_count("part_id")
    assert sum(counts.values()) == len(rows)


@settings(max_examples=25, deadline=None)
@given(_rows)
def test_persistence_roundtrip_is_lossless(rows):
    import tempfile
    db = Database()
    table = db.create_table("t", Schema.build(
        [("part_id", "text"), ("features", "json"), ("n", "integer")]))
    for row in rows:
        table.insert(row)
    with tempfile.TemporaryDirectory() as directory:
        save_database(db, directory)
        restored = load_database(directory)
    original = sorted(table.scan(), key=lambda r: (r["part_id"], r["n"], r["features"]))
    loaded = sorted(restored.table("t").scan(),
                    key=lambda r: (r["part_id"], r["n"], r["features"]))
    assert original == loaded


@given(st.lists(st.tuples(_part_ids, st.integers(0, 5)), max_size=25))
def test_delete_then_count_is_consistent(pairs):
    table = Table("t", Schema.build([("part_id", "text"), ("n", "integer")]))
    table.create_index("ix_part", "part_id")
    for part_id, n in pairs:
        table.insert({"part_id": part_id, "n": n})
    removed = table.delete(col("part_id") == "P1")
    expected_removed = sum(1 for part_id, _ in pairs if part_id == "P1")
    assert removed == expected_removed
    assert len(table) == len(pairs) - expected_removed
    assert table.select(col("part_id") == "P1") == []


@given(st.lists(st.tuples(_part_ids, st.integers(-5, 5)), max_size=30))
def test_aggregate_matches_naive(pairs):
    table = Table("t", Schema.build([("part_id", "text"), ("n", "integer")]))
    for part_id, n in pairs:
        table.insert({"part_id": part_id, "n": n})
    result = table.aggregate([("count", "*"), ("sum", "n"), ("min", "n"),
                              ("max", "n")], group_by=["part_id"])
    naive = {}
    for part_id, n in pairs:
        naive.setdefault(part_id, []).append(n)
    assert len(result) == len(naive)
    for row in result:
        values = naive[row["part_id"]]
        assert row["count(*)"] == len(values)
        assert row["sum(n)"] == sum(values)
        assert row["min(n)"] == min(values)
        assert row["max(n)"] == max(values)


@given(st.lists(st.tuples(_part_ids, st.integers(0, 5)), max_size=30),
       _part_ids)
def test_explain_rows_examined_is_exact_for_hash(pairs, target):
    table = Table("t", Schema.build([("part_id", "text"), ("n", "integer")]))
    table.create_index("ix", "part_id")
    for part_id, n in pairs:
        table.insert({"part_id": part_id, "n": n})
    plan = table.explain(col("part_id") == target)
    expected = sum(1 for part_id, _ in pairs if part_id == target)
    assert plan["rows_examined"] == expected
