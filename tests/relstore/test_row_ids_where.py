"""Differential test: ``Table.row_ids_where`` against a scan oracle.

The oracle reads every visible row and keeps the ids whose row satisfies
the predicate.  ``row_ids_where`` must agree with it whether the planner
probes an index or falls back to a scan (the index dropped), and in every
read context: no transaction, a read view pinned while another thread
commits, and a transaction that writes and is then rolled back.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relstore import Database, Schema, col

PARTS = ["P1", "P2", "P3"]
FEATURES = ["c1", "c2", "c3", "c4"]

_rows = st.lists(
    st.fixed_dictionaries({
        "part_id": st.sampled_from(PARTS),
        "features": st.lists(st.sampled_from(FEATURES), max_size=4,
                             unique=True),
        "n": st.integers(-3, 3),
    }),
    max_size=25,
)

_parts = st.sampled_from(PARTS)
_elements = st.sampled_from(FEATURES)
_numbers = st.integers(-3, 3)
_predicates = st.one_of(
    st.builds(lambda p: col("part_id") == p, _parts),
    st.builds(lambda e: col("features").contains(e), _elements),
    st.builds(lambda n: col("n") == n, _numbers),
    st.builds(lambda p, n: (col("part_id") == p) & (col("n") >= n),
              _parts, _numbers),
    st.builds(lambda p, e: (col("part_id") == p) & col("features").contains(e),
              _parts, _elements),
    st.builds(lambda e, n: col("features").contains(e) & (col("n") != n),
              _elements, _numbers),
    st.builds(lambda p, n: (col("part_id") == p) | (col("n") < n),
              _parts, _numbers),
)

#: Writes applied on top of the loaded rows: ("update", i, part, n),
#: ("delete", i) or ("insert", part, element, n); *i* picks a live row
#: by position.
_edits = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 30), _parts, _numbers),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("insert"), _parts, _elements, _numbers),
    ),
    max_size=8,
)

INDEXES = ("present", "dropped")


def build(rows, indexes):
    db = Database("row-ids-where")
    table = db.create_table("t", Schema.build(
        [("part_id", "text"), ("features", "json"), ("n", "integer")]))
    table.create_index("ix_part", "part_id")
    table.create_index("ix_feat", "features", inverted=True)
    for row in rows:
        table.insert(row)
    if indexes == "dropped":
        table.drop_index("ix_part")
        table.drop_index("ix_feat")
    return db, table


def oracle(table, predicate):
    return sorted(r for r in table.row_ids() if predicate(table.get(r)))


def apply_edits(table, edits):
    for edit in edits:
        live = sorted(table.row_ids())
        if edit[0] == "insert":
            table.insert({"part_id": edit[1], "features": [edit[2]],
                          "n": edit[3]})
        elif live and edit[0] == "update":
            table.update(live[edit[1] % len(live)],
                         {"part_id": edit[2], "n": edit[3]})
        elif live:
            table.delete_row(live[edit[1] % len(live)])


def check(table, predicate):
    got = table.row_ids_where(predicate)
    assert got == oracle(table, predicate)
    return got


@pytest.mark.parametrize("indexes", INDEXES)
@settings(deadline=None)
@given(rows=_rows, edits=_edits, predicate=_predicates)
def test_matches_oracle_outside_transactions(indexes, rows, edits, predicate):
    _, table = build(rows, indexes)
    check(table, predicate)
    apply_edits(table, edits)
    check(table, predicate)


@pytest.mark.parametrize("indexes", INDEXES)
@settings(deadline=None)
@given(rows=_rows, edits=_edits, predicate=_predicates)
def test_matches_oracle_in_read_view_while_writer_commits(indexes, rows,
                                                          edits, predicate):
    db, table = build(rows, indexes)
    failure = []

    def writer():
        try:
            with db.transaction():
                apply_edits(table, edits)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            failure.append(exc)

    with db.read_view():
        before = check(table, predicate)
        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "writer deadlocked"
        if failure:
            raise failure[0]
        assert check(table, predicate) == before  # the view stays pinned
    check(table, predicate)  # and the commit is visible after it


@pytest.mark.parametrize("indexes", INDEXES)
@settings(deadline=None)
@given(rows=_rows, edits=_edits, predicate=_predicates)
def test_matches_oracle_in_rolled_back_transaction(indexes, rows, edits,
                                                   predicate):
    db, table = build(rows, indexes)
    before = check(table, predicate)
    db.begin()
    try:
        apply_edits(table, edits)
        check(table, predicate)  # own uncommitted writes are visible
    finally:
        db.rollback()
    assert check(table, predicate) == before
