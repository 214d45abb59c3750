"""Differential tests against stdlib ``sqlite3`` as an oracle.

The same random sequence of multi-row inserts, updates, deletes and
selects runs on a relstore table and on an SQLite table of the same
shape, with ``=`` and ``IN`` on an indexed column (``part``) and an
unindexed one (``n``); after every step both hold the same rows and
answer every query alike.  SQLite applies each statement atomically, so
a multi-row insert or an update that hits the unique key changes
nothing on either side.

This is a first slice of a relstore-against-SQLite oracle: row values
and counts are compared, not row ids (SQLite reuses the ids of deleted
trailing rows; relstore never reuses an id).
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relstore import Database, IntegrityError, Schema, col, execute

_parts = ["a", "b", "c"]
_keys = st.text(alphabet="pqrs", min_size=1, max_size=2)
_rows = st.lists(st.fixed_dictionaries({
    "k": _keys,
    "part": st.sampled_from(_parts + [None]),
    "n": st.one_of(st.none(), st.integers(0, 3))}), max_size=6)
_conditions = st.one_of(
    st.tuples(st.sampled_from(["part", "n"]), st.just("="),
              st.one_of(st.sampled_from(_parts), st.integers(0, 3))),
    st.tuples(st.sampled_from(["part", "n"]), st.just("IN"),
              st.lists(st.one_of(st.sampled_from(_parts), st.integers(0, 3)),
                       min_size=1, max_size=3)),
)
#: ``SET`` lists of constants.  A constant ``k`` given to two matched
#: rows, or to one row while another keeps it, breaks the unique key.
_assignments = st.fixed_dictionaries({}, optional={
    "k": st.one_of(st.none(), _keys),
    "part": st.sampled_from(_parts + [None]),
    "n": st.one_of(st.none(), st.integers(0, 3))}).filter(bool)
_steps = st.lists(st.one_of(
    st.tuples(st.just("insert_many"), _rows),
    st.tuples(st.just("sql_insert"), _rows),
    st.tuples(st.just("sql_update"),
              st.tuples(_assignments, st.one_of(st.none(), _conditions))),
    st.tuples(st.just("delete"), _conditions),
    st.tuples(st.just("delete_api"), _conditions),
), max_size=10)


def literal(value):
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else str(value)


def where(condition):
    column, op, value = condition
    if op == "=":
        return f"{column} = {literal(value)}"
    return f"{column} IN ({', '.join(literal(v) for v in value)})"


def predicate(condition):
    column, op, value = condition
    return col(column) == value if op == "=" else col(column).in_(value)


def values_sql(rows):
    return ", ".join(
        "(" + ", ".join(literal(row[name]) for name in ("k", "part", "n"))
        + ")"
        for row in rows)


class Pair:
    """A relstore table and an SQLite table driven in lockstep."""

    def __init__(self):
        self.db = Database("oracle")
        self.table = self.db.create_table("t", Schema.build(
            [("k", "text"), ("part", "text"), ("n", "integer")]))
        self.table.create_index("ux_k", "k", unique=True)
        self.table.create_index("ix_part", "part")
        self.sqlite = sqlite3.connect(":memory:")
        self.sqlite.execute(
            "CREATE TABLE t (k TEXT NOT NULL UNIQUE, part TEXT, n INTEGER)")
        self.sqlite.execute("CREATE INDEX ix_part ON t (part)")

    def oracle(self, sql, parameters=()):
        """Run *sql* on SQLite in its own transaction; returns the cursor,
        or None when SQLite refused it (and rolled it back)."""
        try:
            with self.sqlite:
                return self.sqlite.execute(sql, parameters)
        except sqlite3.IntegrityError:
            return None

    def oracle_many(self, rows):
        try:
            with self.sqlite:
                self.sqlite.executemany(
                    "INSERT INTO t (k, part, n) VALUES (?, ?, ?)",
                    [(row["k"], row["part"], row["n"]) for row in rows])
            return True
        except sqlite3.IntegrityError:
            return False

    def step(self, kind, argument):
        if kind == "insert_many":
            accepted = self.oracle_many(argument)
            try:
                self.table.insert_many(argument)
                assert accepted
            except IntegrityError:
                assert not accepted
        elif kind == "sql_insert":
            if not argument:
                return
            sql = f"INSERT INTO t (k, part, n) VALUES {values_sql(argument)}"
            cursor = self.oracle(sql)
            try:
                assert execute(self.db, sql) == len(argument)
                assert cursor is not None
            except IntegrityError:
                assert cursor is None
        elif kind == "sql_update":
            changes, condition = argument
            sql = "UPDATE t SET " + ", ".join(
                f"{column} = {literal(value)}"
                for column, value in changes.items())
            if condition is not None:
                sql += f" WHERE {where(condition)}"
            cursor = self.oracle(sql)
            try:
                count = execute(self.db, sql)
            except IntegrityError:
                assert cursor is None
            else:
                assert cursor is not None
                assert count == cursor.rowcount
        elif kind == "delete":
            sql = f"DELETE FROM t WHERE {where(argument)}"
            assert execute(self.db, sql) == self.oracle(sql).rowcount
        else:
            count = self.table.delete(predicate(argument))
            assert count == self.oracle(
                f"DELETE FROM t WHERE {where(argument)}").rowcount

    def rows(self, condition=None):
        clause = "" if condition is None else f" WHERE {where(condition)}"
        want = sorted(self.sqlite.execute(f"SELECT k, part, n FROM t{clause}"),
                      key=repr)
        got_sql = sorted((tuple(row.values()) for row in execute(
            self.db, f"SELECT k, part, n FROM t{clause}")), key=repr)
        selected = (self.table.scan() if condition is None
                    else self.table.select(predicate(condition)))
        got_api = sorted(((row["k"], row["part"], row["n"])
                          for row in selected), key=repr)
        assert got_sql == want
        assert got_api == want
        return want


@settings(max_examples=80, deadline=None)
@given(_steps, st.lists(_conditions, min_size=1, max_size=4))
def test_relstore_matches_sqlite(steps, queries):
    pair = Pair()
    for kind, argument in steps:
        pair.step(kind, argument)
        pair.rows()
        for condition in queries:
            pair.rows(condition)
    assert pair.table.check_consistency() == []
