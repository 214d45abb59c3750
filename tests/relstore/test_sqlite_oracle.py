"""Differential tests of relstore's Python API against stdlib ``sqlite3``.

A random script of API calls runs on a relstore table, and each call is
translated into the SQLite statements that mean the same thing on a
table of the same shape: ``insert_many`` into one multi-row ``INSERT``,
``update_where`` into one ``UPDATE``, ``delete`` into one ``DELETE``, and
``begin`` / ``commit`` / ``rollback`` / savepoints into their SQL
commands.  After every call both sides hold the same rows, and every
query (``select``, ``count`` and ``aggregate`` under a random predicate)
answers alike.  Every script runs twice: once with a unique key and
hash and inverted indexes (so predicates are planned through them), and
once with no index and no unique key on either side.

Each predicate form is translated, including the documented dialect
differences (docs/api.md, "NULL semantics"): relstore's predicates are
two-valued and treat NULL as a value, so ``==`` / ``!=`` become SQLite's
null-safe ``IS`` / ``IS NOT``, an ``IN`` list holding None adds ``OR c
IS NULL``, and ``NOT p`` becomes ``(p) IS NOT 1``.  ``like`` patterns
are ASCII, where relstore's Unicode lower-casing and SQLite's ASCII
case folding agree.

Row values and counts are compared, never row ids: SQLite reuses the ids
of deleted trailing rows, relstore never reuses an id.
"""

import json
import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relstore import (Column, ColumnType, Database, IntegrityError,
                            Schema, SchemaError, TransactionError, col)
from repro.relstore.predicate import (ALWAYS, And, Comparison, Contains,
                                      ContainsAny, InSet, IsNull, Like, Not,
                                      Or)

COLUMNS = ("k", "part", "n", "tags")
_keys = [*"pqrs", *(a + b for a in "pqrs" for b in "pqrs")]
_parts = ["a", "b", "c", "B"]
_tags = ["x", "y", "z"]
#: Values of each scalar column's own type.
_values = {"k": st.sampled_from(_keys), "part": st.sampled_from(_parts),
           "n": st.integers(0, 3)}
_tag_lists = st.one_of(st.none(), st.lists(st.sampled_from(_tags), max_size=3))
#: Any column's cells.  ``k`` is NOT NULL on both sides, so a None key
#: refuses the statement.
_cells = {"k": st.sampled_from(_keys + [None]),
          "part": st.one_of(st.none(), _values["part"]),
          "n": st.one_of(st.none(), _values["n"]),
          "tags": _tag_lists}
_row = st.fixed_dictionaries(_cells)
_rows = st.lists(_row, max_size=4)
#: Rows a script starts from: keys unique and not NULL, so they load.
_seed = st.lists(_row.filter(lambda row: row["k"] is not None), max_size=8,
                 unique_by=lambda row: row["k"])


def _comparison(column):
    equality = st.tuples(st.sampled_from(["==", "!="]),
                         st.one_of(st.none(), _values[column]))
    ordering = st.tuples(st.sampled_from(["<", "<=", ">", ">="]),
                         _values[column])
    return st.one_of(equality, ordering).map(
        lambda pair: Comparison(column, *pair))


_leaves = st.one_of(
    st.just(ALWAYS),
    st.sampled_from(COLUMNS[:3]).flatmap(_comparison),
    st.sampled_from(["part", "n", "tags"]).map(lambda c: col(c).is_null()),
    st.sampled_from(["part", "n"]).map(lambda c: col(c).is_not_null()),
    st.sampled_from(COLUMNS[:3]).flatmap(lambda c: st.lists(
        st.one_of(st.none(), _values[c]), max_size=3).map(col(c).in_)),
    st.tuples(st.sampled_from(["k", "part"]),
              st.text(alphabet="pqabAB%_", max_size=3)).map(
        lambda pair: col(pair[0]).like(pair[1])),
    st.sampled_from(_tags + ["w"]).map(col("tags").contains),
    st.lists(st.sampled_from(_tags + ["w"]), max_size=2).map(
        col("tags").contains_any),
)
#: Mostly single leaves, whose bindings the planner routes through an
#: index; the rest nest ``~``, ``&`` and ``|``.
_predicates = st.one_of(_leaves, _leaves, st.recursive(
    _leaves, lambda inner: st.one_of(
        inner.map(lambda p: ~p),
        st.tuples(inner, inner).map(lambda pair: pair[0] & pair[1]),
        st.tuples(inner, inner).map(lambda pair: pair[0] | pair[1])),
    max_leaves=4))
#: ``SET`` lists of constants.  A constant ``k`` given to two matched
#: rows, or to one row while another keeps it, breaks the unique key.
_assignments = st.fixed_dictionaries({}, optional=_cells).filter(bool)
_aggregations = st.lists(st.sampled_from([
    ("count", "*"), ("count", "part"), ("count", "n"), ("count", "tags"),
    ("sum", "n"), ("avg", "n"), ("min", "n"), ("max", "n"),
    ("min", "part"), ("max", "part"), ("min", "k"), ("max", "k")]),
    min_size=1, max_size=4, unique=True)
_queries = st.tuples(_predicates, _aggregations, st.sampled_from(
    [(), ("part",), ("n",), ("part", "n")]))
_writes = st.one_of(
    st.tuples(st.just("insert_many"), _rows),
    st.tuples(st.just("update_where"), st.tuples(_assignments, _predicates)),
    st.tuples(st.just("delete"), _predicates))
_savepoint_names = st.sampled_from(["s1", "s2"])
_savepoint_calls = st.tuples(
    st.sampled_from(["savepoint", "rollback_to", "release"]),
    _savepoint_names)
#: A savepoint, writes, then a rollback to it, a release, or neither.
_segments = st.tuples(
    _savepoint_names, st.lists(_writes, min_size=1, max_size=3),
    st.sampled_from(["rollback_to", "release", None])).map(
    lambda segment: [("savepoint", segment[0]), *segment[1]]
    + ([(segment[2], segment[0])] if segment[2] else []))
#: ``begin``, writes, savepoint segments and stray savepoint calls, then
#: a commit, a rollback, or nothing (the transaction stays open for the
#: steps that follow).
_transactions = st.tuples(
    st.lists(st.one_of(_writes.map(lambda step: [step]), _segments,
                       _savepoint_calls.map(lambda step: [step])),
             max_size=4),
    st.sampled_from(["commit", "rollback", None])).map(
    lambda block: [("begin", None), *(step for part in block[0]
                                      for step in part)]
    + ([(block[1], None)] if block[1] else []))
#: A flat script.  Transaction-control calls also come alone, so that
#: misuse (a nested begin, a commit with nothing open, an unknown
#: savepoint) is refused on both sides.
_steps = st.lists(st.one_of(
    _writes.map(lambda step: [step]),
    _transactions,
    st.tuples(st.sampled_from(["begin", "commit", "rollback"]),
              st.none()).map(lambda step: [step]),
    _savepoint_calls.map(lambda step: [step]),
), max_size=6).map(lambda blocks: [step for block in blocks for step in block])


def to_sql(predicate, parameters):
    """*predicate* as a two-valued SQLite expression over table ``t``;
    appends its bound values to *parameters*."""
    if predicate is ALWAYS:
        return "1"
    if isinstance(predicate, Comparison):
        parameters.append(predicate.value)
        op = {"==": "IS", "!=": "IS NOT"}.get(predicate.op, predicate.op)
        return f"{predicate.column} {op} ?"
    if isinstance(predicate, IsNull):
        return f"{predicate.column} IS NULL"
    if isinstance(predicate, InSet):
        present = sorted(value for value in predicate.values
                         if value is not None)
        parameters.extend(present)
        sql = f"{predicate.column} IN ({', '.join('?' * len(present))})"
        if None in predicate.values:
            sql = f"({sql} OR {predicate.column} IS NULL)"
        return sql
    if isinstance(predicate, Like):
        parameters.append(predicate.pattern)
        return f"{predicate.column} LIKE ?"
    if isinstance(predicate, Contains):
        parameters.append(predicate.element)
        return (f"EXISTS (SELECT 1 FROM json_each(t.{predicate.column}) "
                "WHERE value = ?)")
    if isinstance(predicate, ContainsAny):
        elements = sorted(predicate.elements)
        parameters.extend(elements)
        return (f"EXISTS (SELECT 1 FROM json_each(t.{predicate.column}) "
                f"WHERE value IN ({', '.join('?' * len(elements))}))")
    if isinstance(predicate, Not):
        return f"({to_sql(predicate.inner, parameters)}) IS NOT 1"
    joiner = " AND " if isinstance(predicate, And) else " OR "
    assert isinstance(predicate, (And, Or))
    return joiner.join(f"({to_sql(part, parameters)})"
                       for part in predicate.parts)


def encode(value):
    """A relstore cell as SQLite stores it (JSON lists as text)."""
    return json.dumps(value) if isinstance(value, list) else value


def multiset(rows):
    return sorted(map(tuple, rows), key=repr)


def cells(records, names=COLUMNS):
    """relstore result dicts as a multiset of SQLite-shaped tuples."""
    return multiset([encode(record[name]) for name in names]
                    for record in records)


class Pair:
    """A relstore table and an SQLite table driven in lockstep."""

    def __init__(self, indexed):
        self.db = Database("oracle")
        self.table = self.db.create_table("t", Schema.build([
            Column("k", ColumnType.TEXT, nullable=False), ("part", "text"),
            ("n", "integer"), ("tags", "json")]))
        # Autocommit mode: SQLite opens a transaction only on BEGIN.
        self.sqlite = sqlite3.connect(":memory:", isolation_level=None)
        unique = " UNIQUE" if indexed else ""
        self.sqlite.execute(f"CREATE TABLE t (k TEXT NOT NULL{unique}, "
                            "part TEXT, n INTEGER, tags TEXT)")
        if indexed:
            self.table.create_index("ux_k", "k", unique=True)
            self.table.create_index("ix_part", "part")
            self.table.create_index("ix_n", "n")
            self.table.create_index("ix_tags", "tags", inverted=True)
            self.sqlite.execute("CREATE INDEX ix_part ON t (part)")
            self.sqlite.execute("CREATE INDEX ix_n ON t (n)")

    def oracle(self, sql, parameters=()):
        """Run one statement on SQLite; returns the cursor, or None when
        SQLite refused it (which undoes that statement only)."""
        try:
            return self.sqlite.execute(sql, parameters)
        except sqlite3.IntegrityError:
            return None

    def step(self, kind, argument):
        if kind == "insert_many":
            if not argument:
                assert self.table.insert_many(argument) == []
                return
            cursor = self.oracle(
                "INSERT INTO t (k, part, n, tags) VALUES "
                + ", ".join(["(?, ?, ?, ?)"] * len(argument)),
                [encode(row[name]) for row in argument for name in COLUMNS])
            try:
                assert len(self.table.insert_many(argument)) == len(argument)
                assert cursor is not None
            except (IntegrityError, SchemaError):
                assert cursor is None
        elif kind == "update_where":
            changes, predicate = argument
            parameters = [encode(value) for value in changes.values()]
            cursor = self.oracle(
                "UPDATE t SET " + ", ".join(f"{name} = ?" for name in changes)
                + f" WHERE {to_sql(predicate, parameters)}", parameters)
            try:
                count = self.table.update_where(predicate, changes)
            except (IntegrityError, SchemaError):
                assert cursor is None
            else:
                assert cursor is not None
                assert count == cursor.rowcount
        elif kind == "delete":
            parameters = []
            cursor = self.oracle(
                f"DELETE FROM t WHERE {to_sql(argument, parameters)}",
                parameters)
            assert self.table.delete(argument) == cursor.rowcount
        else:
            self.control(kind, argument)
        assert self.db.in_transaction == self.sqlite.in_transaction

    def control(self, kind, name):
        """A transaction-control call; misuse must fail on both sides."""
        if kind == "savepoint" and not self.db.in_transaction:
            return  # SQLite's SAVEPOINT would open a transaction
        sql, call = {
            "begin": ("BEGIN", self.db.begin),
            "commit": ("COMMIT", self.db.commit),
            "rollback": ("ROLLBACK", self.db.rollback),
            "savepoint": (f"SAVEPOINT {name}",
                          lambda: self.db.savepoint(name)),
            "rollback_to": (f"ROLLBACK TO {name}",
                            lambda: self.db.rollback_to_savepoint(name)),
            "release": (f"RELEASE {name}",
                        lambda: self.db.release_savepoint(name)),
        }[kind]
        try:
            self.sqlite.execute(sql)
            accepted = True
        except sqlite3.OperationalError:
            accepted = False
        try:
            call()
            assert accepted
        except TransactionError:
            assert not accepted

    def check(self, queries):
        """Compare every row, then each query's rows, count and groups."""
        select = f"SELECT {', '.join(COLUMNS)} FROM t"
        assert cells(self.table.scan()) == multiset(self.sqlite.execute(select))
        for predicate, aggregations, group_by in queries:
            parameters = []
            where = f" WHERE {to_sql(predicate, parameters)}"
            want = multiset(self.sqlite.execute(select + where, parameters))
            assert cells(self.table.select(predicate)) == want
            assert self.table.count(predicate) == len(want)
            names = [*group_by, *(f"{function}({column})"
                                  for function, column in aggregations)]
            grouping = f" GROUP BY {', '.join(group_by)}" if group_by else ""
            want = multiset(self.sqlite.execute(
                f"SELECT {', '.join(names)} FROM t{where}{grouping}",
                parameters))
            assert cells(self.table.aggregate(aggregations, predicate,
                                              group_by), names) == want


@settings(max_examples=200, deadline=None)
@given(_seed, _steps, st.lists(_queries, min_size=1, max_size=3),
       st.booleans())
def test_relstore_matches_sqlite(seed, steps, queries, commit_at_end):
    for indexed in (True, False):
        pair = Pair(indexed)
        for kind, argument in [("insert_many", seed)] + steps:
            pair.step(kind, argument)
            pair.check(queries)
        if pair.db.in_transaction:
            pair.step("commit" if commit_at_end else "rollback", None)
            pair.check(queries)
        assert pair.table.check_consistency() == []
