"""A small SQL subset over the embedded store.

Supported statements (enough for interactive inspection, the examples, and
the QUEST admin screens):

* ``CREATE TABLE t (col TYPE [NOT NULL] [PRIMARY KEY], ...)``
* ``INSERT INTO t (col, ...) VALUES (v, ...)``
* ``SELECT col, ... | * FROM t [WHERE ...] [ORDER BY col [ASC|DESC]] [LIMIT n]``
* ``SELECT COUNT(*) FROM t [WHERE ...]``
* ``UPDATE t SET col = v, ... [WHERE ...]``
* ``DELETE FROM t [WHERE ...]``
* ``DROP TABLE t``
* ``BEGIN [TRANSACTION|WORK]`` / ``COMMIT`` / ``ROLLBACK`` — snapshot-
  isolation transactions bound to the calling thread
* ``SAVEPOINT name`` (also EdgeQL's ``DECLARE SAVEPOINT name``),
  ``ROLLBACK TO [SAVEPOINT] name``, ``RELEASE [SAVEPOINT] name``

WHERE supports ``=  != < <= > >= IN (...) IS NULL IS NOT NULL`` combined
with ``AND`` / ``OR`` / ``NOT`` and parentheses.  Literals: integers, floats,
single-quoted strings (with ``''`` escaping), ``TRUE``/``FALSE``/``NULL``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from .database import Database
from .errors import SqlError
from .predicate import (ALWAYS, And, Comparison, InSet, IsNull, Like, Not,
                        Or, Predicate)
from .types import Column, ColumnType, Schema

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\*|\.)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "create", "table", "insert", "into", "values", "select", "from", "where",
    "order", "by", "asc", "desc", "limit", "update", "set", "delete", "drop",
    "and", "or", "not", "in", "is", "null", "true", "false", "primary", "key",
    "count", "sum", "avg", "min", "max", "group", "distinct", "explain",
    "like", "join", "on", "left", "inner",
    # transaction control (DECLARE SAVEPOINT is the EdgeQL spelling,
    # accepted alongside plain SAVEPOINT)
    "begin", "commit", "rollback", "savepoint", "release", "to",
    "transaction", "work", "declare",
}

_AGGREGATES = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Token:
    """One lexical token: kind in {string, number, ident, keyword, op, end}."""

    kind: str
    value: Any
    position: int


def tokenize(sql: str) -> list[Token]:
    """Split *sql* into tokens.

    Raises:
        SqlError: on unrecognized input.
    """
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            if sql[position:].strip() == "" or sql[position] == ";":
                position += 1
                continue
            raise SqlError(f"cannot tokenize SQL at position {position}: {sql[position:position + 20]!r}")
        position = match.end()
        if match.lastgroup == "string":
            text = match.group("string")[1:-1].replace("''", "'")
            tokens.append(Token("string", text, match.start()))
        elif match.lastgroup == "number":
            literal = match.group("number")
            value = float(literal) if "." in literal else int(literal)
            tokens.append(Token("number", value, match.start()))
        elif match.lastgroup == "ident":
            word = match.group("ident")
            if word.lower() in _KEYWORDS:
                tokens.append(Token("keyword", word.lower(), match.start()))
            else:
                tokens.append(Token("ident", word, match.start()))
        else:
            tokens.append(Token("op", match.group("op"), match.start()))
    tokens.append(Token("end", None, len(sql)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -------------------------------------------------------------- #
    # token helpers

    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self.current
        self._position += 1
        return token

    def accept(self, kind: str, value: Any = None) -> Token | None:
        token = self.current
        if token.kind != kind:
            return None
        if value is not None and token.value != value:
            return None
        return self.advance()

    def expect(self, kind: str, value: Any = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            want = value if value is not None else kind
            raise SqlError(f"expected {want!r}, got {self.current.value!r} "
                           f"at position {self.current.position}")
        return token

    def expect_name(self) -> str:
        token = self.current
        if token.kind not in ("ident", "keyword"):
            raise SqlError(f"expected a name, got {token.value!r} at {token.position}")
        self.advance()
        return str(token.value)

    def expect_qualified_name(self) -> str:
        """A possibly table-qualified name: ``col`` or ``table.col``."""
        name = self.expect_name()
        if self.accept("op", "."):
            name = f"{name}.{self.expect_name()}"
        return name

    # -------------------------------------------------------------- #
    # statements

    def parse_statement(self) -> dict[str, Any]:
        if self.accept("keyword", "explain"):
            self.expect("keyword", "select")
            statement = self._select()
            statement["kind"] = "explain"
            return statement
        if self.accept("keyword", "create"):
            return self._create_table()
        if self.accept("keyword", "insert"):
            return self._insert()
        if self.accept("keyword", "select"):
            return self._select()
        if self.accept("keyword", "update"):
            return self._update()
        if self.accept("keyword", "delete"):
            return self._delete()
        if self.accept("keyword", "drop"):
            return self._drop()
        if self.accept("keyword", "begin"):
            self._optional_txn_noise()
            self.expect("end")
            return {"kind": "begin"}
        if self.accept("keyword", "commit"):
            self._optional_txn_noise()
            self.expect("end")
            return {"kind": "commit"}
        if self.accept("keyword", "rollback"):
            if self.accept("keyword", "to"):
                self.accept("keyword", "savepoint")
                name = self.expect_name()
                self.expect("end")
                return {"kind": "rollback_to_savepoint", "name": name}
            self._optional_txn_noise()
            self.expect("end")
            return {"kind": "rollback"}
        if self.accept("keyword", "savepoint"):
            name = self.expect_name()
            self.expect("end")
            return {"kind": "savepoint", "name": name}
        if self.accept("keyword", "declare"):
            self.expect("keyword", "savepoint")
            name = self.expect_name()
            self.expect("end")
            return {"kind": "savepoint", "name": name}
        if self.accept("keyword", "release"):
            self.accept("keyword", "savepoint")
            name = self.expect_name()
            self.expect("end")
            return {"kind": "release_savepoint", "name": name}
        raise SqlError(f"unsupported statement starting with {self.current.value!r}")

    def _optional_txn_noise(self) -> None:
        """Swallow the optional TRANSACTION / WORK keyword."""
        if not self.accept("keyword", "transaction"):
            self.accept("keyword", "work")

    def _create_table(self) -> dict[str, Any]:
        self.expect("keyword", "table")
        table_name = self.expect_name()
        self.expect("op", "(")
        columns: list[Column] = []
        primary_key: str | None = None
        while True:
            column_name = self.expect_name()
            type_name = self.expect_name()
            column_type = ColumnType.parse(type_name)
            nullable = True
            if self.accept("keyword", "not"):
                self.expect("keyword", "null")
                nullable = False
            if self.accept("keyword", "primary"):
                self.expect("keyword", "key")
                primary_key = column_name
                nullable = False
            columns.append(Column(column_name, column_type, nullable=nullable))
            if self.accept("op", ","):
                continue
            self.expect("op", ")")
            break
        return {"kind": "create_table", "table": table_name,
                "schema": Schema(tuple(columns), primary_key=primary_key)}

    def _insert(self) -> dict[str, Any]:
        self.expect("keyword", "into")
        table_name = self.expect_name()
        self.expect("op", "(")
        columns = [self.expect_name()]
        while self.accept("op", ","):
            columns.append(self.expect_name())
        self.expect("op", ")")
        self.expect("keyword", "values")
        rows: list[list[Any]] = []
        while True:
            self.expect("op", "(")
            row = [self._literal()]
            while self.accept("op", ","):
                row.append(self._literal())
            self.expect("op", ")")
            if len(row) != len(columns):
                raise SqlError(f"INSERT has {len(columns)} columns but {len(row)} values")
            rows.append(row)
            if not self.accept("op", ","):
                break
        return {"kind": "insert", "table": table_name, "columns": columns, "rows": rows}

    def _select_item(self) -> tuple[str, Any]:
        """One select-list item: ('column', name) or ('agg', (func, col))."""
        token = self.current
        if token.kind == "keyword" and token.value in _AGGREGATES:
            self.advance()
            self.expect("op", "(")
            if self.accept("op", "*"):
                column = "*"
            else:
                column = self.expect_name()
            self.expect("op", ")")
            return ("agg", (str(token.value), column))
        return ("column", self.expect_qualified_name())

    def _select(self) -> dict[str, Any]:
        columns: list[str] | None = None
        aggregates: list[tuple[str, str]] = []
        if self.accept("op", "*"):
            columns = None
        else:
            items = [self._select_item()]
            while self.accept("op", ","):
                items.append(self._select_item())
            columns = [value for kind, value in items if kind == "column"]
            aggregates = [value for kind, value in items if kind == "agg"]
            if not columns:
                columns = None
        count_star = (aggregates == [("count", "*")] and columns is None)
        self.expect("keyword", "from")
        table_name = self.expect_name()
        join = None
        how = None
        if self.accept("keyword", "left"):
            how = "left"
            self.expect("keyword", "join")
        elif self.accept("keyword", "inner"):
            how = "inner"
            self.expect("keyword", "join")
        elif self.accept("keyword", "join"):
            how = "inner"
        if how is not None:
            right_name = self.expect_name()
            self.expect("keyword", "on")
            left_col = self.expect_qualified_name()
            self.expect("op", "=")
            right_col = self.expect_qualified_name()
            join = {"table": right_name, "left_col": left_col,
                    "right_col": right_col, "how": how}
        predicate = self._optional_where()
        group_by: list[str] = []
        if self.accept("keyword", "group"):
            self.expect("keyword", "by")
            group_by.append(self.expect_name())
            while self.accept("op", ","):
                group_by.append(self.expect_name())
        order_by: str | None = None
        descending = False
        if self.accept("keyword", "order"):
            self.expect("keyword", "by")
            order_by = self.expect_qualified_name()
            if self.accept("keyword", "desc"):
                descending = True
            else:
                self.accept("keyword", "asc")
        limit: int | None = None
        if self.accept("keyword", "limit"):
            token = self.expect("number")
            if not isinstance(token.value, int) or token.value < 0:
                raise SqlError("LIMIT must be a non-negative integer")
            limit = token.value
        self.expect("end")
        if (aggregates or group_by) and order_by is not None:
            raise SqlError("ORDER BY is not supported with aggregates")
        if aggregates and not group_by and columns:
            raise SqlError("plain columns with aggregates need GROUP BY")
        if group_by and columns and set(columns) - set(group_by):
            raise SqlError("selected columns must appear in GROUP BY")
        if join is not None and (aggregates or group_by):
            raise SqlError("aggregates over joins are not supported")
        return {"kind": "select", "table": table_name, "columns": columns,
                "count": count_star, "aggregates": aggregates,
                "group_by": group_by, "join": join, "where": predicate,
                "order_by": order_by, "descending": descending, "limit": limit}

    def _update(self) -> dict[str, Any]:
        table_name = self.expect_name()
        self.expect("keyword", "set")
        changes: dict[str, Any] = {}
        while True:
            column = self.expect_name()
            self.expect("op", "=")
            changes[column] = self._literal()
            if not self.accept("op", ","):
                break
        predicate = self._optional_where()
        self.expect("end")
        return {"kind": "update", "table": table_name, "changes": changes,
                "where": predicate}

    def _delete(self) -> dict[str, Any]:
        self.expect("keyword", "from")
        table_name = self.expect_name()
        predicate = self._optional_where()
        self.expect("end")
        return {"kind": "delete", "table": table_name, "where": predicate}

    def _drop(self) -> dict[str, Any]:
        self.expect("keyword", "table")
        table_name = self.expect_name()
        self.expect("end")
        return {"kind": "drop_table", "table": table_name}

    # -------------------------------------------------------------- #
    # expressions

    def _optional_where(self) -> Predicate:
        if self.accept("keyword", "where"):
            return self._or_expr()
        return ALWAYS

    def _or_expr(self) -> Predicate:
        left = self._and_expr()
        parts = [left]
        while self.accept("keyword", "or"):
            parts.append(self._and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _and_expr(self) -> Predicate:
        parts = [self._not_expr()]
        while self.accept("keyword", "and"):
            parts.append(self._not_expr())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _not_expr(self) -> Predicate:
        if self.accept("keyword", "not"):
            return Not(self._not_expr())
        return self._comparison()

    def _comparison(self) -> Predicate:
        if self.accept("op", "("):
            inner = self._or_expr()
            self.expect("op", ")")
            return inner
        column = self.expect_qualified_name()
        if self.accept("keyword", "is"):
            if self.accept("keyword", "not"):
                self.expect("keyword", "null")
                return Not(IsNull(column))
            self.expect("keyword", "null")
            return IsNull(column)
        if self.accept("keyword", "in"):
            self.expect("op", "(")
            values = [self._literal()]
            while self.accept("op", ","):
                values.append(self._literal())
            self.expect("op", ")")
            return InSet(column, frozenset(values))
        if self.accept("keyword", "like"):
            pattern = self._literal()
            if not isinstance(pattern, str):
                raise SqlError("LIKE needs a string pattern")
            return Like(column, pattern)
        operator_token = self.current
        if operator_token.kind != "op" or operator_token.value not in (
                "=", "!=", "<>", "<", "<=", ">", ">="):
            raise SqlError(f"expected comparison operator, got {operator_token.value!r}")
        self.advance()
        operator = {"=": "==", "<>": "!="}.get(operator_token.value, operator_token.value)
        return Comparison(column, operator, self._literal())

    def _literal(self) -> Any:
        token = self.current
        if token.kind in ("string", "number"):
            self.advance()
            return token.value
        if token.kind == "keyword" and token.value in ("true", "false", "null"):
            self.advance()
            return {"true": True, "false": False, "null": None}[token.value]
        raise SqlError(f"expected a literal, got {token.value!r} at {token.position}")


def parse(sql: str) -> dict[str, Any]:
    """Parse one SQL statement into a plain statement dict."""
    return _Parser(tokenize(sql)).parse_statement()


def _execute_join_select(database: Database, statement: dict[str, Any]) -> Any:
    """Run a SELECT with a JOIN clause."""
    from .join import hash_join
    left = database.table(statement["table"])
    right = database.table(statement["join"]["table"])

    def resolve(qualified: str) -> tuple[str, str]:
        """Return (side, bare_column) for a possibly qualified name."""
        if "." in qualified:
            prefix, bare = qualified.split(".", 1)
            if prefix == left.name:
                return "left", bare
            if prefix == right.name:
                return "right", bare
            raise SqlError(f"unknown table qualifier {prefix!r}")
        return "?", qualified

    first = resolve(statement["join"]["left_col"])
    second = resolve(statement["join"]["right_col"])
    if first[0] == "right" or second[0] == "left":
        first, second = second, first
    left_on, right_on = first[1], second[1]
    rows = hash_join(left, right, left_on, right_on, statement["where"],
                     how=statement["join"]["how"])
    order_by = statement["order_by"]
    if order_by is not None:
        if rows and order_by not in rows[0]:
            raise SqlError(f"unknown ORDER BY column {order_by!r}")
        rows.sort(key=lambda record: (record[order_by] is None,
                                      record[order_by]),
                  reverse=statement["descending"])
    if statement["limit"] is not None:
        rows = rows[:statement["limit"]]
    columns = statement["columns"]
    if columns is not None:
        for name in columns:
            if rows and name not in rows[0]:
                raise SqlError(f"unknown column {name!r} in join projection; "
                               f"available: {sorted(rows[0])}")
        rows = [{name: record[name] for name in columns} for record in rows]
    return rows


def execute(database: Database, sql: str) -> Any:
    """Parse and run one statement against *database*.

    Returns:
        * list of row dicts for SELECT,
        * an int count for SELECT COUNT(*), UPDATE, DELETE and INSERT,
        * None for DDL.

    Raises:
        SqlError: on parse errors; store errors propagate unchanged.
    """
    statement = parse(sql)
    kind = statement["kind"]
    if kind == "create_table":
        database.create_table(statement["table"], statement["schema"])
        return None
    if kind == "drop_table":
        database.drop_table(statement["table"])
        return None
    if kind == "insert":
        table = database.table(statement["table"])
        table.insert_many(dict(zip(statement["columns"], row))
                          for row in statement["rows"])
        return len(statement["rows"])
    if kind == "explain":
        table = database.table(statement["table"])
        return table.explain(statement["where"])
    if kind == "select":
        if statement.get("join") is not None:
            return _execute_join_select(database, statement)
        table = database.table(statement["table"])
        if statement["count"] and not statement["group_by"]:
            return table.count(statement["where"])
        if statement["aggregates"] or statement["group_by"]:
            aggregations = statement["aggregates"] or [("count", "*")]
            rows = table.aggregate(aggregations, statement["where"],
                                   statement["group_by"])
            if statement["limit"] is not None:
                rows = rows[:statement["limit"]]
            return rows
        return table.select(statement["where"], columns=statement["columns"],
                            order_by=statement["order_by"],
                            descending=statement["descending"],
                            limit=statement["limit"])
    if kind == "update":
        return database.table(statement["table"]).update_where(
            statement["where"], statement["changes"])
    if kind == "delete":
        return database.table(statement["table"]).delete(statement["where"])
    if kind == "begin":
        database.begin()
        return None
    if kind == "commit":
        database.commit()
        return None
    if kind == "rollback":
        database.rollback()
        return None
    if kind == "savepoint":
        database.savepoint(statement["name"])
        return None
    if kind == "rollback_to_savepoint":
        database.rollback_to_savepoint(statement["name"])
        return None
    if kind == "release_savepoint":
        database.release_savepoint(statement["name"])
        return None
    raise SqlError(f"unsupported statement kind {kind!r}")
