"""Query predicates.

Predicates are small composable objects evaluated against a row dict.  They
also expose enough structure (``equality_bindings`` / ``set_bindings`` /
``membership_bindings``) for the table layer to route a query through a hash
or inverted index instead of a full scan.

Example:
    >>> from repro.relstore.predicate import col
    >>> pred = (col("part_id") == "P07") & (col("score") >= 0.5)
    >>> pred({"part_id": "P07", "score": 0.8})
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

Row = Mapping[str, Any]


class Predicate:
    """Base class for all predicates.  Instances are callable on row dicts."""

    def __call__(self, row: Row) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)

    def equality_bindings(self) -> dict[str, Any]:
        """Column->value bindings that *must* hold for the predicate.

        Only bindings implied conjunctively are returned, so using any one of
        them to pre-filter rows through a hash index is sound (the predicate
        is still re-checked on the narrowed set).
        """
        return {}

    def set_bindings(self) -> dict[str, frozenset]:
        """Column->value-set bindings of conjunctive ``IN`` constraints.

        Sound for probing a hash index once per value, like
        :meth:`equality_bindings` for one value.
        """
        return {}

    def membership_bindings(self) -> dict[str, Any]:
        """Column->element bindings of conjunctive ``contains`` constraints.

        Suitable for routing through an inverted index on a JSON-list column.
        """
        return {}


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row."""

    def __call__(self, row: Row) -> bool:
        return True


#: Singleton matching every row; used when a query has no WHERE clause.
ALWAYS = TruePredicate()


@dataclass(frozen=True)
class Comparison(Predicate):
    """Compare one column against a constant with a binary operator."""

    column: str
    op: str
    value: Any

    _OPS: dict[str, Callable[[Any, Any], bool]] = None

    def __call__(self, row: Row) -> bool:
        actual = row.get(self.column)
        if self.op == "==":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        if actual is None:
            return False
        if self.op == "<":
            return actual < self.value
        if self.op == "<=":
            return actual <= self.value
        if self.op == ">":
            return actual > self.value
        if self.op == ">=":
            return actual >= self.value
        raise ValueError(f"unknown operator {self.op!r}")

    def equality_bindings(self) -> dict[str, Any]:
        if self.op == "==":
            return {self.column: self.value}
        return {}


@dataclass(frozen=True)
class IsNull(Predicate):
    """True where the column is NULL (or absent)."""

    column: str

    def __call__(self, row: Row) -> bool:
        return row.get(self.column) is None


@dataclass(frozen=True)
class InSet(Predicate):
    """True where the column value is one of the given values."""

    column: str
    values: frozenset

    def __call__(self, row: Row) -> bool:
        return row.get(self.column) in self.values

    def set_bindings(self) -> dict[str, frozenset]:
        return {self.column: self.values}


@dataclass(frozen=True)
class Contains(Predicate):
    """True where a JSON-list column contains *element*."""

    column: str
    element: Any

    def __call__(self, row: Row) -> bool:
        value = row.get(self.column)
        return isinstance(value, (list, tuple)) and self.element in value

    def membership_bindings(self) -> dict[str, Any]:
        return {self.column: self.element}


@dataclass(frozen=True)
class ContainsAny(Predicate):
    """True where a JSON-list column shares at least one of *elements*."""

    column: str
    elements: frozenset

    def __call__(self, row: Row) -> bool:
        value = row.get(self.column)
        if not isinstance(value, (list, tuple)):
            return False
        return any(element in self.elements for element in value)


@dataclass(frozen=True)
class Like(Predicate):
    """SQL-style LIKE on a TEXT column: ``%`` any run, ``_`` one char.

    Matching is case-insensitive (the pragmatic choice for searching messy
    report text).
    """

    column: str
    pattern: str

    def __call__(self, row: Row) -> bool:
        value = row.get(self.column)
        if not isinstance(value, str):
            return False
        return _like_match(self.pattern.lower(), value.lower())


def _like_match(pattern: str, text: str) -> bool:
    """Iterative LIKE matcher (no regex compilation per row)."""
    import re
    regex = "".join(
        ".*" if char == "%" else "." if char == "_" else re.escape(char)
        for char in pattern)
    return re.fullmatch(regex, text, re.DOTALL) is not None


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    parts: tuple[Predicate, ...]

    def __call__(self, row: Row) -> bool:
        return all(part(row) for part in self.parts)

    def equality_bindings(self) -> dict[str, Any]:
        bindings: dict[str, Any] = {}
        for part in self.parts:
            bindings.update(part.equality_bindings())
        return bindings

    def set_bindings(self) -> dict[str, frozenset]:
        bindings: dict[str, frozenset] = {}
        for part in self.parts:
            bindings.update(part.set_bindings())
        return bindings

    def membership_bindings(self) -> dict[str, Any]:
        bindings: dict[str, Any] = {}
        for part in self.parts:
            bindings.update(part.membership_bindings())
        return bindings


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    parts: tuple[Predicate, ...]

    def __call__(self, row: Row) -> bool:
        return any(part(row) for part in self.parts)


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    inner: Predicate

    def __call__(self, row: Row) -> bool:
        return not self.inner(row)


@dataclass(frozen=True)
class Lambda(Predicate):
    """Escape hatch: wrap an arbitrary row function as a predicate."""

    func: Callable[[Row], bool]

    def __call__(self, row: Row) -> bool:
        return bool(self.func(row))


class ColumnRef:
    """Fluent builder for column predicates; create via :func:`col`."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __eq__(self, value: Any) -> Comparison:  # type: ignore[override]
        return Comparison(self._name, "==", value)

    def __ne__(self, value: Any) -> Comparison:  # type: ignore[override]
        return Comparison(self._name, "!=", value)

    def __lt__(self, value: Any) -> Comparison:
        return Comparison(self._name, "<", value)

    def __le__(self, value: Any) -> Comparison:
        return Comparison(self._name, "<=", value)

    def __gt__(self, value: Any) -> Comparison:
        return Comparison(self._name, ">", value)

    def __ge__(self, value: Any) -> Comparison:
        return Comparison(self._name, ">=", value)

    def __hash__(self) -> int:
        return hash(self._name)

    def is_null(self) -> IsNull:
        """Predicate matching rows where this column is NULL."""
        return IsNull(self._name)

    def is_not_null(self) -> Predicate:
        """Predicate matching rows where this column is not NULL."""
        return Not(IsNull(self._name))

    def in_(self, values: Iterable[Any]) -> InSet:
        """Predicate matching rows whose value is among *values*."""
        return InSet(self._name, frozenset(values))

    def contains(self, element: Any) -> Contains:
        """Predicate matching rows whose JSON-list value contains *element*."""
        return Contains(self._name, element)

    def contains_any(self, elements: Iterable[Any]) -> ContainsAny:
        """Predicate matching rows sharing any of *elements* in a JSON list."""
        return ContainsAny(self._name, frozenset(elements))

    def like(self, pattern: str) -> Like:
        """SQL-style LIKE (case-insensitive; ``%`` and ``_`` wildcards)."""
        return Like(self._name, pattern)


def col(name: str) -> ColumnRef:
    """Return a fluent reference to column *name* for building predicates."""
    return ColumnRef(name)
