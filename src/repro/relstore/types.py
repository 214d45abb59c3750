"""Column types, columns and table schemas.

The store supports a deliberately small set of column types that covers
everything QATK needs to persist: identifiers and counters (``INTEGER``),
scores (``REAL``), report text and codes (``TEXT``), flags (``BOOLEAN``) and
feature sets / nested records (``JSON``).

Values are validated and, where unambiguous, coerced on insert so that a
table never holds a value outside its declared type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .errors import SchemaError

#: Sentinel distinguishing "no default" from "default None".
NO_DEFAULT = object()


class ColumnType(enum.Enum):
    """Supported column value types."""

    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    BOOLEAN = "boolean"
    JSON = "json"

    @classmethod
    def parse(cls, name: str) -> "ColumnType":
        """Return the type named *name* (case-insensitive).

        Raises:
            SchemaError: if *name* is not a known type name.
        """
        try:
            return cls(name.strip().lower())
        except ValueError:
            known = ", ".join(t.value for t in cls)
            raise SchemaError(f"unknown column type {name!r}; expected one of {known}") from None


def _is_json_value(value: Any) -> bool:
    """Return True if *value* is representable as JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_json_value(item) for item in value)
    if isinstance(value, dict):
        return all(isinstance(key, str) and _is_json_value(val) for key, val in value.items())
    return False


def coerce_value(value: Any, column_type: ColumnType) -> Any:
    """Validate *value* against *column_type*, coercing where unambiguous.

    ``None`` passes through unchanged (nullability is checked separately by
    :meth:`Column.check`). Ints are accepted for REAL columns and widened to
    float; bools are *not* accepted as integers (explicit is better than
    implicit). Tuples and sets stored in JSON columns are converted to lists.

    Raises:
        SchemaError: if the value cannot be stored in the column type.
    """
    if value is None:
        return None
    if column_type is ColumnType.INTEGER:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"expected int, got {type(value).__name__}: {value!r}")
        return value
    if column_type is ColumnType.REAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"expected number, got {type(value).__name__}: {value!r}")
        return float(value)
    if column_type is ColumnType.TEXT:
        if not isinstance(value, str):
            raise SchemaError(f"expected str, got {type(value).__name__}: {value!r}")
        return value
    if column_type is ColumnType.BOOLEAN:
        if not isinstance(value, bool):
            raise SchemaError(f"expected bool, got {type(value).__name__}: {value!r}")
        return value
    # JSON
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if isinstance(value, tuple):
        value = list(value)
    if not _is_json_value(value):
        raise SchemaError(f"value is not JSON-representable: {value!r}")
    return value


#: The exact Python type each scalar column type stores; a value of that
#: type passes :func:`coerce_value` unchanged.
_STORED_AS: dict[ColumnType, type] = {
    ColumnType.INTEGER: int,
    ColumnType.REAL: float,
    ColumnType.TEXT: str,
    ColumnType.BOOLEAN: bool,
}


@dataclass(frozen=True)
class Column:
    """A single table column.

    Attributes:
        name: column name; must be a valid identifier.
        type: the :class:`ColumnType` of stored values.
        nullable: whether ``None`` is allowed.
        default: value used when an insert omits the column.  Use the module
            sentinel :data:`NO_DEFAULT` (the dataclass default) for "required".
    """

    name: str
    type: ColumnType
    nullable: bool = True
    default: Any = NO_DEFAULT
    _stored_as: type | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"column name {self.name!r} is not a valid identifier")
        # Frozen, so the stored type is looked up once, not per value.
        object.__setattr__(self, "_stored_as", _STORED_AS.get(self.type))

    @property
    def has_default(self) -> bool:
        """Whether inserts may omit this column."""
        return self.default is not NO_DEFAULT

    def check(self, value: Any) -> Any:
        """Validate and coerce *value* for this column.

        Raises:
            SchemaError: on a type mismatch or a null in a NOT NULL column.
        """
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is NOT NULL")
            return None
        if type(value) is self._stored_as:
            return value  # already the stored type: nothing to coerce
        try:
            return coerce_value(value, self.type)
        except SchemaError as exc:
            raise SchemaError(f"column {self.name!r}: {exc}") from None


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Column` objects.

    Attributes:
        columns: the ordered columns.
        primary_key: optional name of a column whose values must be unique
            and non-null; the table keeps a unique index on it.
    """

    columns: tuple[Column, ...]
    primary_key: str | None = None
    _by_name: Mapping[str, Column] = field(init=False, repr=False, compare=False, default=None)
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())
    _positions: Mapping[str, int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema: {names}")
        if not names:
            raise SchemaError("a schema needs at least one column")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(f"primary key {self.primary_key!r} is not a column")
        object.__setattr__(self, "_by_name", {column.name: column for column in self.columns})
        # Frozen, so the name tuple and positions are computed once.
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_positions", {name: position for position, name in enumerate(names)})

    @classmethod
    def build(
        cls,
        columns: Iterable[Column | tuple[str, ColumnType] | tuple[str, str]],
        primary_key: str | None = None,
    ) -> "Schema":
        """Build a schema from columns or ``(name, type)`` shorthand pairs."""
        built: list[Column] = []
        for spec in columns:
            if isinstance(spec, Column):
                built.append(spec)
            else:
                name, column_type = spec
                if isinstance(column_type, str):
                    column_type = ColumnType.parse(column_type)
                built.append(Column(name, column_type))
        return cls(tuple(built), primary_key=primary_key)

    @property
    def column_names(self) -> tuple[str, ...]:
        """The column names, in declaration order."""
        return self._names

    def column(self, name: str) -> Column:
        """Return the column called *name*.

        Raises:
            SchemaError: if no such column exists.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column {name!r}; have {self.column_names}") from None

    def has_column(self, name: str) -> bool:
        """Whether a column called *name* exists."""
        return name in self._by_name

    def index_of(self, name: str) -> int:
        """Positional index of column *name* within a stored row tuple."""
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"no column {name!r}; have {self._names}") from None

    def normalize(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        """Turn a column->value mapping into a validated row tuple.

        Missing columns take their default; unknown keys are rejected.

        Raises:
            SchemaError: on unknown columns, missing required columns, or
                type mismatches.
        """
        if not self._by_name.keys() >= values.keys():
            unknown = set(values) - set(self._by_name)
            raise SchemaError(f"unknown columns {sorted(unknown)}; have {self.column_names}")
        row: list[Any] = []
        for column in self.columns:
            if column.name in values:
                row.append(column.check(values[column.name]))
            elif column.has_default:
                row.append(column.check(column.default))
            elif column.nullable:
                row.append(None)
            else:
                raise SchemaError(f"missing required column {column.name!r}")
        return tuple(row)

    def as_dict(self, row: Sequence[Any]) -> dict[str, Any]:
        """Turn a stored row tuple back into a column->value dict."""
        return dict(zip(self.column_names, row))

    def to_json(self) -> dict[str, Any]:
        """A JSON-serializable description of this schema (for the catalog)."""
        return {
            "primary_key": self.primary_key,
            "columns": [
                {
                    "name": column.name,
                    "type": column.type.value,
                    "nullable": column.nullable,
                    **({"default": column.default} if column.has_default else {}),
                }
                for column in self.columns
            ],
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "Schema":
        """Inverse of :meth:`to_json`."""
        columns = tuple(
            Column(
                name=entry["name"],
                type=ColumnType.parse(entry["type"]),
                nullable=entry.get("nullable", True),
                default=entry["default"] if "default" in entry else NO_DEFAULT,
            )
            for entry in payload["columns"]
        )
        return cls(columns, primary_key=payload.get("primary_key"))
