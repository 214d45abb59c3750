"""Secondary indexes for tables.

Three index kinds cover QATK's access patterns:

* :class:`HashIndex` — equality lookup on a scalar column (e.g. the knowledge
  base's ``part_id`` filter, step 2 of candidate selection in the paper's
  Fig. 5).
* :class:`UniqueIndex` — a hash index that additionally enforces uniqueness
  (primary keys such as a bundle's reference number).
* :class:`InvertedIndex` — maps each *element* of a JSON-list column to the
  rows containing it (the "shares at least one concept/word" filter, step 3
  of Fig. 5).

Indexes store row ids, never row data, and are maintained incrementally on
insert/update/delete by the owning :class:`~repro.relstore.table.Table`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from .errors import IntegrityError, SchemaError


class BaseIndex:
    """Common interface of all index kinds."""

    kind = "base"

    def __init__(self, name: str, column: str) -> None:
        self.name = name
        self.column = column

    def add(self, row_id: int, value: Any) -> None:
        """Register *row_id* under *value*."""
        raise NotImplementedError

    def remove(self, row_id: int, value: Any) -> None:
        """Remove the registration of *row_id* under *value*."""
        raise NotImplementedError

    def lookup(self, key: Any) -> set[int]:
        """Return the row ids registered under *key* (empty set if none)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop all entries."""
        raise NotImplementedError

    def check_batch(self, rows: Iterable[tuple[int, Any]]) -> None:
        """Raise before any change if :meth:`add` would refuse one of
        the ``(row_id, value)`` pairs in *rows*; a plain hash index
        takes any value."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} on {self.column!r}>"


class HashIndex(BaseIndex):
    """Equality index on a scalar column. NULLs are not indexed."""

    kind = "hash"

    def __init__(self, name: str, column: str) -> None:
        super().__init__(name, column)
        self._entries: dict[Any, set[int]] = {}

    def add(self, row_id: int, value: Any) -> None:
        if value is None:
            return
        self._entries.setdefault(self._key(value), set()).add(row_id)

    def remove(self, row_id: int, value: Any) -> None:
        if value is None:
            return
        key = self._key(value)
        bucket = self._entries.get(key)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._entries[key]

    def lookup(self, key: Any) -> set[int]:
        return set(self._entries.get(self._key(key), ()))

    def keys(self) -> Iterator[Any]:
        """Iterate over the distinct indexed keys."""
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(value: Any) -> Any:
        # JSON columns may hold lists; make them hashable deterministically.
        if isinstance(value, list):
            return tuple(HashIndex._key(item) for item in value)
        if isinstance(value, dict):
            return tuple(sorted((key, HashIndex._key(val)) for key, val in value.items()))
        return value


class UniqueIndex(HashIndex):
    """Hash index enforcing at most one row per key."""

    kind = "unique"

    def add(self, row_id: int, value: Any) -> None:
        if value is None:
            raise IntegrityError(f"unique column {self.column!r} cannot be NULL")
        key = self._key(value)
        existing = self._entries.get(key)
        if existing and row_id not in existing:
            raise IntegrityError(f"duplicate value {value!r} for unique column {self.column!r}")
        self._entries[key] = {row_id}

    def check_batch(self, rows: Iterable[tuple[int, Any]]) -> None:
        """Raise as :meth:`add` would if every ``(row_id, value)`` in
        *rows* took its value at once (new rows under fresh ids, or
        updated rows): on a NULL, a key still held by a row outside
        *rows*, or a key two of them take."""
        batch = dict(rows)
        seen: set[Any] = set()
        for value in batch.values():
            if value is None:
                raise IntegrityError(
                    f"unique column {self.column!r} cannot be NULL")
            key = self._key(value)
            holders = self._entries.get(key)
            if key in seen or (holders and any(holder not in batch
                                               for holder in holders)):
                raise IntegrityError(
                    f"duplicate value {value!r} for unique column {self.column!r}")
            seen.add(key)

    def lookup_one(self, key: Any) -> int | None:
        """Return the single row id for *key*, or None."""
        bucket = self._entries.get(self._key(key))
        if not bucket:
            return None
        return next(iter(bucket))


class InvertedIndex(BaseIndex):
    """Element index on a JSON-list column.

    For a row whose column value is ``["c12", "c99"]`` the row id is
    registered under both ``"c12"`` and ``"c99"``.  Non-list values (including
    NULL) are not indexed.
    """

    kind = "inverted"

    def __init__(self, name: str, column: str) -> None:
        super().__init__(name, column)
        self._entries: dict[Any, set[int]] = {}

    def add(self, row_id: int, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            return
        for element in value:
            self._entries.setdefault(element, set()).add(row_id)

    def check_batch(self, rows: Iterable[tuple[int, Any]]) -> None:
        """Raise SchemaError if a list value in *rows* holds an element
        that cannot be a key (a nested list or object)."""
        for _, value in rows:
            if not isinstance(value, (list, tuple)):
                continue
            try:
                hash(tuple(value))  # hashes every element, as add needs
            except TypeError:
                raise SchemaError(
                    f"inverted index {self.name!r} on {self.column!r} "
                    f"cannot key every element of {value!r}") from None

    def remove(self, row_id: int, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            return
        for element in set(value):
            bucket = self._entries.get(element)
            if bucket is not None:
                bucket.discard(row_id)
                if not bucket:
                    del self._entries[element]

    def lookup(self, key: Any) -> set[int]:
        return set(self._entries.get(key, ()))

    def lookup_any(self, elements: Any) -> set[int]:
        """Union of row ids registered under any of *elements*."""
        result: set[int] = set()
        for element in elements:
            bucket = self._entries.get(element)
            if bucket:
                result |= bucket
        return result

    def keys(self) -> Iterator[Any]:
        """Iterate over the distinct indexed elements."""
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Mapping from persisted index-kind names to classes (used by the catalog).
INDEX_KINDS: dict[str, type[BaseIndex]] = {
    HashIndex.kind: HashIndex,
    UniqueIndex.kind: UniqueIndex,
    InvertedIndex.kind: InvertedIndex,
}
