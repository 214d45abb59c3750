"""The knowledge base: dedup, indexes and candidate retrieval (§4.3, Fig. 5).

Knowledge nodes live in a relational table (part ID hash index + inverted
feature index), as in the paper's prototype, which "stores these instances
in a relational database with on-the-fly access to further address memory
concerns".  Candidate retrieval follows Fig. 5:

1. start from all knowledge nodes,
2. keep the nodes with the same part ID as the bundle to classify
   (fallback: *all* nodes when the part ID is unknown),
3. keep the nodes sharing at least one feature with the bundle.

On the classification hot path the steps are answered from an immutable
:class:`FrozenKnowledgeView` (interned nodes + posting lists).  The table
stays the source of truth: every committed unit of work publishes one new
view derived from the rows it touched, so readers take no lock and never
see an uncommitted or rolled-back write.
"""

from __future__ import annotations

import copy
from collections import Counter
from itertools import chain, count
from typing import Iterable, Iterator

from ..data.bundle import DataBundle
from ..relstore import Column, ColumnType, Database, QueryError, Schema
from .extractor import FeatureExtractor, extract_training_features
from .node import KnowledgeNode

NODE_SCHEMA = Schema.build(
    [
        Column("part_id", ColumnType.TEXT, nullable=False),
        Column("error_code", ColumnType.TEXT, nullable=False),
        Column("features", ColumnType.JSON, nullable=False),
        Column("support", ColumnType.INTEGER, nullable=False),
    ],
)

#: One Fig. 5 candidate: a node and how many features it shares with
#: the bundle under classification.
Candidate = tuple[KnowledgeNode, int]

#: One exported knowledge row: (row id, part id, error code, sorted
#: feature tuple, support).  Row ids are preserved across export/import so
#: candidate ordering — and therefore every ranked list — is identical on
#: both sides of a process boundary.
KnowledgeRow = tuple[int, str, str, tuple[str, ...], int]

#: One process-wide counter stamps every ``_Part`` and every view when it
#: is created.  Parts and views are immutable once published, so equal
#: stamps mean the same, unchanged object: a reader's cache can key an
#: answer on the stamp without holding the object itself.
_stamps = count(1)


class _Part:
    """One part's share of a view: its nodes by row id, their dedup keys
    (error code, features), its feature posting lists and its stamp."""

    __slots__ = ("nodes", "keys", "postings", "stamp")

    def __init__(self, shared: "_Part | None" = None) -> None:
        self.stamp = next(_stamps)
        # A copy shares the posting lists themselves; a change copies
        # each list it touches (see FrozenKnowledgeView._apply).
        self.nodes: dict[int, KnowledgeNode] = (
            dict(shared.nodes) if shared else {})
        self.keys: dict[tuple, int] = dict(shared.keys) if shared else {}
        self.postings: dict[str, dict[int, None]] = (
            dict(shared.postings) if shared else {})

    def forget_key(self, row_id: int, node: KnowledgeNode) -> None:
        key = (node.error_code, node.features)
        if self.keys.get(key) == row_id:
            del self.keys[key]

    def count(self, features: Iterable[str]) -> Counter:
        """Shared-feature counts of this part's rows sharing a feature."""
        return Counter(chain.from_iterable(
            bucket for bucket in map(self.postings.get, features) if bucket))


class FrozenKnowledgeView:
    """An immutable knowledge base: interned nodes plus posting lists.

    Fig. 5 retrieval is pure dict work here: per part, one node object
    per row (feature frozensets shared through a pool) and the feature
    posting lists.  A posting list is a dict of row ids used as a set:
    counting iterates its compact entries faster than a set's sparse
    table.

    A view never changes once built.  :meth:`with_changes` derives a new
    one that copies only what a change touches (the touched parts' node,
    key and posting dicts and the touched posting lists) and shares the
    rest, so a reader holding a view needs no lock.  An untouched part
    is the same object, with the same :meth:`part_stamp`, in both views;
    a touched part and the view itself get fresh stamps.  The live
    :class:`KnowledgeBase` publishes one per committed write; the
    Fig. 5/7 reference oracle builds one from exported rows.  Rows carry
    distinct dedup keys (part, code, features), as a knowledge base's
    rows do.
    """

    def __init__(self, rows: Iterable[KnowledgeRow] = (),
                 feature_kind: str = "features") -> None:
        self.feature_kind = feature_kind
        #: This view's stamp (see ``_stamps``).
        self.stamp = next(_stamps)
        self._pool: dict[frozenset[str], frozenset[str]] = {}
        self._parts: dict[str, _Part] = {}
        self._apply(rows, ())

    def with_changes(self, upserts: Iterable[KnowledgeRow] = (),
                     removed: Iterable[int] = ()) -> "FrozenKnowledgeView":
        """A new view with the rows *removed*, then *upserts* applied.

        An upsert adds a row or replaces the one under its id; removing an
        absent id is a no-op.  This view stays as it is.  The feature pool
        is shared: interning never changes an answer.
        """
        view = copy.copy(self)
        view.stamp = next(_stamps)
        view._parts = dict(self._parts)
        view._apply(upserts, removed)
        return view

    def _apply(self, upserts: Iterable[KnowledgeRow],
               removed: Iterable[int]) -> None:
        """Mutate this view while it is still private to its builder.

        *copied* maps each part this change copied to the features whose
        posting lists it copied too.  Only those are mutated; everything
        else may be shared with the view this one derives from.
        """
        copied: dict[str, set[str]] = {}
        for row_id in removed:
            found = self._locate(row_id)
            if found is not None:
                self._unlink(row_id, found, copied)
        for row_id, part_id, error_code, features, support in upserts:
            features = frozenset(features)
            features = self._pool.setdefault(features, features)
            node = KnowledgeNode(part_id, error_code, features, support)
            old = self._locate(row_id)
            if (old is not None and old.part_id == part_id
                    and old.features is features):
                # same postings: only the node and its key change
                part, _ = self._writable(part_id, copied)
                part.forget_key(row_id, old)
            else:
                if old is not None:
                    self._unlink(row_id, old, copied)
                part, lists = self._writable(part_id, copied)
                for feature in features:
                    if feature not in lists:
                        lists.add(feature)
                        part.postings[feature] = dict(
                            part.postings.get(feature, {}))
                    part.postings[feature][row_id] = None
            part.keys[error_code, features] = row_id
            part.nodes[row_id] = node

    def _locate(self, row_id: int) -> KnowledgeNode | None:
        for part in self._parts.values():
            node = part.nodes.get(row_id)
            if node is not None:
                return node
        return None

    def _writable(self, part_id: str, copied: dict) -> tuple[_Part, set]:
        lists = copied.get(part_id)
        if lists is None:
            lists = copied[part_id] = set()
            self._parts[part_id] = _Part(self._parts.get(part_id))
        return self._parts[part_id], lists

    def _unlink(self, row_id: int, node: KnowledgeNode,
                copied: dict) -> None:
        part, lists = self._writable(node.part_id, copied)
        del part.nodes[row_id]
        if not part.nodes:  # the part's last node
            del self._parts[node.part_id]
            del copied[node.part_id]
            return
        part.forget_key(row_id, node)
        for feature in node.features:
            bucket = part.postings[feature]
            if len(bucket) == 1:  # the emptied list goes
                del part.postings[feature]
                lists.discard(feature)
                continue
            if feature not in lists:
                lists.add(feature)
                bucket = part.postings[feature] = dict(bucket)
            del bucket[row_id]

    def __len__(self) -> int:
        return sum(len(part.nodes) for part in self._parts.values())

    def _items(self) -> list[tuple[int, KnowledgeNode]]:
        """Every ``(row id, node)`` in row-id order."""
        return sorted(chain.from_iterable(
            part.nodes.items() for part in self._parts.values()))

    def nodes(self) -> Iterator[KnowledgeNode]:
        """All nodes in row-id order."""
        return (node for _, node in self._items())

    def row_id(self, key: tuple[str, str, frozenset[str]]) -> int | None:
        """The row id of the node with dedup *key*, or ``None``."""
        part_id, error_code, features = key
        part = self._parts.get(part_id)
        return part.keys.get((error_code, features)) if part else None

    def has_part(self, part_id: str) -> bool:
        """Whether the view holds any node for *part_id* (Fig. 5 step 2)."""
        return part_id in self._parts

    def part_stamp(self, part_id: str) -> int | None:
        """The stamp of *part_id*'s nodes, or ``None`` for an unknown
        part.  A later view gives the same stamp exactly when no write
        touched the part in between."""
        part = self._parts.get(part_id)
        return part.stamp if part is not None else None

    def candidates(self, part_id: str,
                   features: frozenset[str] | set[str]) -> list[Candidate]:
        """Fig. 5 candidates for (*part_id*, *features*), counted.

        Known part: that part's rows sharing >= 1 feature.  Unknown part:
        any row sharing a feature, else every row (the paper's fallback)
        with a count of 0.  One ``Counter`` over the matching posting
        lists yields each candidate's shared-feature count as a side
        effect of the union, so scoring needs no set intersection.
        Returns ``(node, shared)`` pairs in row-id order.
        """
        part = self._parts.get(part_id)
        if part is not None:
            shared = part.count(features)
            rows = sorted(shared)
            return list(zip(map(part.nodes.__getitem__, rows),
                            map(shared.__getitem__, rows)))
        matches = sorted(
            (row_id, part.nodes[row_id], count)
            for part in self._parts.values()
            for row_id, count in part.count(features).items())
        if not matches:
            return [(node, 0) for _, node in self._items()]
        return [(node, count) for _, node, count in matches]

    def export_rows(self) -> list[KnowledgeRow]:
        """Every node as a plain row, sorted by row id.

        A view built from the exported rows (with their original row
        ids) retrieves with byte-identical ordering.
        """
        return [(row_id, node.part_id, node.error_code,
                 tuple(sorted(node.features)), node.support)
                for row_id, node in self._items()]

    def __repr__(self) -> str:
        return (f"<FrozenKnowledgeView kind={self.feature_kind!r} "
                f"nodes={len(self)}>")


class KnowledgeBase:
    """Deduplicated knowledge nodes with index-backed candidate retrieval.

    Reads (:meth:`candidates`, :meth:`has_part`, :meth:`nodes`,
    :meth:`export_rows`) take the published :attr:`view` once per call.
    Writes go to the table and stage the row ids they touch; the staged
    rows are read back from the committed table and published as one new
    view after the enclosing relstore transaction commits, at once for an
    autocommit write, or on :meth:`publish` for a bulk load.  A rollback
    publishes nothing.  Writes are single-writer: concurrent writers must
    be serialized by the caller (the serving gateway's write lock is).
    """

    def __init__(self, feature_kind: str = "features",
                 database: Database | None = None,
                 table_name: str = "knowledge_nodes") -> None:
        self.feature_kind = feature_kind
        self._database = database if database is not None else Database("kb")
        self._table_name = table_name
        table = self._database.create_table(table_name, NODE_SCHEMA,
                                            if_not_exists=True)
        if f"ix_{table_name}_part" not in table.indexes:
            table.create_index(f"ix_{table_name}_part", "part_id")
            table.create_index(f"ix_{table_name}_features", "features",
                               inverted=True)
        self._table = table
        self._view = FrozenKnowledgeView(
            map(self._read_row, list(table.row_ids())), feature_kind)
        # Row ids written since the last publish, and the rows inserted
        # since then by dedup key: the writer's own not-yet-published
        # rows.  Both may name rows a rollback undid; every use checks
        # the table.
        self._staged: set[int] = set()
        self._inserted: dict[tuple, list[int]] = {}

    def _read_row(self, row_id: int) -> KnowledgeRow:
        row = self._table.get(row_id)
        return (row_id, row["part_id"], row["error_code"], row["features"],
                row["support"])

    # ------------------------------------------------------------------ #
    # construction

    def _find(self, key: tuple, features: list[str]) -> tuple[int, int] | None:
        """``(row id, support)`` of the row holding dedup *key*, as the
        calling writer sees the table (its own uncommitted rows
        included), or ``None``.  *features* is the key's sorted list."""
        published = self._view.row_id(key)
        for row_id in (*reversed(self._inserted.get(key, ())), published):
            if row_id is None:
                continue
            try:
                row = self._table.get(row_id)
            except QueryError:
                continue  # deleted, or its insert was rolled back
            if (row["features"] == features and row["part_id"] == key[0]
                    and row["error_code"] == key[1]):
                return row_id, row["support"]
        return None

    def add(self, node: KnowledgeNode, *, publish: bool = True) -> None:
        """Insert a node, merging support with an identical configuration.

        ``publish=False`` only stages the row (a bulk load calls
        :meth:`publish` once at its end).
        """
        key = node.key
        features = sorted(node.features)
        found = self._find(key, features)
        if found is not None:
            row_id, support = found
            self._table.update(row_id, {"support": support + node.support})
        else:
            row_id = self._table.insert({
                "part_id": node.part_id,
                "error_code": node.error_code,
                "features": features,
                "support": node.support,
            })
            self._inserted.setdefault(key, []).append(row_id)
        self._staged.add(row_id)
        if publish:
            self.publish()

    def add_observation(self, part_id: str, error_code: str,
                        features: Iterable[str], *,
                        publish: bool = True) -> None:
        """Record one classified data instance."""
        self.add(KnowledgeNode(part_id, error_code, frozenset(features)),
                 publish=publish)

    def remove_observation(self, part_id: str, error_code: str,
                           features: Iterable[str]) -> bool:
        """Retract one previously recorded instance.

        Needed when an expert *re-assigns* a bundle in QUEST: the old
        (wrong) code's evidence must not linger in the knowledge base.
        Decrements the matching configuration node's support, deleting the
        node when it reaches zero.  Returns False when no matching node
        exists (nothing to retract).
        """
        features = frozenset(features)
        found = self._find((part_id, error_code, features), sorted(features))
        if found is None:
            return False
        row_id, support = found
        if support > 1:
            self._table.update(row_id, {"support": support - 1})
        else:
            self._table.delete_row(row_id)
        self._staged.add(row_id)
        self.publish()
        return True

    def publish(self) -> None:
        """Publish the staged writes as one new :attr:`view`: after the
        calling thread's transaction commits, or at once outside one."""
        self._database.on_commit(self._publish_staged)

    def _publish_staged(self) -> None:
        staged, self._staged, self._inserted = self._staged, set(), {}
        upserts, removed = [], []
        for row_id in sorted(staged):
            try:
                upserts.append(self._read_row(row_id))
            except QueryError:
                removed.append(row_id)
        self._view = self._view.with_changes(upserts, removed)

    @classmethod
    def from_bundles(cls, bundles: Iterable[DataBundle],
                     extractor: FeatureExtractor,
                     database: Database | None = None) -> "KnowledgeBase":
        """Build a knowledge base from classified training bundles.

        Bundles without an error code are skipped (nothing to learn).
        """
        base = cls(feature_kind=extractor.name, database=database)
        for bundle in bundles:
            if bundle.error_code is None:
                continue
            features = extract_training_features(extractor, bundle)
            base.add_observation(bundle.part_id, bundle.error_code, features,
                                 publish=False)
        base.publish()
        return base

    # ------------------------------------------------------------------ #
    # introspection

    def __len__(self) -> int:
        """Number of (deduplicated) knowledge nodes."""
        return len(self._table)

    @property
    def database(self) -> Database:
        """The backing relational database."""
        return self._database

    @property
    def view(self) -> FrozenKnowledgeView:
        """The published view: replaced, never mutated, by writes."""
        return self._view

    def nodes(self) -> Iterator[KnowledgeNode]:
        """Iterate over all published nodes (row-id order, like a scan)."""
        return self._view.nodes()

    def part_ids(self) -> set[str]:
        """All part IDs with at least one node."""
        return {str(value) for value in self._table.distinct("part_id")}

    def has_part(self, part_id: str) -> bool:
        """Whether the published view holds any node for *part_id*."""
        return self._view.has_part(part_id)

    def error_codes(self, part_id: str | None = None) -> set[str]:
        """Error codes known to the base, optionally for one part ID."""
        from ..relstore import col
        predicate = col("part_id") == part_id if part_id is not None else None
        if predicate is None:
            return {str(v) for v in self._table.distinct("error_code")}
        return {str(v) for v in self._table.distinct("error_code", predicate)}

    def export_rows(self) -> list[KnowledgeRow]:
        """The published view's rows (see
        :meth:`FrozenKnowledgeView.export_rows`)."""
        return self._view.export_rows()

    def code_frequencies(self, part_id: str) -> dict[str, int]:
        """Support-weighted error-code frequencies for *part_id*.

        This feeds the code-frequency baseline (§5.1).
        """
        from ..relstore import col
        frequencies: dict[str, int] = {}
        for row in self._table.select(col("part_id") == part_id):
            frequencies[row["error_code"]] = (frequencies.get(row["error_code"], 0)
                                              + row["support"])
        return frequencies

    # ------------------------------------------------------------------ #
    # candidate retrieval (Fig. 5)

    def candidates(self, part_id: str,
                   features: frozenset[str] | set[str]) -> list[Candidate]:
        """The neighbour candidate set for a bundle under classification.

        Nodes with the bundle's part ID sharing >= 1 feature; all nodes of
        the part when nothing shares a feature is NOT the fallback — the
        paper falls back to *all* nodes only when the part ID itself is
        unknown to the knowledge base.  Each node comes with the number
        of features it shares with *features*, in row-id order.

        Served from the published view: no relstore row is touched, but
        the returned pairs and their order are identical to
        :meth:`candidates_from_store` on the committed table.
        """
        return self._view.candidates(part_id, features)

    def candidates_from_store(self, part_id: str,
                              features: frozenset[str] | set[str],
                              ) -> list[Candidate]:
        """Candidate retrieval straight from the relstore table (no view).

        The reference implementation the view is checked against (and the
        path of record before the view existed).  Uses the table's
        indexes when they exist and falls back to full scans when they
        were dropped or the table was supplied without them.  Shared
        counts come from intersecting each row's feature set.
        """
        part_index = self._table.index_for("part_id")
        feature_index = self._table.index_for("features", inverted=True)
        if part_index is not None:
            part_rows = part_index.lookup(part_id)
        else:
            part_rows = {row_id for row_id in self._table.row_ids()
                         if self._table.get(row_id)["part_id"] == part_id}
        if feature_index is not None:
            shared_rows = feature_index.lookup_any(features)
        else:
            wanted = set(features)
            shared_rows = {row_id for row_id in self._table.row_ids()
                           if wanted.intersection(
                               self._table.get(row_id)["features"])}
        if not part_rows:
            # unknown part ID -> all nodes sharing a feature, else all nodes
            row_ids = shared_rows if shared_rows else set(self._table.row_ids())
        else:
            row_ids = part_rows & shared_rows
        candidates = []
        for row_id in sorted(row_ids):
            row = self._table.get(row_id)
            node = KnowledgeNode(row["part_id"], row["error_code"],
                                 frozenset(row["features"]), row["support"])
            candidates.append((node, node.shared_features(features)))
        return candidates

    def __repr__(self) -> str:
        return (f"<KnowledgeBase kind={self.feature_kind!r} "
                f"nodes={len(self)} parts={len(self.part_ids())}>")
