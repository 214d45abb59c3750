"""The knowledge base: dedup, indexes and candidate retrieval (§4.3, Fig. 5).

Knowledge nodes live in a relational table (part ID hash index + inverted
feature index), as in the paper's prototype, which "stores these instances
in a relational database with on-the-fly access to further address memory
concerns".  Candidate retrieval follows Fig. 5:

1. start from all knowledge nodes,
2. keep the nodes with the same part ID as the bundle to classify
   (fallback: *all* nodes when the part ID is unknown),
3. keep the nodes sharing at least one feature with the bundle.

On the classification hot path the steps are answered from a write-through
:class:`NodeCache` (interned nodes + posting lists) kept in sync with the
relstore table on every mutation; the table remains the durable source of
truth for persistence and SQL-style queries.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Iterator

from ..data.bundle import DataBundle
from ..relstore import Column, ColumnType, Database, Schema
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


class NodeCache:
    """Write-through materialized view of the knowledge-node table.

    Candidate retrieval (Fig. 5) used to re-materialize a
    :class:`KnowledgeNode` from a relstore row dict for every candidate of
    every classification — by far the dominant cost of a ``classify``
    call.  The cache keeps one interned node object per row (feature
    frozensets shared through a pool) plus per-part and global feature
    posting lists, so retrieval is pure dict work.  A posting list is a
    dict of row ids used as a set: counting iterates its compact entries
    faster than a set's sparse table, and unlinking a row stays O(1).
    The owning :class:`KnowledgeBase` mirrors every table mutation into
    the cache, which keeps the cached answer bit-identical to the
    relstore-backed path (see :meth:`KnowledgeBase.candidates_from_store`).
    """

    def __init__(self) -> None:
        self._nodes: dict[int, KnowledgeNode] = {}
        self._part_rows: dict[str, set[int]] = {}
        # part_id -> feature -> row ids: candidate retrieval for a known
        # part counts only that part's posting lists.
        self._part_feature_rows: dict[str, dict[str, dict[int, None]]] = {}
        # global feature -> row ids, for the unknown-part fallback.
        self._feature_rows: dict[str, dict[int, None]] = {}
        self._feature_pool: dict[frozenset[str], frozenset[str]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def intern_features(self, features: Iterable[str]) -> frozenset[str]:
        """A pooled frozenset equal to *features* (shared across nodes)."""
        features = frozenset(features)
        return self._feature_pool.setdefault(features, features)

    def node(self, row_id: int) -> KnowledgeNode:
        """The cached node stored under *row_id*."""
        return self._nodes[row_id]

    def nodes(self) -> Iterator[KnowledgeNode]:
        """All cached nodes in row-id (= insertion) order."""
        return iter(self._nodes.values())

    def put(self, row_id: int, node: KnowledgeNode) -> KnowledgeNode:
        """Register *node* under *row_id*; returns the interned copy."""
        interned = KnowledgeNode(node.part_id, node.error_code,
                                 self.intern_features(node.features),
                                 node.support)
        self._nodes[row_id] = interned
        self._part_rows.setdefault(interned.part_id, set()).add(row_id)
        postings = self._part_feature_rows.setdefault(interned.part_id, {})
        for feature in interned.features:
            postings.setdefault(feature, {})[row_id] = None
            self._feature_rows.setdefault(feature, {})[row_id] = None
        return interned

    def set_support(self, row_id: int, support: int) -> KnowledgeNode:
        """Replace the support of the node under *row_id* (postings keep)."""
        node = self._nodes[row_id].with_support(support)
        self._nodes[row_id] = node
        return node

    def discard(self, row_id: int) -> None:
        """Forget *row_id* and unlink it from all posting lists."""
        node = self._nodes.pop(row_id, None)
        if node is None:
            return
        part_rows = self._part_rows.get(node.part_id)
        if part_rows is not None:
            part_rows.discard(row_id)
            if not part_rows:
                del self._part_rows[node.part_id]
                self._part_feature_rows.pop(node.part_id, None)
        postings = self._part_feature_rows.get(node.part_id)
        for feature in node.features:
            if postings is not None:
                bucket = postings.get(feature)
                if bucket is not None:
                    bucket.pop(row_id, None)
                    if not bucket:
                        del postings[feature]
            global_bucket = self._feature_rows.get(feature)
            if global_bucket is not None:
                global_bucket.pop(row_id, None)
                if not global_bucket:
                    del self._feature_rows[feature]

    def clear(self) -> None:
        """Drop all cached nodes and posting lists."""
        self._nodes.clear()
        self._part_rows.clear()
        self._part_feature_rows.clear()
        self._feature_rows.clear()
        self._feature_pool.clear()

    def has_part(self, part_id: str) -> bool:
        """Whether any cached node carries *part_id* (Fig. 5 step 2)."""
        return (part_id in self._part_rows
                or part_id in self._part_feature_rows)

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
        postings = self._part_feature_rows.get(part_id)
        unknown = postings is None
        if unknown:
            postings = self._feature_rows
        shared = Counter(chain.from_iterable(
            bucket for bucket in map(postings.get, features) if bucket))
        if not shared and unknown:
            shared = dict.fromkeys(self._nodes, 0)
        rows = sorted(shared)
        return list(zip(map(self._nodes.__getitem__, rows),
                        map(shared.__getitem__, rows)))


#: One exported knowledge row: (row id, part id, error code, sorted
#: feature tuple, support).  Row ids are preserved across export/import so
#: candidate ordering — and therefore every ranked list — is identical on
#: both sides of a process boundary.
KnowledgeRow = tuple[int, str, str, tuple[str, ...], int]


class FrozenKnowledgeView:
    """A read-only knowledge base rebuilt from exported rows.

    Read replicas classify against this view: it answers
    :meth:`candidates` exactly like :class:`KnowledgeBase.candidates`
    (same :class:`NodeCache` machinery, same row ids, same ordering) but
    carries no relstore, no indexes and no write paths — nothing a replica
    could mutate behind the primary's back.
    """

    def __init__(self, rows: Iterable[KnowledgeRow],
                 feature_kind: str = "features") -> None:
        self.feature_kind = feature_kind
        self._cache = NodeCache()
        self._rows: list[KnowledgeRow] = []
        for row_id, part_id, error_code, features, support in sorted(rows):
            node = KnowledgeNode(part_id, error_code, frozenset(features),
                                 support)
            self._cache.put(row_id, node)
            self._rows.append((row_id, part_id, error_code,
                               tuple(sorted(features)), support))

    def __len__(self) -> int:
        return len(self._cache)

    def nodes(self) -> Iterator[KnowledgeNode]:
        """All nodes in row-id order."""
        return self._cache.nodes()

    def has_part(self, part_id: str) -> bool:
        """Whether the view holds any node for *part_id*."""
        return self._cache.has_part(part_id)

    def candidates(self, part_id: str,
                   features: frozenset[str] | set[str]) -> list[Candidate]:
        """Fig. 5 candidate retrieval, identical to the live base's."""
        return self._cache.candidates(part_id, features)

    def export_rows(self) -> list[KnowledgeRow]:
        """The rows this view was built from (round-trip support)."""
        return list(self._rows)

    def __repr__(self) -> str:
        return (f"<FrozenKnowledgeView kind={self.feature_kind!r} "
                f"nodes={len(self)}>")


class KnowledgeBase:
    """Deduplicated knowledge nodes with index-backed candidate retrieval."""

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
        # Write-through node cache: every mutation below mirrors the table
        # change so candidates() never touches Table.get on the hot path.
        # Mutating the table behind the KnowledgeBase's back (raw inserts
        # on kb.database) is not supported — go through add/remove.
        self._cache = NodeCache()
        # (part_id, error_code, features) -> row id, for dedup on insert
        self._row_ids: dict[tuple, int] = {}
        self.reload()

    def reload(self) -> None:
        """Rebuild the node cache from the backing table.

        The cache is write-through, so it only diverges from the table
        when the table changes underneath it — the one supported case
        being a rolled-back transaction that had routed mutations
        through this knowledge base (the relstore undoes the rows; the
        cache kept the applied view).  Callers that roll back a
        transaction covering knowledge writes must call this before the
        next read.
        """
        self._cache = NodeCache()
        self._row_ids = {}
        for row_id in list(self._table.row_ids()):
            row = self._table.get(row_id)
            node = self._cache.put(row_id, KnowledgeNode(
                row["part_id"], row["error_code"],
                frozenset(row["features"]), row["support"]))
            self._row_ids[node.key] = row_id

    # ------------------------------------------------------------------ #
    # construction

    def add(self, node: KnowledgeNode) -> None:
        """Insert a node, merging support with an identical configuration."""
        existing_row = self._row_ids.get(node.key)
        if existing_row is not None:
            merged = self._cache.node(existing_row).support + node.support
            self._table.update(existing_row, {"support": merged})
            self._cache.set_support(existing_row, merged)
            return
        row_id = self._table.insert({
            "part_id": node.part_id,
            "error_code": node.error_code,
            "features": sorted(node.features),
            "support": node.support,
        })
        interned = self._cache.put(row_id, node)
        self._row_ids[interned.key] = row_id

    def add_observation(self, part_id: str, error_code: str,
                        features: Iterable[str]) -> None:
        """Record one classified data instance."""
        self.add(KnowledgeNode(part_id, error_code, frozenset(features)))

    def remove_observation(self, part_id: str, error_code: str,
                           features: Iterable[str]) -> bool:
        """Retract one previously recorded instance.

        Needed when an expert *re-assigns* a bundle in QUEST: the old
        (wrong) code's evidence must not linger in the knowledge base.
        Decrements the matching configuration node's support, deleting the
        node when it reaches zero.  Returns False when no matching node
        exists (nothing to retract).
        """
        key = (part_id, error_code, frozenset(features))
        row_id = self._row_ids.get(key)
        if row_id is None:
            return False
        support = self._cache.node(row_id).support
        if support > 1:
            self._table.update(row_id, {"support": support - 1})
            self._cache.set_support(row_id, support - 1)
        else:
            self._table.delete_row(row_id)
            self._cache.discard(row_id)
            del self._row_ids[key]
        return True

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
            base.add_observation(bundle.part_id, bundle.error_code, features)
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

    def nodes(self) -> Iterator[KnowledgeNode]:
        """Iterate over all nodes (cached; row-id order, like a scan)."""
        return self._cache.nodes()

    def part_ids(self) -> set[str]:
        """All part IDs with at least one node."""
        return {str(value) for value in self._table.distinct("part_id")}

    def has_part(self, part_id: str) -> bool:
        """Whether the base holds any node for *part_id* (cache-backed)."""
        return self._cache.has_part(part_id)

    def error_codes(self, part_id: str | None = None) -> set[str]:
        """Error codes known to the base, optionally for one part ID."""
        from ..relstore import col
        predicate = col("part_id") == part_id if part_id is not None else None
        if predicate is None:
            return {str(v) for v in self._table.distinct("error_code")}
        return {str(v) for v in self._table.distinct("error_code", predicate)}

    def export_rows(self) -> list[KnowledgeRow]:
        """Every node as a plain picklable row, sorted by row id.

        The exported rows (with their original row ids) are what a
        :class:`ModelSnapshot` payload ships to read replicas;
        :class:`FrozenKnowledgeView` rebuilds candidate retrieval from
        them with byte-identical ordering.
        """
        rows: list[KnowledgeRow] = []
        for key, row_id in self._row_ids.items():
            node = self._cache.node(row_id)
            rows.append((row_id, node.part_id, node.error_code,
                         tuple(sorted(node.features)), node.support))
        rows.sort()
        return rows

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

        Served from the write-through :class:`NodeCache`: no relstore row
        is touched, but the returned pairs and their order are identical
        to :meth:`candidates_from_store`.
        """
        return self._cache.candidates(part_id, features)

    def candidates_from_store(self, part_id: str,
                              features: frozenset[str] | set[str],
                              ) -> list[Candidate]:
        """Candidate retrieval straight from the relstore table (no cache).

        The reference implementation the cache is checked against (and the
        path of record before the cache existed).  Uses the table's
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
