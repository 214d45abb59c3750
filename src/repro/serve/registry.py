"""The model registry: versioned classifier snapshots.

Serving reads (classification) and knowledge-base writes (assignments,
custom codes) meet here:

* :class:`ModelSnapshot` is an immutable, *warm* view of the models a
  request is served with — classifier, frequency baseline and optional
  BoW fallback — stamped with a monotonically increasing ``version``.
  Workers read ``registry.current()`` once per batch; a swap mid-batch
  cannot tear a request across two model generations.
* :meth:`ModelRegistry.swap` atomically replaces the snapshot (e.g. after
  an offline retrain), and :meth:`ModelRegistry.bump` re-stamps the
  current models after a committed knowledge-base write, invalidating
  every version-keyed cache downstream.

Nothing here locks a reader.  Relstore rows are read through MVCC read
views, and a classifier's knowledge base answers from an immutable
:class:`~repro.knowledge.base.FrozenKnowledgeView` that a committed
write replaces (never mutates), so a snapshot's models can be walked
while a writer commits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from ..classify.baselines import CodeFrequencyBaseline
from ..classify.knn import RankedKnnClassifier
from ..classify.similarity import SIMILARITIES
from ..knowledge.base import FrozenKnowledgeView
from .errors import SnapshotPayloadError

#: Version tag of the snapshot payload wire format.
PAYLOAD_FORMAT = 1

#: How many exported full payloads a registry retains (newest-first).
#: Replicas polling with one of these versions as their base are served
#: a row-level delta instead of a full payload (see repro.serve.replica).
PAYLOAD_RETENTION = 8

#: Sentinel distinguishing "argument omitted" from an explicit ``None``
#: in :meth:`ModelRegistry.swap` — ``fallback_classifier=None`` must
#: *clear* the fallback, not carry the old one over.
_UNSET = object()


def _classifier_to_payload(classifier: RankedKnnClassifier) -> dict:
    """One classifier as a picklable dict (rows + feature space + config)."""
    knowledge = classifier.knowledge_base
    export = getattr(knowledge, "export_rows", None)
    if export is None:
        raise SnapshotPayloadError(
            f"knowledge base {type(knowledge).__name__} cannot export rows; "
            f"snapshot payloads need a KnowledgeBase or FrozenKnowledgeView")
    similarity = next((name for name, fn in SIMILARITIES.items()
                       if fn is classifier.similarity), None)
    return {
        "rows": export(),
        "feature_kind": getattr(knowledge, "feature_kind", "features"),
        # The extractor object itself (BagOfWords / BagOfConcepts incl.
        # its annotator trie) rides along — it IS the feature space.
        "extractor": classifier.extractor,
        # Registered measures travel by name; custom callables must be
        # picklable themselves.
        "similarity": similarity if similarity is not None
                      else classifier.similarity,
        "node_cutoff": classifier.node_cutoff,
    }


def _classifier_from_payload(payload: dict) -> RankedKnnClassifier:
    """Rebuild a classifier over a read-only frozen knowledge view."""
    knowledge = FrozenKnowledgeView(payload["rows"],
                                    feature_kind=payload["feature_kind"])
    return RankedKnnClassifier(knowledge, payload["extractor"],
                               payload["similarity"],
                               payload["node_cutoff"])


def _classifier_config_equal(old: dict, new: dict) -> bool:
    """Whether two classifier payloads differ only in their rows."""
    return (old["feature_kind"] == new["feature_kind"]
            and old["similarity"] == new["similarity"]
            and old["node_cutoff"] == new["node_cutoff"]
            and old["extractor"] is new["extractor"])


def _rows_delta(old_rows: list, new_rows: list) -> dict | None:
    """Upserts/removals turning *old_rows* into *new_rows* (by row id).

    Returns None when the delta would not be smaller than shipping the
    full row list.
    """
    old_by_id = {row[0]: row for row in old_rows}
    new_by_id = {row[0]: row for row in new_rows}
    upserts = [row for row_id, row in new_by_id.items()
               if old_by_id.get(row_id) != row]
    removed = sorted(row_id for row_id in old_by_id
                     if row_id not in new_by_id)
    if len(upserts) + len(removed) >= len(new_rows):
        return None
    return {"upserts": sorted(upserts), "removed": removed}


def diff_payloads(old: dict, new: dict) -> dict | None:
    """A delta payload turning *old* into *new*, or None when only a full
    payload is safe/worthwhile (config changed, or the delta would be as
    large as the full row list).

    The delta carries row upserts/removals per classifier plus the full
    (small) frequency table; the extractor and classifier config are
    never re-shipped — a config change forces a full payload.
    """
    if old.get("format") != PAYLOAD_FORMAT or new.get("format") != PAYLOAD_FORMAT:
        raise SnapshotPayloadError("can only diff format-1 full payloads")
    if old.get("kind") != "full" or new.get("kind") != "full":
        raise SnapshotPayloadError("can only diff full payloads")
    if new["version"] <= old["version"]:
        # A self- or backward-targeted delta can only come from a caller
        # bug (e.g. diffing a payload against itself); applying one would
        # silently re-stamp stale rows with a bogus version.
        raise SnapshotPayloadError(
            f"delta versions must be strictly increasing, got "
            f"{old['version']} -> {new['version']}")
    if not _classifier_config_equal(old["classifier"], new["classifier"]):
        return None
    if (new["fallback"] is None) != (old["fallback"] is None):
        return None
    fallback_delta = None
    if new["fallback"] is not None:
        if not _classifier_config_equal(old["fallback"], new["fallback"]):
            return None
        if old["fallback"]["rows"] != new["fallback"]["rows"]:
            fallback_delta = _rows_delta(old["fallback"]["rows"],
                                         new["fallback"]["rows"])
            if fallback_delta is None:
                return None
    classifier_delta = _rows_delta(old["classifier"]["rows"],
                                   new["classifier"]["rows"])
    if classifier_delta is None:
        return None
    delta = {
        "format": PAYLOAD_FORMAT,
        "kind": "delta",
        "version": new["version"],
        "base_version": old["version"],
        "classifier": classifier_delta,
        "fallback": fallback_delta,
        "frequency": new["frequency"],
    }
    if "overrides" in new or "overrides" in old:
        # The override map is tiny (one ref/code pair per active pin), so
        # deltas ship it whole, like the frequency table.
        delta["overrides"] = dict(new.get("overrides") or {})
    return delta


def _apply_rows_delta(rows: list, delta: dict) -> list:
    by_id = {row[0]: row for row in rows}
    for row_id in delta["removed"]:
        by_id.pop(row_id, None)
    for row in delta["upserts"]:
        by_id[row[0]] = row
    return sorted(by_id.values())


def apply_payload_delta(base: dict, delta: dict) -> dict:
    """Apply a :func:`diff_payloads` delta to a full *base* payload.

    Raises:
        SnapshotPayloadError: when *delta* was produced against a
            different base version — the caller must request a full
            payload instead of serving from a wrong reconstruction.
    """
    if delta.get("kind") != "delta" or base.get("kind") != "full":
        raise SnapshotPayloadError("apply_payload_delta needs (full, delta)")
    if delta["base_version"] != base["version"]:
        raise SnapshotPayloadError(
            f"delta targets base version {delta['base_version']}, "
            f"payload is version {base['version']}")
    updated = dict(base)
    updated["version"] = delta["version"]
    classifier = dict(base["classifier"])
    classifier["rows"] = _apply_rows_delta(classifier["rows"],
                                           delta["classifier"])
    updated["classifier"] = classifier
    if delta["fallback"] is not None:
        fallback = dict(base["fallback"])
        fallback["rows"] = _apply_rows_delta(fallback["rows"],
                                             delta["fallback"])
        updated["fallback"] = fallback
    updated["frequency"] = delta["frequency"]
    if "overrides" in delta:
        updated["overrides"] = dict(delta["overrides"])
    return updated


@dataclass(frozen=True)
class ModelSnapshot:
    """An immutable serving view of the models (see module docstring).

    The snapshot object itself never changes.  The knowledge base its
    classifier points at publishes a new immutable view per committed
    write, so a reader sees each write whole or not at all.  Any such
    write must be followed by :meth:`ModelRegistry.bump` so readers'
    version-keyed caches drop stale derived data.
    """

    version: int
    classifier: RankedKnnClassifier
    frequency_baseline: CodeFrequencyBaseline
    fallback_classifier: RankedKnnClassifier | None = None
    #: Active engineer overrides (``{ref_no: error_code}``).  Part of the
    #: snapshot so every executor — in-process, gateway, replica —
    #: serves the same pins for the same version.
    overrides: dict[str, str] = field(default_factory=dict)

    # -------------------------------------------------------------- #
    # export/import across the replication wire

    def to_payload(self) -> dict:
        """Export this snapshot as one picklable payload dict.

        The payload is a *copy* of everything classification needs —
        knowledge rows (with their row ids, so candidate ordering is
        preserved exactly), the feature extractor, the classifier config
        and the frequency table.  No relstore handle, no locks and no
        mutable shared state cross the boundary: mutating the live models
        after export cannot change what a payload-built snapshot answers.
        """
        return {
            "format": PAYLOAD_FORMAT,
            "kind": "full",
            "version": self.version,
            "classifier": _classifier_to_payload(self.classifier),
            "frequency": self.frequency_baseline.frequency_table(),
            "fallback": (_classifier_to_payload(self.fallback_classifier)
                         if self.fallback_classifier is not None else None),
            "overrides": dict(self.overrides),
        }

    @staticmethod
    def from_payload(payload: dict) -> "ModelSnapshot":
        """Rebuild a serving snapshot from :meth:`to_payload` output.

        The result classifies byte-identically to the snapshot that was
        exported: same rows under the same row ids, same extractor, same
        similarity and cutoff — only the knowledge base is a read-only
        :class:`~repro.knowledge.base.FrozenKnowledgeView` instead of the
        relstore-backed original.
        """
        if payload.get("format") != PAYLOAD_FORMAT:
            raise SnapshotPayloadError(
                f"unsupported payload format {payload.get('format')!r}")
        if payload.get("kind") != "full":
            raise SnapshotPayloadError(
                "from_payload needs a full payload; apply deltas with "
                "apply_payload_delta first")
        return ModelSnapshot(
            version=payload["version"],
            classifier=_classifier_from_payload(payload["classifier"]),
            frequency_baseline=CodeFrequencyBaseline.from_frequencies(
                payload["frequency"]),
            fallback_classifier=(
                _classifier_from_payload(payload["fallback"])
                if payload["fallback"] is not None else None),
            overrides=dict(payload.get("overrides") or {}))


class ModelRegistry:
    """Atomic snapshot holder + the retained replication payloads."""

    def __init__(self, snapshot: ModelSnapshot, *,
                 retain_payloads: int = PAYLOAD_RETENTION) -> None:
        self._snapshot = snapshot
        self._swap_lock = threading.Lock()
        # Recently exported full payloads by version (bounded LRU).  The
        # replication endpoint diffs the current export against whichever
        # of these a replica reports as its base, so deltas are always
        # computed against bytes a replica can actually hold.
        self._payload_lock = threading.Lock()
        self._retain = max(1, retain_payloads)
        self._payloads: OrderedDict[int, dict] = OrderedDict()

    @classmethod
    def from_service(cls, service, *,
                     retain_payloads: int = PAYLOAD_RETENTION,
                     ) -> "ModelRegistry":
        """Build a registry over a :class:`~repro.quest.service.QuestService`'s
        models (version 1).  The service's active override pins seed the
        snapshot's override map."""
        override_store = getattr(service, "overrides", None)
        overrides = (override_store.active_map()
                     if override_store is not None else {})
        return cls(ModelSnapshot(
            version=1,
            classifier=service.classifier,
            frequency_baseline=service.frequency_baseline,
            fallback_classifier=service.fallback_classifier,
            overrides=overrides),
            retain_payloads=retain_payloads)

    def current(self) -> ModelSnapshot:
        """The snapshot serving new requests (a plain atomic read)."""
        return self._snapshot

    @property
    def version(self) -> int:
        """The current snapshot's version."""
        return self._snapshot.version

    def swap(self, classifier: RankedKnnClassifier | None = None,
             frequency_baseline: CodeFrequencyBaseline | None = None,
             fallback_classifier=_UNSET, overrides=_UNSET) -> ModelSnapshot:
        """Atomically publish a new snapshot; omitted models carry over.

        The caller is responsible for handing over *warm* models (built
        and exercised off the serving path) — the swap itself is just a
        reference assignment, so readers never wait on model construction.
        ``fallback_classifier=None`` explicitly *clears* the fallback
        (an ``is not None`` carry-over test used to make that impossible);
        leaving the argument out keeps the current one.  *overrides*
        replaces the snapshot's override map when given.
        Returns the published snapshot.
        """
        with self._swap_lock:
            current = self._snapshot
            updated = ModelSnapshot(
                version=current.version + 1,
                classifier=classifier or current.classifier,
                frequency_baseline=(frequency_baseline
                                    or current.frequency_baseline),
                fallback_classifier=(fallback_classifier
                                     if fallback_classifier is not _UNSET
                                     else current.fallback_classifier),
                overrides=(dict(overrides) if overrides is not _UNSET
                           else current.overrides))
            self._snapshot = updated
            return updated

    def install(self, snapshot: ModelSnapshot) -> ModelSnapshot:
        """Atomically adopt *snapshot* exactly as given.

        Unlike :meth:`swap`, the version comes from the snapshot itself —
        this is the replication path: a replica must serve under the
        *primary's* version number, or staleness accounting and
        version-keyed caches would compare apples to oranges.
        """
        with self._swap_lock:
            self._snapshot = snapshot
            return snapshot

    # -------------------------------------------------------------- #
    # retained payload exports (the replication endpoint's diff bases)

    def retain_payload(self, payload: dict) -> None:
        """Remember one exported full payload for later delta service.

        Bounded LRU per version: replicas that poll with a retained
        version as their base get a row-level delta; everyone else gets
        the full payload.
        """
        if payload.get("kind") != "full":
            raise SnapshotPayloadError("can only retain full payloads")
        with self._payload_lock:
            self._payloads[payload["version"]] = payload
            self._payloads.move_to_end(payload["version"])
            while len(self._payloads) > self._retain:
                self._payloads.popitem(last=False)

    def retained_payload(self, version: int) -> dict | None:
        """The retained full payload for *version*, or ``None``."""
        with self._payload_lock:
            payload = self._payloads.get(version)
            if payload is not None:
                self._payloads.move_to_end(version)
            return payload

    def retained_versions(self) -> tuple[int, ...]:
        """Versions with a retained payload, oldest first."""
        with self._payload_lock:
            return tuple(self._payloads)

    def bump(self, overrides=_UNSET) -> ModelSnapshot:
        """Re-version the current snapshot after a model update (e.g. the
        knowledge base learned from a confirmed assignment).
        Version-keyed caches treat this exactly like a swap.  *overrides*
        replaces the snapshot's override map when given — write paths
        that pin/supersede overrides pass the store's fresh active map."""
        with self._swap_lock:
            if overrides is _UNSET:
                self._snapshot = replace(self._snapshot,
                                         version=self._snapshot.version + 1)
            else:
                self._snapshot = replace(self._snapshot,
                                         version=self._snapshot.version + 1,
                                         overrides=dict(overrides))
            return self._snapshot

    def __repr__(self) -> str:
        return f"<ModelRegistry version={self.version}>"
