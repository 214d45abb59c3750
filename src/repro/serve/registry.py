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
  current models after a committed write.  The gateway's memos key on
  finer things than the version (see :mod:`repro.serve.gateway`): the
  model objects, and the knowledge view's per-part stamps.

Nothing here locks a reader.  Relstore rows are read through MVCC read
views, and a classifier's knowledge base answers from an immutable
:class:`~repro.knowledge.base.FrozenKnowledgeView` that a committed
write replaces (never mutates), so a snapshot's models can be walked
while a writer commits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from ..classify.baselines import CodeFrequencyBaseline
from ..classify.knn import RankedKnnClassifier

#: Sentinel distinguishing "argument omitted" from an explicit ``None``
#: in :meth:`ModelRegistry.swap` — ``fallback_classifier=None`` must
#: *clear* the fallback, not carry the old one over.
_UNSET = object()


@dataclass(frozen=True)
class ModelSnapshot:
    """An immutable serving view of the models (see module docstring).

    The snapshot object itself never changes.  The knowledge base its
    classifier points at publishes a new immutable view per committed
    write, so a reader sees each write whole or not at all.  That view
    stamps each part afresh when a write touches it, and the gateway's
    recommendation memo keys on those stamps, so a write drops only the
    parts it changed.  Writes are still followed by
    :meth:`ModelRegistry.bump`, which re-versions the snapshot and
    publishes a changed override map.
    """

    version: int
    classifier: RankedKnnClassifier
    frequency_baseline: CodeFrequencyBaseline
    fallback_classifier: RankedKnnClassifier | None = None
    #: Active engineer overrides (``{ref_no: error_code}``).  Part of the
    #: snapshot so the in-process service and the gateway serve the same
    #: pins for the same version.
    overrides: dict[str, str] = field(default_factory=dict)


class ModelRegistry:
    """Atomic holder of the current :class:`ModelSnapshot`."""

    def __init__(self, snapshot: ModelSnapshot) -> None:
        self._snapshot = snapshot
        self._swap_lock = threading.Lock()

    @classmethod
    def from_service(cls, service) -> "ModelRegistry":
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
            overrides=overrides))

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

    def bump(self, overrides=_UNSET) -> ModelSnapshot:
        """Re-version the current snapshot after a model update (e.g. the
        knowledge base learned from a confirmed assignment).  *overrides*
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
