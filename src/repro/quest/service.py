"""The QUEST service layer (§4.5.4).

Backs the web UI: for a data bundle awaiting classification, the expert is
"first presented with a selection of the 10 most likely error codes in
descending order of likelihood"; if the correct code is not among them,
"they can access the list of all error codes available for the part ID",
as in the OEM's original software.  Power users can define new error
codes; every final assignment is recorded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..classify.baselines import CodeFrequencyBaseline
from ..classify.knn import RankedKnnClassifier
from ..classify.results import (Recommendation, load_recommendation,
                                store_recommendations)
from ..data.bundle import DataBundle
from ..data.schema import create_raw_tables, load_bundle, store_bundles
from ..relstore import Column, ColumnType, Database, Schema, col
from ..triage import (DEFAULT_REVIEW_THRESHOLD, OVERRIDE_CONFIDENCE,
                      Confidence, OverrideStore, ReviewQueue,
                      override_recommendation, score_confidence)
from .errors import DegradedServiceError, QuestError, UnknownBundleError
from .users import PermissionError_, User

#: "the user is first presented with a selection of the 10 most likely
#: error codes" (§4.5.4).
SUGGESTION_COUNT = 10

ASSIGNMENT_SCHEMA = Schema.build(
    [
        Column("ref_no", ColumnType.TEXT, nullable=False),
        Column("error_code", ColumnType.TEXT, nullable=False),
        Column("assigned_by", ColumnType.TEXT, nullable=False),
        Column("from_suggestions", ColumnType.BOOLEAN, nullable=False),
        Column("sequence", ColumnType.INTEGER, nullable=False),
        # True on every history row except the bundle's current decision.
        Column("superseded", ColumnType.BOOLEAN, nullable=False),
    ],
)

CUSTOM_CODE_SCHEMA = Schema.build(
    [
        Column("error_code", ColumnType.TEXT, nullable=False),
        Column("part_id", ColumnType.TEXT, nullable=False),
        Column("description", ColumnType.TEXT, nullable=False),
        Column("created_by", ColumnType.TEXT, nullable=False),
    ],
    primary_key="error_code",
)


@dataclass(frozen=True)
class SuggestionView:
    """What the assignment screen shows for one bundle."""

    bundle: DataBundle
    suggestions: Recommendation
    all_codes: list[str]
    #: None for a normal classification; otherwise which fallback produced
    #: the suggestions ("stored", "fallback" or "frequency") after the
    #: primary classifier failed.
    degraded: str | None = None
    #: Calibrated confidence for the ranked list (see repro.triage).
    confidence: Confidence | None = None
    #: ``"classifier"`` for a computed ranked list; ``"override"`` when an
    #: engineer's pin answered instead of the classifier.
    source: str = "classifier"

    @property
    def top10(self) -> list[str]:
        """The shortlist shown first."""
        return [scored.error_code
                for scored in self.suggestions.top(SUGGESTION_COUNT)]


class QuestService:
    """Application services over the raw data, classifier and baseline."""

    def __init__(self, database: Database,
                 classifier: RankedKnnClassifier,
                 frequency_baseline: CodeFrequencyBaseline,
                 fallback_classifier: RankedKnnClassifier | None = None,
                 review_threshold: float = DEFAULT_REVIEW_THRESHOLD) -> None:
        self.database = database
        self.classifier = classifier
        self.frequency_baseline = frequency_baseline
        #: Optional secondary classifier for degraded mode — typically a
        #: BoW (words-mode) classifier that needs no concept annotator, so
        #: it keeps working when the taxonomy/annotation path fails.
        self.fallback_classifier = fallback_classifier
        create_raw_tables(database)
        self._assignments = database.create_table(
            "assignments", ASSIGNMENT_SCHEMA, if_not_exists=True)
        if "ix_assign_ref" not in self._assignments.indexes:
            self._assignments.create_index("ix_assign_ref", "ref_no")
        self._custom_codes = database.create_table(
            "custom_codes", CUSTOM_CODE_SCHEMA, if_not_exists=True)
        self._sequence = itertools.count(1)
        #: Persisted suggests scoring under this enter the review queue.
        self.review_threshold = review_threshold
        #: Engineer pins; they always win over the classifier.
        self.overrides = OverrideStore(database)
        #: Low-confidence suggestions awaiting a human decision.
        self.review_queue = ReviewQueue(database)

    # ------------------------------------------------------------------ #
    # intake

    def register_bundles(self, bundles: list[DataBundle]) -> int:
        """Store incoming bundles in the raw tables."""
        return store_bundles(self.database, bundles)

    def bundle(self, ref_no: str) -> DataBundle | None:
        """Load one bundle by reference number."""
        return load_bundle(self.database, ref_no)

    # ------------------------------------------------------------------ #
    # suggestions (§4.4 step 3c + §4.5.4)

    def suggest(self, ref_no: str, *, persist: bool = True,
                on_error: str = "degrade",
                with_confidence: bool = True) -> SuggestionView:
        """Classify a bundle and build the assignment screen's data.

        An active engineer override short-circuits the classifier
        entirely: the pinned code comes back as the sole suggestion with
        ``source="override"`` and full confidence, and nothing is
        persisted or enqueued — a pin is never clobbered by re-runs.

        Args:
            ref_no: the bundle's reference number.
            persist: store the freshly computed recommendation (and
                enqueue it for review when its confidence falls under
                ``review_threshold``).
            on_error: ``"degrade"`` (default) falls back when the primary
                classifier raises — first to a previously stored
                suggestion, then to the BoW ``fallback_classifier`` (if
                configured), then to the code-frequency baseline — and
                labels the view's ``degraded`` field accordingly.
                ``"raise"`` propagates the classifier's error.
            with_confidence: score the ranked list's confidence (skipped
                only by callers benchmarking the plain suggest path).

        Raises:
            UnknownBundleError: if the bundle is unknown.
            DegradedServiceError: if the classifier failed and every
                fallback failed too.
        """
        bundle = self.bundle(ref_no)
        if bundle is None:
            raise UnknownBundleError(f"no bundle {ref_no!r}")
        override = self.overrides.active(ref_no)
        if override is not None:
            return SuggestionView(
                bundle=bundle,
                suggestions=override_recommendation(
                    ref_no, bundle.part_id, override["error_code"]),
                all_codes=self.full_code_list(bundle.part_id),
                degraded=None,
                confidence=OVERRIDE_CONFIDENCE if with_confidence else None,
                source="override")
        degraded = None
        try:
            recommendation = self.classifier.classify_bundle(
                bundle.without_label())
        except Exception as exc:
            if on_error == "raise":
                raise
            recommendation, degraded = self._degraded_suggestion(bundle, exc)
        confidence = (score_confidence(recommendation)
                      if with_confidence else None)
        # A degraded answer never overwrites a previously stored (healthy)
        # recommendation.
        if persist and degraded is None:
            store_recommendations(self.database, [recommendation])
            if (confidence is not None
                    and confidence.score < self.review_threshold):
                self.review_queue.enqueue(ref_no, bundle.part_id,
                                          confidence.score)
        return SuggestionView(bundle=bundle, suggestions=recommendation,
                              all_codes=self.full_code_list(bundle.part_id),
                              degraded=degraded, confidence=confidence,
                              source="classifier")

    def _degraded_suggestion(self, bundle: DataBundle,
                             cause: Exception,
                             ) -> tuple[Recommendation, str]:
        """The fallback chain behind degraded :meth:`suggest`."""
        stored = self.stored_suggestion(bundle.ref_no)
        if stored is not None:
            return stored, "stored"
        if self.fallback_classifier is not None:
            try:
                return (self.fallback_classifier.classify_bundle(
                    bundle.without_label()), "fallback")
            except Exception:
                pass  # fall through to the frequency baseline
        try:
            recommendation = self.frequency_baseline.classify_bundle(
                bundle.without_label())
        except Exception as exc:
            raise DegradedServiceError(
                f"classifier failed for {bundle.ref_no!r} ({cause!r}) and "
                f"no fallback succeeded") from exc
        if not recommendation.codes:
            raise DegradedServiceError(
                f"classifier failed for {bundle.ref_no!r} ({cause!r}) and "
                f"no fallback produced any suggestion") from cause
        return recommendation, "frequency"

    def stored_suggestion(self, ref_no: str) -> Recommendation | None:
        """A previously persisted recommendation, if any."""
        return load_recommendation(self.database, ref_no)

    def search_bundles(self, query: str, limit: int = 25) -> list[DataBundle]:
        """Full-text search over report texts (case-insensitive substring).

        The original quality-engineering software lets workers locate
        bundles by report content; this backs the equivalent QUEST screen.
        """
        from ..relstore import Like
        if not query:
            return []
        rows = self.database.table("reports").select(
            Like("text", f"%{query}%"), columns=["ref_no"])
        refs = sorted({row["ref_no"] for row in rows})[:limit]
        bundles = [self.bundle(ref) for ref in refs]
        return [bundle for bundle in bundles if bundle is not None]

    def full_code_list(self, part_id: str) -> list[str]:
        """All error codes available for *part_id* (frequency-sorted),
        including custom codes defined through QUEST."""
        ranked = [scored.error_code
                  for scored in self.frequency_baseline.ranked_codes(part_id)]
        custom = [row["error_code"] for row in self._custom_codes.select(
            col("part_id") == part_id, order_by="error_code")]
        return ranked + [code for code in custom if code not in ranked]

    # ------------------------------------------------------------------ #
    # assignment

    def assign_code(self, actor: User, ref_no: str, error_code: str) -> None:
        """Record the expert's final error-code decision.

        Idempotent: re-assigning the code the bundle already carries (per
        its latest history row) is a no-op — no duplicate history row, no
        double-counted knowledge evidence.  A *different* code appends a
        new history row and marks every earlier row ``superseded``.

        Raises:
            PermissionError_: if *actor* may not assign codes.
            UnknownBundleError: unknown bundle.
            QuestError: a code that is neither known for the part nor a
                custom code, or an inconsistent bundle store (both are
                ``ValueError`` subclasses, as before).
        """
        if not actor.can("assign"):
            raise PermissionError_(f"{actor.name} may not assign error codes")
        bundle = self.bundle(ref_no)
        if bundle is None:
            raise UnknownBundleError(f"no bundle {ref_no!r}")
        available = set(self.full_code_list(bundle.part_id))
        if error_code not in available:
            raise QuestError(f"code {error_code!r} is not available for part "
                             f"{bundle.part_id}")
        history = self.assignment_history(ref_no)
        if history and history[-1]["error_code"] == error_code:
            return  # repeated decision: nothing new to record
        suggestion = self.stored_suggestion(ref_no)
        from_suggestions = bool(
            suggestion and suggestion.hit_at(error_code, SUGGESTION_COUNT))
        bundles = self.database.table("bundles")
        row_ids = bundles.row_ids_where(col("ref_no") == ref_no)
        if not row_ids:
            raise QuestError(
                f"bundle {ref_no!r} has reports but no bundles row; "
                f"the raw store is inconsistent")
        row_id = row_ids[0]
        previous_code = bundles.get(row_id)["error_code"]
        bundles.update(row_id, {"error_code": error_code})
        for rid in self._assignments.row_ids_where(col("ref_no") == ref_no):
            if not self._assignments.get(rid)["superseded"]:
                self._assignments.update(rid, {"superseded": True})
        self._assignments.insert({
            "ref_no": ref_no,
            "error_code": error_code,
            "assigned_by": actor.name,
            "from_suggestions": from_suggestions,
            "sequence": next(self._sequence),
            "superseded": False,
        })
        # Feed the decision back into the knowledge base (application phase
        # keeps learning from confirmed assignments).  On a re-assignment
        # the previous decision's evidence is retracted first, so corrected
        # mistakes do not linger as knowledge nodes.
        features = self.classifier.extractor.extract_text(
            bundle.training_text())
        if previous_code is not None and previous_code != error_code:
            self.classifier.knowledge_base.remove_observation(
                bundle.part_id, previous_code, features)
        self.classifier.knowledge_base.add_observation(
            bundle.part_id, error_code, features)

    def assignment_history(self, ref_no: str) -> list[dict]:
        """All recorded assignments for a bundle, oldest first."""
        return self._assignments.select(col("ref_no") == ref_no,
                                        order_by="sequence")

    def suggestion_hit_rate(self) -> float:
        """Share of assignments taken from the top-10 shortlist."""
        rows = list(self._assignments.scan())
        if not rows:
            return 0.0
        return sum(1 for row in rows if row["from_suggestions"]) / len(rows)

    # ------------------------------------------------------------------ #
    # triage: overrides and the review queue

    def apply_override(self, actor: User, ref_no: str, error_code: str,
                       reason: str = "") -> dict:
        """Pin *error_code* to *ref_no*; the pin wins over the classifier.

        Any open review entry for the bundle is resolved as
        ``override`` (forced — a pin is decisive regardless of who holds
        the claim).  Returns the stored override row.

        Raises:
            PermissionError_: if *actor* may not assign codes.
            UnknownBundleError: unknown bundle.
            QuestError: the code is not available for the bundle's part.
        """
        if not actor.can("assign"):
            raise PermissionError_(f"{actor.name} may not override "
                                   f"suggestions")
        bundle = self.bundle(ref_no)
        if bundle is None:
            raise UnknownBundleError(f"no bundle {ref_no!r}")
        available = set(self.full_code_list(bundle.part_id))
        if error_code not in available:
            raise QuestError(f"code {error_code!r} is not available for part "
                             f"{bundle.part_id}")
        record = self.overrides.pin(actor.name, ref_no, error_code, reason)
        if self.review_queue.entry(ref_no) is not None:
            self.review_queue.resolve(actor.name, ref_no, "override",
                                      force=True)
        return record

    def claim_review(self, actor: User, ref_no: str | None = None,
                     ) -> dict | None:
        """Claim a review entry (the weakest pending one by default).

        Raises:
            PermissionError_: if *actor* may not assign codes.
            UnknownBundleError: *ref_no* has no open review entry.
            IntegrityError: the entry is claimed by someone else.
        """
        if not actor.can("assign"):
            raise PermissionError_(f"{actor.name} may not review "
                                   f"suggestions")
        return self.review_queue.claim(actor.name, ref_no)

    def resolve_review(self, actor: User, ref_no: str, resolution: str,
                       error_code: str | None = None,
                       reason: str = "") -> dict:
        """Resolve a review entry; ``override`` also pins *error_code*.

        Raises:
            PermissionError_: if *actor* may not assign codes.
            QuestError: resolution ``override`` without an *error_code*.
            UnknownBundleError / IntegrityError / ValueError: as raised
                by the queue (no open entry / foreign claim / unknown
                resolution).
        """
        if not actor.can("assign"):
            raise PermissionError_(f"{actor.name} may not review "
                                   f"suggestions")
        if resolution == "override":
            if not error_code:
                raise QuestError("resolution 'override' needs an error_code")
            return self.apply_override(actor, ref_no, error_code, reason)
        return self.review_queue.resolve(actor.name, ref_no, resolution)

    def pending_reviews(self, limit: int | None = None) -> list[dict]:
        """Open review entries in drain order (weakest first)."""
        return self.review_queue.pending(limit)

    # ------------------------------------------------------------------ #
    # custom error codes

    def define_error_code(self, actor: User, error_code: str, part_id: str,
                          description: str) -> None:
        """Create a new error code (power users and admins only).

        Raises:
            PermissionError_: if *actor* lacks the capability.
            IntegrityError: if the code already exists.
        """
        if not actor.can("define_codes"):
            raise PermissionError_(f"{actor.name} may not define error codes")
        self._custom_codes.insert({
            "error_code": error_code,
            "part_id": part_id,
            "description": description,
            "created_by": actor.name,
        })

    def custom_codes(self, part_id: str | None = None) -> list[dict]:
        """Custom codes, optionally restricted to one part."""
        predicate = (col("part_id") == part_id) if part_id else None
        if predicate is None:
            return sorted(self._custom_codes.scan(),
                          key=lambda row: row["error_code"])
        return self._custom_codes.select(predicate, order_by="error_code")
