"""Per-part triage profiles for drift detection.

A part whose override rate climbs, whose hit rate sinks, or whose
confidence distribution slides down is a part whose knowledge nodes no
longer describe the field — exactly the signal the paper's application
phase needs to decide when to re-train.  Profiles are computed on demand
from the durable tables (bundles, assignments, overrides, stored
recommendations, review queue), so they are always consistent with what
recovery would restore.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..classify.results import recommendation_from_rows
from ..relstore import Database
from .confidence import score_confidence


@dataclass(frozen=True)
class PartProfile:
    """Aggregated triage statistics for one part ID."""

    part_id: str
    #: Bundles stored for the part.
    bundles: int
    #: Final code assignments recorded (superseded ones included).
    assignments: int
    #: Assignments taken from the top-10 shortlist.
    suggestion_hits: int
    #: Active (non-superseded) overrides.
    overrides: int
    #: Open review-queue entries.
    reviews_open: int
    #: overrides / bundles (0.0 when no bundles).
    override_rate: float
    #: suggestion_hits / assignments (0.0 when no assignments).
    hit_rate: float
    #: Confidence of stored recommendations: mean / min / max
    #: (all 0.0 when nothing is stored for the part).
    mean_confidence: float
    min_confidence: float
    max_confidence: float

    def to_payload(self) -> dict:
        """A JSON-ready mapping (webapp / API responses)."""
        return {
            "part_id": self.part_id,
            "bundles": self.bundles,
            "assignments": self.assignments,
            "suggestion_hits": self.suggestion_hits,
            "overrides": self.overrides,
            "reviews_open": self.reviews_open,
            "override_rate": round(self.override_rate, 6),
            "hit_rate": round(self.hit_rate, 6),
            "mean_confidence": round(self.mean_confidence, 6),
            "min_confidence": round(self.min_confidence, 6),
            "max_confidence": round(self.max_confidence, 6),
        }


def _stored_confidences(database: Database,
                        part_of: dict[str, str]) -> dict[str, list[float]]:
    """Confidence of every stored recommendation, grouped by part."""
    if not database.has_table("recommendations"):
        return {}
    grouped: dict[str, list[dict]] = {}
    for row in database.table("recommendations").scan():
        grouped.setdefault(row["ref_no"], []).append(row)
    confidences: dict[str, list[float]] = {}
    for ref_no, rows in grouped.items():
        part_id = part_of.get(ref_no)
        if part_id is None:
            continue
        rows.sort(key=lambda row: row["rank"])
        recommendation = recommendation_from_rows(ref_no, part_id, rows)
        confidences.setdefault(part_id, []).append(
            score_confidence(recommendation).score)
    return confidences


def part_profiles(database: Database) -> list[PartProfile]:
    """Build the profile of every part with at least one bundle.

    Sorted by part ID.  Tables that do not exist yet (fresh service, no
    assignments, nothing reviewed) simply contribute zeros.
    """
    if not database.has_table("bundles"):
        return []
    part_of: dict[str, str] = {}
    bundle_counts: dict[str, int] = {}
    for row in database.table("bundles").scan():
        part_of[row["ref_no"]] = row["part_id"]
        bundle_counts[row["part_id"]] = bundle_counts.get(row["part_id"], 0) + 1

    assignments: dict[str, int] = {}
    hits: dict[str, int] = {}
    if database.has_table("assignments"):
        for row in database.table("assignments").scan():
            part_id = part_of.get(row["ref_no"])
            if part_id is None:
                continue
            assignments[part_id] = assignments.get(part_id, 0) + 1
            if row["from_suggestions"]:
                hits[part_id] = hits.get(part_id, 0) + 1

    overrides: dict[str, int] = {}
    if database.has_table("overrides"):
        for row in database.table("overrides").scan():
            if row["superseded_by"] is not None:
                continue
            part_id = part_of.get(row["ref_no"])
            if part_id is not None:
                overrides[part_id] = overrides.get(part_id, 0) + 1

    reviews: dict[str, int] = {}
    if database.has_table("review_queue"):
        for row in database.table("review_queue").scan():
            if row["status"] != "resolved":
                reviews[row["part_id"]] = reviews.get(row["part_id"], 0) + 1

    confidences = _stored_confidences(database, part_of)

    profiles = []
    for part_id in sorted(bundle_counts):
        n_bundles = bundle_counts[part_id]
        n_assign = assignments.get(part_id, 0)
        n_hits = hits.get(part_id, 0)
        n_over = overrides.get(part_id, 0)
        scores = confidences.get(part_id, [])
        profiles.append(PartProfile(
            part_id=part_id,
            bundles=n_bundles,
            assignments=n_assign,
            suggestion_hits=n_hits,
            overrides=n_over,
            reviews_open=reviews.get(part_id, 0),
            override_rate=n_over / n_bundles if n_bundles else 0.0,
            hit_rate=n_hits / n_assign if n_assign else 0.0,
            mean_confidence=sum(scores) / len(scores) if scores else 0.0,
            min_confidence=min(scores) if scores else 0.0,
            max_confidence=max(scores) if scores else 0.0,
        ))
    return profiles
