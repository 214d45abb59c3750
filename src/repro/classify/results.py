"""Classification results and their relational persistence (§4.4 step 3c).

"These scored error codes are stored in a relational database and presented
to the quality worker via the web app interface."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..relstore import Column, ColumnType, Database, Schema, col

RECOMMENDATION_SCHEMA = Schema.build(
    [
        Column("ref_no", ColumnType.TEXT, nullable=False),
        Column("error_code", ColumnType.TEXT, nullable=False),
        Column("score", ColumnType.REAL, nullable=False),
        Column("rank", ColumnType.INTEGER, nullable=False),
        Column("support", ColumnType.INTEGER, nullable=False),
        # Confidence signals (denormalized onto every row of the list so a
        # stored recommendation round-trips them; see repro.triage).
        Column("pool_size", ColumnType.INTEGER, nullable=False),
        Column("winner_nodes", ColumnType.INTEGER, nullable=False),
        Column("part_known", ColumnType.BOOLEAN, nullable=False),
    ],
)


@dataclass(frozen=True)
class ScoredCode:
    """One recommended error code with its similarity score."""

    error_code: str
    score: float
    support: int = 1


@dataclass
class Recommendation:
    """The ranked error-code list for one data bundle (Fig. 7)."""

    ref_no: str
    part_id: str
    codes: list[ScoredCode] = field(default_factory=list)
    #: Confidence signals observed while ranking (see repro.triage):
    #: how many candidate nodes were scored, how many of them voted for
    #: the winning code, and whether the part ID was known to the
    #: knowledge base (False means the global-candidate fallback fired).
    pool_size: int = 0
    winner_nodes: int = 0
    part_known: bool = True

    def top(self, k: int) -> list[ScoredCode]:
        """The first *k* recommendations (the UI shows 10 by default)."""
        return self.codes[:k]

    def rank_of(self, error_code: str) -> int | None:
        """1-based rank of *error_code*, or None if absent.

        Deterministic under score ties: the rank is defined by the total
        order (score desc, error_code asc) regardless of the insertion
        order of ``codes``, so confidence margins and hit rates are stable
        across runs even when a caller builds the list unsorted.
        """
        target = next((scored for scored in self.codes
                       if scored.error_code == error_code), None)
        if target is None:
            return None
        return 1 + sum(
            1 for scored in self.codes
            if (-scored.score, scored.error_code)
            < (-target.score, target.error_code))

    def hit_at(self, error_code: str, k: int) -> bool:
        """Whether *error_code* appears within the first *k* entries."""
        rank = self.rank_of(error_code)
        return rank is not None and rank <= k

    def __len__(self) -> int:
        return len(self.codes)


def create_recommendation_table(database: Database) -> None:
    """Create (if needed) and index the recommendations table."""
    if not database.has_table("recommendations"):
        table = database.create_table("recommendations", RECOMMENDATION_SCHEMA)
        table.create_index("ix_reco_ref", "ref_no")


def recommendation_rows(recommendation: Recommendation) -> list[dict]:
    """The stored rows of one ranked list, in rank order (rank 1 first)."""
    return [
        {
            "ref_no": recommendation.ref_no,
            "error_code": scored.error_code,
            "score": scored.score,
            "rank": rank,
            "support": scored.support,
            "pool_size": recommendation.pool_size,
            "winner_nodes": recommendation.winner_nodes,
            "part_known": recommendation.part_known,
        }
        for rank, scored in enumerate(recommendation.codes, start=1)]


def recommendation_from_rows(ref_no: str, part_id: str,
                             rows: list[dict]) -> Recommendation:
    """The ranked list that *rows* (one ref's stored rows, ordered by
    rank, at least one) store; the inverse of :func:`recommendation_rows`."""
    head = rows[0]
    return Recommendation(
        ref_no=ref_no, part_id=part_id,
        codes=[ScoredCode(row["error_code"], row["score"], row["support"])
               for row in rows],
        pool_size=head.get("pool_size", 0),
        winner_nodes=head.get("winner_nodes", 0),
        part_known=head.get("part_known", True))


def store_recommendations(database: Database,
                          recommendations: Iterable[Recommendation]) -> int:
    """Persist ranked recommendations; returns the number of rows written.

    A list whose rows are already stored exactly (same count, rank
    order and values in every column) is left alone: it writes nothing,
    journals nothing and counts 0 rows.  Any other list replaces the
    ref's stored rows.
    """
    create_recommendation_table(database)
    table = database.table("recommendations")
    written = 0
    # In call order, each list compared against what the caller sees
    # (its own transaction's writes included), so a ref given twice
    # keeps its last list.
    for recommendation in recommendations:
        rows = recommendation_rows(recommendation)
        same_ref = col("ref_no") == recommendation.ref_no
        if table.select(same_ref, order_by="rank") == rows:
            continue
        table.delete(same_ref)
        written += len(table.insert_many(rows))
    return written


def load_recommendation(database: Database, ref_no: str,
                        part_id: str = "") -> Recommendation | None:
    """Load the stored ranked list for one bundle, or None."""
    if not database.has_table("recommendations"):
        return None
    rows = database.table("recommendations").select(
        col("ref_no") == ref_no, order_by="rank")
    if not rows:
        return None
    return recommendation_from_rows(ref_no, part_id, rows)
