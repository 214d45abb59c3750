"""The review queue: weak suggestions routed to a human.

Lifecycle per entry: ``pending -> claimed(actor) -> resolved``, with one
of three resolutions — ``accept`` (the suggestion stood), ``override``
(the engineer pinned a different code) or ``escalate`` (kick upstairs).
Entries drain in ascending-confidence order so engineers always audit
the weakest prediction first.

Claim conflicts raise :class:`~repro.relstore.IntegrityError` (the
webapp maps it to 409); unknown or review-free refs raise
:class:`~repro.quest.errors.UnknownBundleError` (404).
"""

from __future__ import annotations

import itertools

from ..relstore import (Column, ColumnType, Database, IntegrityError, Schema,
                        col)


def _no_open_entry(ref_no: str) -> Exception:
    # Imported lazily: repro.quest.service imports this package, so a
    # module-level import of repro.quest here would be circular.
    from ..quest.errors import UnknownBundleError
    return UnknownBundleError(f"no open review entry for {ref_no!r}")

REVIEW_SCHEMA = Schema.build(
    [
        Column("ref_no", ColumnType.TEXT, nullable=False),
        Column("part_id", ColumnType.TEXT, nullable=False),
        Column("confidence", ColumnType.REAL, nullable=False),
        Column("status", ColumnType.TEXT, nullable=False),
        Column("claimed_by", ColumnType.TEXT, nullable=True),
        Column("resolution", ColumnType.TEXT, nullable=True),
        Column("sequence", ColumnType.INTEGER, nullable=False),
    ],
)

#: The accepted terminal outcomes.
RESOLUTIONS = ("accept", "override", "escalate")


class ReviewQueue:
    """A persistent claim/resolve queue over low-confidence suggestions."""

    def __init__(self, database: Database) -> None:
        self._table = database.create_table("review_queue", REVIEW_SCHEMA,
                                            if_not_exists=True)
        if "ix_review_ref" not in self._table.indexes:
            self._table.create_index("ix_review_ref", "ref_no")
        highest = max((row["sequence"] for row in self._table.scan()),
                      default=0)
        self._sequence = itertools.count(highest + 1)

    def __len__(self) -> int:
        """Number of open (pending or claimed) entries."""
        return sum(1 for row in self._table.scan()
                   if row["status"] != "resolved")

    def _open_row(self, ref_no: str) -> tuple[int, dict] | None:
        row_ids = self._table.row_ids_where(
            (col("ref_no") == ref_no) & (col("status") != "resolved"))
        if not row_ids:
            return None
        return row_ids[0], self._table.get(row_ids[0])

    # ------------------------------------------------------------------ #
    # intake

    def enqueue(self, ref_no: str, part_id: str, confidence: float) -> bool:
        """Add (or refresh) a review entry for *ref_no*.

        At most one open entry exists per ref: re-suggesting a pending
        bundle updates its confidence and part in place (and writes
        nothing when both are unchanged); a claimed entry is left
        untouched (an engineer is already on it).  Returns True when the
        pending entry is now current: created, refreshed or already
        equal.
        """
        found = self._open_row(ref_no)
        if found is not None:
            rid, row = found
            if row["status"] != "pending":
                return False
            if row["confidence"] != confidence or row["part_id"] != part_id:
                self._table.update(rid, {"confidence": confidence,
                                         "part_id": part_id})
            return True
        self._table.insert({
            "ref_no": ref_no,
            "part_id": part_id,
            "confidence": confidence,
            "status": "pending",
            "claimed_by": None,
            "resolution": None,
            "sequence": next(self._sequence),
        })
        return True

    # ------------------------------------------------------------------ #
    # inspection

    def entry(self, ref_no: str) -> dict | None:
        """The open entry for *ref_no*, or None."""
        found = self._open_row(ref_no)
        return dict(found[1]) if found is not None else None

    def pending(self, limit: int | None = None) -> list[dict]:
        """Open entries in drain order: ascending confidence, then age.

        Claimed entries are included (they are still open) — they sort by
        the same key, and callers can tell them apart by ``status``.
        """
        rows = [row for row in self._table.scan()
                if row["status"] != "resolved"]
        rows.sort(key=lambda row: (row["confidence"], row["sequence"]))
        return rows[:limit] if limit is not None else rows

    def counts(self) -> dict[str, int]:
        """Entry counts by status (pending / claimed / resolved)."""
        tallies = {"pending": 0, "claimed": 0, "resolved": 0}
        for row in self._table.scan():
            tallies[row["status"]] = tallies.get(row["status"], 0) + 1
        return tallies

    # ------------------------------------------------------------------ #
    # lifecycle

    def claim(self, actor: str, ref_no: str | None = None) -> dict | None:
        """Claim an entry for *actor*.

        With a *ref_no*, claims that entry; without one, claims the
        lowest-confidence pending entry (None when the queue is drained).
        Claiming an entry already claimed by the same actor is a no-op.

        Raises:
            UnknownBundleError: no open entry exists for *ref_no*.
            IntegrityError: the entry is claimed by someone else.
        """
        if ref_no is None:
            queue = [row for row in self.pending()
                     if row["status"] == "pending"]
            if not queue:
                return None
            ref_no = queue[0]["ref_no"]
        found = self._open_row(ref_no)
        if found is None:
            raise _no_open_entry(ref_no)
        rid, row = found
        if row["status"] == "claimed" and row["claimed_by"] != actor:
            raise IntegrityError(
                f"review entry for {ref_no!r} is already claimed by "
                f"{row['claimed_by']!r}")
        self._table.update(rid, {"status": "claimed", "claimed_by": actor})
        return self._table.get(rid)

    def resolve(self, actor: str, ref_no: str, resolution: str,
                *, force: bool = False) -> dict:
        """Resolve the open entry for *ref_no* with *resolution*.

        A pending entry may be resolved directly (claiming first is not
        mandatory).  *force* skips the claim-ownership check — used when
        an override pin lands from someone other than the claimant, since
        a pin is decisive regardless of who holds the claim.

        Raises:
            ValueError: unknown *resolution*.
            UnknownBundleError: no open entry for *ref_no*.
            IntegrityError: claimed by a different actor (unless forced).
        """
        if resolution not in RESOLUTIONS:
            raise ValueError(f"unknown resolution {resolution!r}; expected "
                             f"one of {', '.join(RESOLUTIONS)}")
        found = self._open_row(ref_no)
        if found is None:
            raise _no_open_entry(ref_no)
        rid, row = found
        if (not force and row["status"] == "claimed"
                and row["claimed_by"] != actor):
            raise IntegrityError(
                f"review entry for {ref_no!r} is claimed by "
                f"{row['claimed_by']!r}, not {actor!r}")
        self._table.update(rid, {"status": "resolved",
                                 "resolution": resolution,
                                 "claimed_by": actor})
        return self._table.get(rid)
