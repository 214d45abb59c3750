"""The persistent override store: engineer pins that always win.

An override pins one error code to one bundle.  Pins are append-only
rows in a relstore table — superseding a pin writes a new row and stamps
the old one's ``superseded_by`` with the new row's id, so the full
decision history survives (and recovery can never resurrect a superseded
pin without also replaying the row that superseded it).  The table is
created on the service's database, so when that database is journaled
(``open_database``) every pin rides the WAL like any other write.
"""

from __future__ import annotations

import time

from ..classify.results import Recommendation, ScoredCode
from ..relstore import Column, ColumnType, Database, Schema, col

OVERRIDE_SCHEMA = Schema.build(
    [
        Column("ref_no", ColumnType.TEXT, nullable=False),
        Column("error_code", ColumnType.TEXT, nullable=False),
        Column("actor", ColumnType.TEXT, nullable=False),
        Column("reason", ColumnType.TEXT, nullable=False),
        Column("created_at", ColumnType.REAL, nullable=False),
        Column("superseded_by", ColumnType.INTEGER, nullable=True),
    ],
)


def override_recommendation(ref_no: str, part_id: str,
                            error_code: str) -> Recommendation:
    """The ranked list served for an overridden bundle.

    A single pinned code at score 1.0.  Both the service and the serving
    gateway build override responses through this one helper, so the
    parity suite can demand byte-identical output across executors.
    """
    return Recommendation(ref_no=ref_no, part_id=part_id,
                          codes=[ScoredCode(error_code, 1.0, 1)],
                          pool_size=0, winner_nodes=0, part_known=True)


class OverrideStore:
    """Durable engineer overrides, keyed by bundle reference number."""

    def __init__(self, database: Database) -> None:
        self._table = database.create_table("overrides", OVERRIDE_SCHEMA,
                                            if_not_exists=True)
        if "ix_override_ref" not in self._table.indexes:
            self._table.create_index("ix_override_ref", "ref_no")

    def __len__(self) -> int:
        """Number of *active* (non-superseded) overrides."""
        return len(self.active_map())

    def _live_row_ids(self, ref_no: str) -> list[int]:
        """Ids of *ref_no*'s not-yet-superseded pins, oldest first."""
        return self._table.row_ids_where(
            (col("ref_no") == ref_no) & col("superseded_by").is_null())

    def pin(self, actor: str, ref_no: str, error_code: str,
            reason: str = "") -> dict:
        """Pin *error_code* to *ref_no*, superseding any earlier pin.

        Returns the stored override row (with its ``override_id``).
        """
        prior = self._live_row_ids(ref_no)
        row = {
            "ref_no": ref_no,
            "error_code": error_code,
            "actor": actor,
            "reason": reason,
            "created_at": time.time(),
            "superseded_by": None,
        }
        row_id = self._table.insert(row)
        for rid in prior:
            self._table.update(rid, {"superseded_by": row_id})
        return {"override_id": row_id, **row}

    def active(self, ref_no: str) -> dict | None:
        """The active override for *ref_no*, or None."""
        live = self._live_row_ids(ref_no)
        if not live:
            return None
        return {"override_id": live[-1], **self._table.get(live[-1])}

    def active_map(self) -> dict[str, str]:
        """All active pins as ``{ref_no: error_code}``.

        This is the mapping a :class:`ModelSnapshot` carries, so the
        in-process service and the gateway serve overrides consistently.
        """
        pins: dict[str, str] = {}
        for row in self._table.select(col("superseded_by").is_null()):
            pins[row["ref_no"]] = row["error_code"]
        return pins

    def history(self, ref_no: str) -> list[dict]:
        """Every pin ever recorded for *ref_no*, oldest first."""
        return [{"override_id": rid, **self._table.get(rid)}
                for rid in self._table.row_ids_where(col("ref_no") == ref_no)]
