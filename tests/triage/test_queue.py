"""Review-queue tests: lifecycle, drain order, claim semantics."""

import pytest

from repro.quest.errors import UnknownBundleError
from repro.relstore import Database, IntegrityError, open_database
from repro.triage import RESOLUTIONS, ReviewQueue


def make_queue():
    return ReviewQueue(Database("t"))


def test_enqueue_and_drain_order_is_ascending_confidence():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    queue.enqueue("R2", "P1", 0.10)
    queue.enqueue("R3", "P2", 0.20)
    assert [row["ref_no"] for row in queue.pending()] == ["R2", "R3", "R1"]
    assert [row["ref_no"] for row in queue.pending(limit=2)] == ["R2", "R3"]


def test_equal_confidence_drains_oldest_first():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.2)
    queue.enqueue("R2", "P1", 0.2)
    assert [row["ref_no"] for row in queue.pending()] == ["R1", "R2"]


def test_reenqueue_refreshes_a_pending_entry_in_place():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    queue.enqueue("R1", "P1", 0.10)
    entries = queue.pending()
    assert len(entries) == 1
    assert entries[0]["confidence"] == 0.10


def test_reenqueue_leaves_a_claimed_entry_untouched():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    queue.claim("expert", "R1")
    assert queue.enqueue("R1", "P1", 0.05) is False
    entry = queue.entry("R1")
    assert entry["status"] == "claimed"
    assert entry["confidence"] == 0.30


def test_claim_without_ref_takes_the_weakest_pending():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    queue.enqueue("R2", "P1", 0.10)
    claimed = queue.claim("expert")
    assert claimed["ref_no"] == "R2"
    assert claimed["status"] == "claimed"
    assert claimed["claimed_by"] == "expert"


def test_claim_on_a_drained_queue_returns_none():
    assert make_queue().claim("expert") is None


def test_foreign_claim_conflicts():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    queue.claim("expert", "R1")
    queue.claim("expert", "R1")  # same actor: idempotent
    with pytest.raises(IntegrityError):
        queue.claim("expert2", "R1")


def test_unknown_ref_raises_unknown_bundle():
    queue = make_queue()
    with pytest.raises(UnknownBundleError):
        queue.claim("expert", "R404")
    with pytest.raises(UnknownBundleError):
        queue.resolve("expert", "R404", "accept")


def test_resolution_must_be_known():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    with pytest.raises(ValueError, match="unknown resolution"):
        queue.resolve("expert", "R1", "shrug")
    assert set(RESOLUTIONS) == {"accept", "override", "escalate"}


def test_pending_entry_may_resolve_without_a_claim():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    resolved = queue.resolve("expert", "R1", "accept")
    assert resolved["status"] == "resolved"
    assert resolved["resolution"] == "accept"
    assert queue.entry("R1") is None
    assert queue.counts() == {"pending": 0, "claimed": 0, "resolved": 1}


def test_foreign_resolve_conflicts_unless_forced():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    queue.claim("expert", "R1")
    with pytest.raises(IntegrityError):
        queue.resolve("expert2", "R1", "escalate")
    resolved = queue.resolve("expert2", "R1", "override", force=True)
    assert resolved["resolution"] == "override"


def test_resolved_ref_may_be_enqueued_again():
    queue = make_queue()
    queue.enqueue("R1", "P1", 0.30)
    queue.resolve("expert", "R1", "accept")
    assert queue.enqueue("R1", "P1", 0.25) is True
    assert queue.entry("R1")["status"] == "pending"
    assert len(queue) == 1


def test_sequence_survives_reconstruction():
    database = Database("t")
    queue = ReviewQueue(database)
    queue.enqueue("R1", "P1", 0.2)
    queue.enqueue("R2", "P1", 0.2)
    again = ReviewQueue(database)
    again.enqueue("R3", "P1", 0.2)
    # ties still drain oldest-first across the reconstruction
    assert [row["ref_no"] for row in again.pending()] == ["R1", "R2", "R3"]


# ---------------------------------------------------------------------- #
# refreshing an entry on a WAL-backed database


@pytest.fixture
def wal_queue(tmp_path):
    database, _ = open_database(tmp_path)
    queue = ReviewQueue(database)
    queue.enqueue("R1", "P1", 0.30)
    yield queue, database._wal
    database._wal.close()


def test_unchanged_refresh_writes_nothing(wal_queue):
    queue, wal = wal_queue
    entry = queue.entry("R1")
    appended, size = wal.appended, wal.path.stat().st_size
    assert queue.enqueue("R1", "P1", 0.30) is True
    assert queue.entry("R1") == entry
    assert (wal.appended, wal.path.stat().st_size) == (appended, size)


@pytest.mark.parametrize("part_id,confidence",
                         [("P1", 0.10), ("P2", 0.30), ("P2", 0.10)])
def test_changed_refresh_updates_the_entry_in_place(wal_queue, part_id,
                                                    confidence):
    queue, wal = wal_queue
    entry = queue.entry("R1")
    appended = wal.appended
    assert queue.enqueue("R1", part_id, confidence) is True
    assert queue.entry("R1") == dict(entry, part_id=part_id,
                                     confidence=confidence)
    assert queue.counts() == {"pending": 1, "claimed": 0, "resolved": 0}
    assert [op["op"] for op in wal][-1] == "update"
    assert wal.appended == appended + 1


def test_claimed_entry_is_untouched_by_a_refresh(wal_queue):
    queue, wal = wal_queue
    claimed = queue.claim("expert", "R1")
    appended = wal.appended
    assert queue.enqueue("R1", "P2", 0.05) is False
    assert queue.entry("R1") == claimed
    assert wal.appended == appended


def test_resolved_entry_gets_a_new_pending_entry(wal_queue):
    queue, wal = wal_queue
    resolved = queue.resolve("expert", "R1", "accept")
    assert queue.enqueue("R1", "P1", 0.30) is True
    fresh = queue.entry("R1")
    assert fresh["status"] == "pending"
    assert fresh["sequence"] > resolved["sequence"]
    assert queue.counts() == {"pending": 1, "claimed": 0, "resolved": 1}
    assert [op["op"] for op in wal][-1] == "insert"
