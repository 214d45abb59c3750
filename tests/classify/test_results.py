"""Unit tests for result objects and their persistence."""

import contextlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify import (Recommendation, ScoredCode, load_recommendation,
                            store_recommendations)
from repro.relstore import Database, open_database
from repro.relstore.wal import WAL_NAME
from repro.triage import ReviewQueue


def sample():
    return Recommendation(ref_no="R1", part_id="P1", codes=[
        ScoredCode("E1", 0.9, 3),
        ScoredCode("E2", 0.7, 1),
        ScoredCode("E3", 0.5, 2),
    ])


class TestRecommendation:
    def test_len_top_rank(self):
        recommendation = sample()
        assert len(recommendation) == 3
        assert [scored.error_code for scored in recommendation.top(2)] == ["E1", "E2"]
        assert recommendation.rank_of("E3") == 3
        assert recommendation.hit_at("E2", 2)
        assert not recommendation.hit_at("E3", 2)


class TestDeterministicRanks:
    def test_equal_scores_tie_break_on_error_code(self):
        # Inserted out of code order on purpose: the tie-break is
        # (score desc, error_code asc), not list position.
        recommendation = Recommendation(ref_no="R1", part_id="P1", codes=[
            ScoredCode("E2", 0.7, 1),
            ScoredCode("E1", 0.7, 2),
            ScoredCode("E3", 0.4, 1),
        ])
        assert recommendation.rank_of("E1") == 1
        assert recommendation.rank_of("E2") == 2
        assert recommendation.rank_of("E3") == 3

    def test_hit_at_uses_the_same_tie_break(self):
        recommendation = Recommendation(ref_no="R1", part_id="P1", codes=[
            ScoredCode("E2", 0.7, 1),
            ScoredCode("E1", 0.7, 2),
        ])
        assert recommendation.hit_at("E1", 1)
        assert not recommendation.hit_at("E2", 1)
        assert recommendation.hit_at("E2", 2)

    def test_all_equal_scores_rank_fully_by_code(self):
        codes = [ScoredCode(f"E{i}", 0.5, 1) for i in (4, 2, 9, 1)]
        recommendation = Recommendation(ref_no="R1", part_id="P1",
                                        codes=codes)
        ranks = {code: recommendation.rank_of(code)
                 for code in ("E1", "E2", "E4", "E9")}
        assert ranks == {"E1": 1, "E2": 2, "E4": 3, "E9": 4}

    def test_unknown_code_has_no_rank(self):
        assert sample().rank_of("E404") is None


class TestPersistence:
    def test_store_and_load(self):
        db = Database()
        assert store_recommendations(db, [sample()]) == 3
        loaded = load_recommendation(db, "R1", part_id="P1")
        assert loaded is not None
        assert [scored.error_code for scored in loaded.codes] == ["E1", "E2", "E3"]
        assert loaded.codes[0].score == 0.9
        assert loaded.codes[0].support == 3

    def test_restore_overwrites_previous(self):
        db = Database()
        store_recommendations(db, [sample()])
        updated = Recommendation(ref_no="R1", part_id="P1",
                                 codes=[ScoredCode("E9", 1.0, 1)])
        store_recommendations(db, [updated])
        loaded = load_recommendation(db, "R1")
        assert [scored.error_code for scored in loaded.codes] == ["E9"]

    def test_missing_returns_none(self):
        db = Database()
        assert load_recommendation(db, "nope") is None
        store_recommendations(db, [sample()])
        assert load_recommendation(db, "nope") is None


# ---------------------------------------------------------------------- #
# Write elision: a differential oracle against "the last list wins"

REFS = ("R1", "R2", "R3")
CODES = ("E1", "E2", "E3", "E4", "E5")
VARIANTS = ("same", "score", "support", "swap", "pool_size", "winner_nodes",
            "part_known", "fewer", "more", "empty", "fresh")

#: A ranked list as plain values: ((code, score, support), ...) in rank
#: order, pool_size, winner_nodes, part_known.
_specs = st.tuples(
    st.lists(st.tuples(st.sampled_from(CODES),
                       st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                       st.integers(1, 3)),
             max_size=4, unique_by=lambda code: code[0]).map(tuple),
    st.integers(0, 3), st.integers(0, 3), st.booleans())
_calls = st.lists(st.tuples(
    st.sampled_from(["autocommit", "commit", "rollback"]),
    st.lists(st.tuples(st.sampled_from(REFS), st.sampled_from(VARIANTS),
                       _specs), min_size=1, max_size=4)),
    min_size=1, max_size=8)


def vary(base, variant, fresh):
    """*base* changed in exactly the field *variant* names."""
    if base is None or variant == "fresh":
        return fresh
    codes, pool_size, winner_nodes, part_known = base
    if variant == "same":
        return base
    if variant == "pool_size":
        return codes, pool_size + 1, winner_nodes, part_known
    if variant == "winner_nodes":
        return codes, pool_size, winner_nodes + 1, part_known
    if variant == "part_known":
        return codes, pool_size, winner_nodes, not part_known
    if variant == "empty":
        return (), pool_size, winner_nodes, part_known
    if variant == "fewer" and codes:
        return codes[:-1], pool_size, winner_nodes, part_known
    if variant == "swap" and len(codes) > 1:
        codes = (codes[1], codes[0]) + codes[2:]
        return codes, pool_size, winner_nodes, part_known
    if variant in ("score", "support") and codes:
        code, score, support = codes[0]
        head = ((code, score + 0.125, support) if variant == "score"
                else (code, score, support + 1))
        return (head,) + codes[1:], pool_size, winner_nodes, part_known
    unused = [code for code in CODES
              if code not in {code for code, _, _ in codes}]
    if not unused:
        return codes[:-1], pool_size, winner_nodes, part_known
    return (codes + ((unused[0], 0.125, 1),), pool_size, winner_nodes,
            part_known)


def as_recommendation(ref_no, spec):
    codes, pool_size, winner_nodes, part_known = spec
    return Recommendation(
        ref_no=ref_no, part_id="P1",
        codes=[ScoredCode(code, score, support)
               for code, score, support in codes],
        pool_size=pool_size, winner_nodes=winner_nodes,
        part_known=part_known)


def expected_rows(ref_no, spec):
    """The rows a delete-then-insert of *spec* leaves: the last list wins."""
    if spec is None:
        return []
    codes, pool_size, winner_nodes, part_known = spec
    return [{"ref_no": ref_no, "error_code": code, "score": score,
             "rank": rank, "support": support, "pool_size": pool_size,
             "winner_nodes": winner_nodes, "part_known": part_known}
            for rank, (code, score, support) in enumerate(codes, start=1)]


def stored_rows(database):
    """Every ref's stored rows by rank, read by a full scan (row ids are
    not part of a row dict)."""
    grouped = {ref: [] for ref in REFS}
    if database.has_table("recommendations"):
        for row in database.table("recommendations").scan():
            grouped[row["ref_no"]].append(row)
    return {ref: sorted(rows, key=lambda row: row["rank"])
            for ref, rows in grouped.items()}


class Rollback(Exception):
    """Raised inside a transaction to roll it back."""


class TestStoreElisionOracle:
    """``store_recommendations`` writes nothing for an unchanged list and
    otherwise ends where "the last list wins" ends.

    Hypothesis drives call sequences (refs repeated within a call,
    identical lists, lists one field away, empty lists; autocommit, and
    transactions that commit or roll back) on a WAL-backed database.
    After every call the stored rows equal the reference, the return
    value counts exactly the rows of the lists that changed, and a call
    that changes nothing appends no WAL record; a reopen recovers the
    same rows.
    """

    @settings(max_examples=60, deadline=None)
    @given(_calls)
    def test_matches_the_last_list_wins(self, calls):
        with tempfile.TemporaryDirectory() as directory:
            db, _ = open_database(directory, sync=False)
            wal_path = Path(directory) / WAL_NAME
            reference = {}
            for mode, entries in calls:
                seen = dict(reference)
                recommendations, changed, changed_rows = [], False, 0
                for ref_no, variant, fresh in entries:
                    spec = vary(seen.get(ref_no), variant, fresh)
                    if expected_rows(ref_no, spec) != expected_rows(
                            ref_no, seen.get(ref_no)):
                        changed = True
                        changed_rows += len(spec[0])
                    seen[ref_no] = spec
                    recommendations.append(as_recommendation(ref_no, spec))
                appended = db._wal.appended
                size = wal_path.stat().st_size if wal_path.exists() else 0
                if mode == "autocommit":
                    written = store_recommendations(db, recommendations)
                else:
                    expect = (pytest.raises(Rollback) if mode == "rollback"
                              else contextlib.nullcontext())
                    with expect, db.transaction():
                        written = store_recommendations(db, recommendations)
                        if mode == "rollback":
                            raise Rollback
                if mode != "rollback":
                    reference = seen
                assert written == changed_rows
                assert stored_rows(db) == {
                    ref: expected_rows(ref, reference.get(ref))
                    for ref in REFS}
                # An empty log means no committed table yet: the call
                # may create it, which journals the DDL.
                if (mode == "rollback" or not changed) and size:
                    assert db._wal.appended == appended
                    assert wal_path.stat().st_size == size
            expected = stored_rows(db)
            db._wal.close()
            reopened, _ = open_database(directory, sync=False)
            assert stored_rows(reopened) == expected
            reopened._wal.close()


class TestElisionJournalsNothing:
    def wal_db(self, directory):
        db, _ = open_database(directory)
        store_recommendations(db, [sample()])
        ReviewQueue(db).enqueue("R1", "P1", 0.25)
        return db

    def test_unchanged_transaction_journals_nothing(self, tmp_path):
        db = self.wal_db(tmp_path)
        wal = db._wal
        before = (wal.appended, wal.batches, wal.fsyncs,
                  (tmp_path / WAL_NAME).stat().st_size)
        with db.transaction():
            assert store_recommendations(db, [sample(), sample()]) == 0
            assert ReviewQueue(db).enqueue("R1", "P1", 0.25) is True
        assert (wal.appended, wal.batches, wal.fsyncs,
                (tmp_path / WAL_NAME).stat().st_size) == before
        wal.close()

    def test_one_changed_list_journals_only_its_own_rows(self, tmp_path):
        db = self.wal_db(tmp_path)
        wal = db._wal
        appended, batches = wal.appended, wal.batches
        changed = sample()
        changed.codes[1] = ScoredCode("E2", 0.6, 1)
        other = Recommendation(ref_no="R2", part_id="P1",
                               codes=[ScoredCode("E7", 0.4, 1)])
        with db.transaction():
            assert store_recommendations(db, [sample(), changed, other]) == 4
        # One frame: begin, 3 deletes, 3 + 1 inserts, commit.
        assert wal.appended - appended == 1 + 3 + 4 + 1
        assert wal.batches - batches == 1
        wal.close()
