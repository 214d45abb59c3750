"""Crash-recovery tests: corruption, torn writes, WAL replay, fault seeds.

The acceptance bar: a database that crashed mid-save (or suffered torn or
bit-flipped records) reopens with every previously committed row intact,
damaged records quarantined — never silently dropped, never a hard abort
in recovery mode.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relstore import (CorruptionError, Database, PersistenceError,
                            Schema, checkpoint, load_database, open_database,
                            recover_database, save_database)
from repro.relstore import persist
from repro.relstore.wal import WAL_NAME, encode_record
from repro.testing import FaultInjected, FaultPlan

SCHEMA = [("k", "text"), ("n", "integer")]


def snapshot_with_rows(directory, rows):
    db = Database("store")
    table = db.create_table("t", Schema.build(SCHEMA))
    for row in rows:
        table.insert(row)
    save_database(db, directory)
    return db


def table_state(db, name="t"):
    table = db.table(name)
    return {row_id: table.get(row_id) for row_id in table.row_ids()}


def sample_rows(count):
    return [{"k": f"k{i}", "n": i} for i in range(count)]


class TestCorruptionRecovery:
    def test_clean_snapshot_reports_clean(self, tmp_path):
        snapshot_with_rows(tmp_path / "store", sample_rows(4))
        db, report = recover_database(tmp_path / "store")
        assert report.clean
        assert report.rows_loaded == 4
        assert db.table("t").count() == 4
        assert "4 row(s)" in report.summary()

    def test_truncated_file_quarantines_torn_row(self, tmp_path):
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(5))
        data_path = directory / "t.jsonl"
        data_path.write_bytes(data_path.read_bytes()[:-9])
        db, report = recover_database(directory)
        assert db.table("t").count() == 4
        assert len(report.quarantined) == 1
        assert (directory / "t.quarantine.jsonl").is_file()
        assert not report.clean
        with pytest.raises(CorruptionError):
            load_database(directory)

    def test_bit_flipped_row_fails_checksum(self, tmp_path):
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(3))
        data_path = directory / "t.jsonl"
        lines = data_path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["row"]["n"] = 999  # tamper without updating the CRC
        lines[1] = json.dumps(record, sort_keys=True, ensure_ascii=False)
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        db, report = recover_database(directory)
        assert db.table("t").count() == 2
        assert any("checksum" in rec.reason for rec in report.quarantined)
        assert 999 not in {row["n"] for row in db.table("t").scan()}
        with pytest.raises(CorruptionError, match="checksum"):
            load_database(directory)

    def test_missing_data_file(self, tmp_path):
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(2))
        (directory / "t.jsonl").unlink()
        with pytest.raises(PersistenceError, match="missing data file"):
            load_database(directory)
        db, report = recover_database(directory)
        assert report.missing_files == ["t.jsonl"]
        assert db.table("t").count() == 0

    def test_orphan_data_file_reported(self, tmp_path):
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(1))
        # a data file with no catalog.json entry (e.g. half-dropped table)
        (directory / "ghost.jsonl").write_text("", encoding="utf-8")
        _, report = recover_database(directory)
        assert report.orphan_files == ["ghost.jsonl"]
        assert not report.clean

    def test_repeated_recovery_does_not_grow_quarantine_file(self, tmp_path):
        # Damage that cannot be scrubbed from its source file (table rows)
        # is re-reported on every open, but the on-disk quarantine file
        # must not accumulate duplicates — recovery is idempotent on disk.
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(3))
        data_path = directory / "t.jsonl"
        lines = data_path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["row"]["n"] = 999  # tamper without updating the CRC
        lines[1] = json.dumps(record, sort_keys=True, ensure_ascii=False)
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        quarantine_path = directory / "t.quarantine.jsonl"
        reports = []
        for _ in range(3):
            _, report = recover_database(directory)
            reports.append(len(report.quarantined))
        assert reports == [1, 1, 1]  # each run still reports the damage
        assert len(quarantine_path.read_text("utf-8").splitlines()) == 1

    def test_quarantine_file_preserves_damaged_raw(self, tmp_path):
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(2))
        data_path = directory / "t.jsonl"
        data_path.write_bytes(data_path.read_bytes()[:-5])
        recover_database(directory)
        entries = [json.loads(line) for line in
                   (directory / "t.quarantine.jsonl").read_text("utf-8")
                   .splitlines()]
        assert len(entries) == 1
        assert entries[0]["source"] == "t.jsonl"
        assert entries[0]["raw"]  # the torn bytes are kept for forensics


# Characters str.splitlines() breaks a line at that JSON leaves
# unescaped under ensure_ascii=False; a record holds them verbatim.
UNESCAPED_LINE_BREAKS = ["\x85", "\u2028", "\u2029"]


class TestUnicodeLineBreaksInText:
    """Stored text may hold a line break that is not "\\n" (messy report
    text often does); the record it is in must survive a reopen."""

    @pytest.mark.parametrize("brk", UNESCAPED_LINE_BREAKS)
    def test_row_survives_wal_replay(self, tmp_path, brk):
        directory = tmp_path / "store"
        db, _ = open_database(directory)
        table = db.create_table("t", Schema.build(SCHEMA))
        table.insert({"k": f"Kühler{brk}undicht", "n": 1})
        table.insert({"k": "plain", "n": 2})
        db._wal.close()
        reopened, report = open_database(directory)
        assert table_state(reopened) == table_state(db)
        assert report.clean
        reopened._wal.close()

    @pytest.mark.parametrize("brk", UNESCAPED_LINE_BREAKS)
    def test_row_survives_snapshot_reload(self, tmp_path, brk):
        directory = tmp_path / "store"
        db = snapshot_with_rows(directory, [{"k": f"Öl{brk}stand", "n": 1},
                                            {"k": "plain", "n": 2}])
        reopened, report = recover_database(directory)
        assert table_state(reopened) == table_state(db)
        assert report.clean
        assert table_state(load_database(directory)) == table_state(db)


class TestWalRecovery:
    def test_wal_ops_survive_reopen_without_snapshot(self, tmp_path):
        directory = tmp_path / "store"
        db, _ = open_database(directory)
        table = db.create_table("t", Schema.build(SCHEMA))
        for row in sample_rows(3):
            table.insert(row)
        db._wal.close()
        reopened, report = open_database(directory)
        assert table_state(reopened) == table_state(db)
        assert report.wal_records_applied >= 4  # create_table + 3 inserts
        reopened._wal.close()

    def test_replay_is_idempotent_across_reopens(self, tmp_path):
        directory = tmp_path / "store"
        db, _ = open_database(directory)
        table = db.create_table("t", Schema.build(SCHEMA))
        for row in sample_rows(3):
            table.insert(row)
        table.update(next(iter(table.row_ids())), {"n": 42})
        db._wal.close()
        states = []
        for _ in range(2):  # reopen twice without checkpointing
            reopened, report = open_database(directory)
            states.append(table_state(reopened))
            reopened._wal.close()
            assert not report.quarantined
        assert states[0] == states[1] == table_state(db)

    def test_recover_wal_only_directory(self, tmp_path):
        # Crashed before the first checkpoint: no catalog.json exists yet,
        # the WAL is the entire database.
        directory = tmp_path / "store"
        db, _ = open_database(directory)
        table = db.create_table("t", Schema.build(SCHEMA))
        table.insert({"k": "a", "n": 1})
        db._wal.close()
        assert not (directory / "catalog.json").exists()
        recovered, report = recover_database(directory)
        assert recovered.table("t").count() == 1
        assert report.wal_records_applied == 2  # create_table + insert

    def test_checkpoint_truncates_wal(self, tmp_path):
        directory = tmp_path / "store"
        db, _ = open_database(directory)
        table = db.create_table("t", Schema.build(SCHEMA))
        for row in sample_rows(2):
            table.insert(row)
        checkpoint(db, directory)
        assert (directory / WAL_NAME).stat().st_size == 0
        db._wal.close()
        reopened, report = open_database(directory)
        assert report.wal_records_applied == 0
        assert table_state(reopened) == table_state(db)
        reopened._wal.close()

    def test_append_after_torn_tail_preserves_acknowledged_write(
            self, tmp_path):
        # Crash mid-append leaves a partial record with no trailing
        # newline.  The next acknowledged (fsync'd) append must not land
        # on that same line: merged with the torn garbage it would fail
        # its CRC on the following recovery and the acknowledged write
        # would be silently lost.
        directory = tmp_path / "store"
        db, _ = open_database(directory)
        table = db.create_table("t", Schema.build(SCHEMA))
        table.insert({"k": "a", "n": 1})
        db._wal.close()
        with (directory / WAL_NAME).open("a", encoding="utf-8") as handle:
            handle.write('{"crc": 7, "op": {"op": "ins')  # died mid-append
        db2, _ = open_database(directory)
        db2.table("t").insert({"k": "b", "n": 2})  # fsync'd: acknowledged
        db2._wal.close()
        recovered, report = recover_database(directory)
        assert {row["k"] for row in recovered.table("t").scan()} == {"a", "b"}
        assert not report.quarantined
        assert not report.wal_torn_tail_discarded  # repaired at reopen

    def test_recovery_repairs_wal_file_on_disk(self, tmp_path):
        # Quarantined interior corruption and a torn tail are dropped from
        # wal.jsonl itself, so a second recovery sees a clean log instead
        # of re-discovering (and re-quarantining) the same damage.
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(1))
        good = encode_record({"op": "insert", "table": "t", "id": 50,
                              "row": {"k": "late", "n": 50}})
        (directory / WAL_NAME).write_text(
            '{"crc": 1, "op": {"op": "clear", "table": "t"}}\n'
            + good + "\n" + '{"crc": 2, "op": {"op": "tor',
            encoding="utf-8")
        db, report = recover_database(directory)
        assert len(report.quarantined) == 1
        assert report.wal_torn_tail_discarded == 1
        again, second = recover_database(directory)
        assert second.clean
        assert not second.quarantined and not second.wal_torn_tail_discarded
        assert table_state(again) == table_state(db)
        quarantine_path = directory / "wal.quarantine.jsonl"
        assert len(quarantine_path.read_text("utf-8").splitlines()) == 1

    def test_crash_between_data_and_catalog_write_stays_loadable(
            self, tmp_path, monkeypatch):
        # save_database replaces data files first and the catalog last; a
        # crash in between leaves t.jsonl newer than the digest/row count
        # the old catalog describes.  Every row CRC is valid and the WAL
        # still holds the committed ops, so even the strict loader must
        # treat this as a survived crash, not corruption.
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(3))
        db, _ = open_database(directory)
        table = db.table("t")
        table.insert({"k": "k3", "n": 3})
        for row_id in sorted(table.row_ids())[:2]:
            table.delete_row(row_id)  # shrink below the cataloged count
        plan = FaultPlan(seed=0)
        monkeypatch.setattr(
            persist, "_atomic_write_text",
            plan.raise_on_nth(persist._atomic_write_text, 2))
        with pytest.raises(FaultInjected):
            save_database(db, directory)  # t.jsonl written, catalog not
        db._wal.close()
        monkeypatch.undo()
        strict = load_database(directory)  # must not raise
        assert table_state(strict) == table_state(db)
        recovered, report = recover_database(directory)
        assert table_state(recovered) == table_state(db)
        assert report.clean  # no spurious checksum findings either

    def test_corrupt_interior_wal_record_quarantined(self, tmp_path):
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(1))
        good = encode_record({"op": "insert", "table": "t", "id": 50,
                              "row": {"k": "late", "n": 50}})
        (directory / WAL_NAME).write_text(
            '{"crc": 1, "op": {"op": "clear", "table": "t"}}\n' + good + "\n",
            encoding="utf-8")
        with pytest.raises(CorruptionError):
            load_database(directory)
        db, report = recover_database(directory)
        assert db.table("t").count() == 2  # snapshot row + intact WAL insert
        assert len(report.quarantined) == 1
        assert (directory / "wal.quarantine.jsonl").is_file()

    @pytest.mark.parametrize("crash_on_write", [1, 2, 3])
    def test_crash_mid_save_keeps_committed_rows(self, tmp_path, monkeypatch,
                                                 crash_on_write):
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(3))
        db, _ = open_database(directory)
        table = db.table("t")
        for row in sample_rows(5)[3:]:
            table.insert(row)  # committed: fsync'd into the WAL
        plan = FaultPlan(seed=crash_on_write)
        monkeypatch.setattr(
            persist, "_atomic_write_text",
            plan.raise_on_nth(persist._atomic_write_text, crash_on_write))
        if crash_on_write <= 2:  # 2 writes per save: t.jsonl, catalog.json
            with pytest.raises(FaultInjected):
                save_database(db, directory)
        else:
            save_database(db, directory)
        db._wal.close()
        monkeypatch.undo()
        recovered, _ = open_database(directory)
        assert {row["k"] for row in recovered.table("t").scan()} == \
            {f"k{i}" for i in range(5)}
        recovered._wal.close()

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 5)),
            st.tuples(st.just("update"), st.integers(0, 9),
                      st.integers(0, 5)),
            st.tuples(st.just("delete"), st.integers(0, 9)),
        ), max_size=12), cut=st.floats(0, 1))
    def test_recovery_yields_a_prefix_of_committed_state(self, ops, cut):
        # Crash-consistency property: truncate the WAL anywhere and the
        # recovered state equals the state after some prefix of the
        # committed ops — never a reordering, never a partial op.
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "store"
            db, _ = open_database(directory)
            table = db.create_table("t", Schema.build(SCHEMA))
            checkpoint(db, directory)
            states = [table_state(db)]
            for op in ops:
                row_ids = sorted(table.row_ids())
                if op[0] == "insert":
                    table.insert({"k": f"k{op[1]}", "n": op[1]})
                elif not row_ids:
                    continue  # nothing to update/delete; no WAL record
                elif op[0] == "update":
                    table.update(row_ids[op[1] % len(row_ids)],
                                 {"n": op[2]})
                else:
                    table.delete_row(row_ids[op[1] % len(row_ids)])
                states.append(table_state(db))
            db._wal.close()
            wal_path = directory / WAL_NAME
            keep = int(wal_path.stat().st_size * cut)
            FaultPlan().truncate_file(wal_path, keep_bytes=keep)
            recovered, report = recover_database(directory)
            assert table_state(recovered) in states
            assert not report.quarantined  # a torn tail is not corruption
            again, _ = recover_database(directory)
            assert table_state(again) == table_state(recovered)


@pytest.mark.faults
@pytest.mark.parametrize("seed", range(5))
class TestSeededFaults:
    """Tier-2 randomized-but-reproducible scenarios (``make test-faults``)."""

    def build_wal_scenario(self, directory):
        db, _ = open_database(directory)
        table = db.create_table("t", Schema.build(SCHEMA))
        checkpoint(db, directory)
        states = [table_state(db)]
        for row in sample_rows(20):
            table.insert(row)
            states.append(table_state(db))
        db._wal.close()
        return states

    def test_wal_torn_at_seeded_offset_recovers_prefix(self, tmp_path, seed):
        directory = tmp_path / "store"
        states = self.build_wal_scenario(directory)
        FaultPlan(seed=seed).truncate_file(directory / WAL_NAME)
        recovered, report = recover_database(directory)
        assert table_state(recovered) in states
        assert not report.quarantined

    def test_same_seed_recovers_identical_state(self, tmp_path, seed):
        outcomes = []
        for run in ("a", "b"):
            directory = tmp_path / run
            self.build_wal_scenario(directory)
            FaultPlan(seed=seed).truncate_file(directory / WAL_NAME)
            recovered, report = recover_database(directory)
            outcomes.append((table_state(recovered),
                             report.wal_torn_tail_discarded))
        assert outcomes[0] == outcomes[1]

    def test_seeded_bit_flip_never_loads_a_corrupt_row(self, tmp_path, seed):
        directory = tmp_path / "store"
        committed = sample_rows(20)
        snapshot_with_rows(directory, committed)
        FaultPlan(seed=seed).flip_byte(directory / "t.jsonl")
        recovered, report = recover_database(directory)
        loaded = list(recovered.table("t").scan())
        assert all(row in committed for row in loaded)  # nothing mangled
        assert len(loaded) >= 18  # at most the two flip-adjacent rows lost
        assert not report.clean  # the file digest always notices the flip

    def test_seeded_crash_during_save(self, tmp_path, monkeypatch, seed):
        directory = tmp_path / "store"
        snapshot_with_rows(directory, sample_rows(4))
        db, _ = open_database(directory)
        table = db.table("t")
        extra = 3 + seed
        for row in [{"k": f"x{i}", "n": 100 + i} for i in range(extra)]:
            table.insert(row)
        plan = FaultPlan(seed=seed)
        crash_on_write = seed % 2 + 1
        monkeypatch.setattr(
            persist, "_atomic_write_text",
            plan.raise_on_nth(persist._atomic_write_text, crash_on_write))
        with pytest.raises(FaultInjected):
            save_database(db, directory)
        db._wal.close()
        monkeypatch.undo()
        recovered, _ = open_database(directory)
        expected = ({f"k{i}" for i in range(4)}
                    | {f"x{i}" for i in range(extra)})
        assert {row["k"] for row in recovered.table("t").scan()} == expected
        recovered._wal.close()
