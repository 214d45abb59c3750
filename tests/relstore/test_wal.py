"""Unit tests for the write-ahead log and Database journaling."""

import json
import math
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relstore import Database, Schema, WriteAheadLog
from repro.relstore.wal import (canonical_json, checksum, encode_record,
                                replay_wal_file, rewrite_wal_file)


def make_db():
    db = Database("journaled")
    db.create_table("t", Schema.build([("k", "text"), ("n", "integer")]))
    return db


class TestWalFile:
    def test_append_and_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        ops = [{"op": "insert", "table": "t", "id": i, "row": {"k": f"k{i}"}}
               for i in range(3)]
        for op in ops:
            wal.append(op)
        wal.close()
        replay = wal.replay()
        assert replay.records == ops
        assert not replay.bad_records

    def test_replay_missing_file_is_empty(self, tmp_path):
        replay = replay_wal_file(tmp_path / "absent.jsonl")
        assert replay.records == [] and not replay.bad_records

    def test_torn_tail_discarded_not_fatal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "insert", "table": "t", "id": 1, "row": {}})
            wal.append({"op": "insert", "table": "t", "id": 2, "row": {}})
        data = path.read_bytes()
        path.write_bytes(data[:-9])  # tear the final record
        replay = replay_wal_file(path)
        assert len(replay.records) == 1
        assert replay.torn_tail
        assert not replay.interior_corruption

    def test_interior_corruption_flagged(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        good = encode_record({"op": "insert", "table": "t", "id": 2,
                              "row": {}})
        path.write_text('{"crc": 1, "op": {"op": "nope"}}\n' + good + "\n",
                        encoding="utf-8")
        replay = replay_wal_file(path)
        assert len(replay.records) == 1
        assert len(replay.interior_corruption) == 1
        assert "checksum" in replay.interior_corruption[0].reason

    def test_truncate_resets_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append({"op": "clear", "table": "t"})
        wal.truncate()
        wal.append({"op": "clear", "table": "u"})
        wal.close()
        replay = wal.replay()
        assert [op["table"] for op in replay.records] == ["u"]

    def test_every_record_is_checksummed_json(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append({"op": "insert", "table": "t", "id": 1,
                    "row": {"k": "ü"}})
        wal.close()
        record = json.loads((tmp_path / "wal.jsonl").read_text("utf-8"))
        assert set(record) == {"crc", "op"}
        assert isinstance(record["crc"], int)


def reference_record(op):
    """The two-pass record encoding every earlier log was written in:
    the CRC of the op's canonical JSON, then the canonical JSON of the
    ``{"crc", "op"}`` envelope."""
    options = {"sort_keys": True, "ensure_ascii": False,
               "separators": (",", ":")}
    crc = zlib.crc32(json.dumps(op, **options).encode())
    return json.dumps({"crc": crc, "op": op}, **options)


# Text without lone surrogates (not encodable as UTF-8, so not loggable),
# plus umlauts and characters outside the Basic Multilingual Plane.
wal_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=12) | \
    st.sampled_from(["Kühlmittel", "Öldruck zu hoch", "Straße", "\U0001F527",
                     "Ventil \U00010348 \U0001D11E"])
wal_scalars = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.sampled_from([-0.0, 1e300, -1e-300, math.nan])
               | wal_text)
wal_values = st.recursive(
    wal_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(wal_text, children, max_size=4),
    max_leaves=12)
wal_ops = st.builds(lambda kind, fields: {**fields, "op": kind},
                    st.sampled_from(["insert", "update", "delete", "clear",
                                     "txn_begin", "txn_commit"]),
                    st.dictionaries(wal_text, wal_values, max_size=5))


class TestRecordEncodingOracle:
    """``encode_record`` writes each record in one serialization pass;
    its bytes must equal the two-pass reference, so logs written before
    and after read the same."""

    @settings(max_examples=300, deadline=None)
    @given(wal_ops)
    def test_record_bytes_equal_the_two_pass_reference(self, op):
        line = encode_record(op)
        assert line == reference_record(op)
        assert canonical_json({"crc": checksum(op), "op": op}) == line
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "wal.jsonl"
            with WriteAheadLog(path, sync=False) as wal:
                wal.append(op)
            assert path.read_text("utf-8") == line + "\n"
            replay = replay_wal_file(path)
            assert not replay.bad_records
            [back] = replay.records
            # NaN != NaN, so compare what the op serializes to.
            assert canonical_json(back) == canonical_json(op)
            rewrite_wal_file(path, replay.records, sync=False)
            assert path.read_text("utf-8") == line + "\n"


class TestDatabaseJournal:
    def test_table_mutations_reach_journal(self):
        db = make_db()
        ops = []
        db.set_journal(ops.append)
        table = db.table("t")
        row_id = table.insert({"k": "a", "n": 1})
        table.update(row_id, {"n": 2})
        table.delete_row(row_id)
        assert [op["op"] for op in ops] == ["insert", "update", "delete"]
        assert ops[1]["row"]["n"] == 2

    def test_create_and_drop_table_journaled(self):
        db = make_db()
        ops = []
        db.set_journal(ops.append)
        db.create_table("u", Schema.build([("x", "text")]))
        db.table("u").create_index("ix_x", "x")
        db.drop_table("u")
        assert [op["op"] for op in ops] == ["create_table", "create_index",
                                           "drop_table"]

    def test_transaction_ops_flushed_on_commit(self):
        db = make_db()
        ops = []
        db.set_journal(ops.append)
        with db.transaction():
            db.insert("t", {"k": "a", "n": 1})
            db.insert("t", {"k": "b", "n": 2})
            assert ops == []  # nothing durable before commit
        assert [op["op"] for op in ops] == ["insert", "insert"]

    def test_rolled_back_ops_never_reach_journal(self):
        db = make_db()
        ops = []
        db.set_journal(ops.append)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("t", {"k": "a", "n": 1})
                raise RuntimeError("abort")
        assert ops == []
        assert db.table("t").count() == 0

    def test_rollback_undo_is_not_journaled(self):
        db = make_db()
        db.table("t").insert({"k": "keep", "n": 0})
        ops = []
        db.set_journal(ops.append)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.delete("t")  # undo will re-insert the row
                raise RuntimeError("abort")
        assert ops == []
        assert db.table("t").count() == 1


class TestGroupCommit:
    """``append_many`` and the leader/follower fsync amortization."""

    def test_append_many_is_one_batch_one_fsync(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        ops = [{"op": "insert", "table": "t", "id": i, "row": {}}
               for i in range(5)]
        wal.append_many(ops)
        wal.close()
        assert wal.batches == 1
        assert wal.fsyncs == 1
        assert wal.appended == 5
        assert wal.replay().records == ops

    def test_append_many_empty_is_a_noop(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append_many([])
        assert wal.batches == 0 and wal.appended == 0

    def test_concurrent_committers_share_a_batch(self, tmp_path):
        """Block the leader inside its disk write; the appends that pile
        up behind it must drain as ONE follower batch (a single fsync),
        and every caller's ops must be durable when its call returns."""
        import threading

        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal._ensure_open()
        real_write = wal._handle.write
        first_write_entered = threading.Event()
        release_first_write = threading.Event()
        writes = []

        def gated_write(data):
            writes.append(data)
            if len(writes) == 1:
                first_write_entered.set()
                assert release_first_write.wait(timeout=30)
            return real_write(data)

        wal._handle.write = gated_write
        leader = threading.Thread(target=wal.append_many, args=(
            [{"op": "insert", "table": "t", "id": 0, "row": {}}],))
        leader.start()
        assert first_write_entered.wait(timeout=30)
        followers = [threading.Thread(target=wal.append_many, args=(
            [{"op": "insert", "table": "t", "id": i, "row": {}}],))
            for i in range(1, 5)]
        for thread in followers:
            thread.start()
        # Followers are enqueued and waiting on the leader's barrier.
        deadline = 30
        import time
        start = time.monotonic()
        while len(wal._pending) < 4:
            assert time.monotonic() - start < deadline
            time.sleep(0.005)
        release_first_write.set()
        leader.join(timeout=30)
        for thread in followers:
            thread.join(timeout=30)
        wal.close()
        assert wal.batches == 2  # leader's own + one shared follower batch
        assert wal.fsyncs == 2
        assert wal.appended == 5
        assert len(wal.replay().records) == 5

    def test_failed_batch_raises_without_poisoning_later_appends(self, tmp_path):
        from repro.relstore import WalError

        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.path.mkdir()  # opening a directory as a file -> OSError
        with pytest.raises(WalError):
            wal.append({"op": "insert", "table": "t", "id": 1, "row": {}})
        # The error was bound to the failed batch, not sticky: once the
        # path is usable again, the next append succeeds.
        wal.path.rmdir()
        wal.append({"op": "insert", "table": "t", "id": 2, "row": {}})
        wal.close()
        assert wal.appended == 1
        assert [record["op"] for record in wal.replay().records] == ["insert"]
        assert wal.replay().records[0]["id"] == 2


class TestTransactionFraming:
    """Commits journal through ``append_many`` as one framed batch."""

    def test_commit_writes_framed_batch(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        db = make_db()
        db.set_journal(wal.append, wal.append_many)
        with db.transaction():
            db.insert("t", {"k": "a", "n": 1})
            db.insert("t", {"k": "b", "n": 2})
        wal.close()
        kinds = [record["op"] for record in wal.replay().records]
        assert kinds == ["txn_begin", "insert", "insert", "txn_commit"]
        assert wal.batches == 1  # the whole frame: one write, one fsync

    def test_autocommit_ops_are_unframed(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        db = make_db()
        db.set_journal(wal.append, wal.append_many)
        db.insert("t", {"k": "a", "n": 1})
        wal.close()
        assert [r["op"] for r in wal.replay().records] == ["insert"]

    def test_empty_transaction_writes_no_frame(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        db = make_db()
        db.set_journal(wal.append, wal.append_many)
        with db.transaction():
            pass
        wal.close()
        assert wal.replay().records == []

    def test_journal_failure_rolls_the_transaction_back(self, tmp_path):
        from repro.relstore import WalError

        db = make_db()

        def broken_many(ops):
            raise WalError("disk on fire")

        db.set_journal(lambda op: None, broken_many)
        with pytest.raises(WalError):
            with db.transaction():
                db.insert("t", {"k": "a", "n": 1})
        assert db.table("t").count() == 0
        assert not db.in_transaction
