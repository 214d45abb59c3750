"""Cost regressions for keyed row lookups, counted in row reads.

Timing a single decision is noise on a shared host; the number of
``Table.get`` calls a lookup makes on its table is not.  An engineer
decision and a role change must read a constant number of rows however
many bundles or users the store holds — the lookup goes through the
primary-key index, never through a scan that reads every row.
"""

import dataclasses
from collections import Counter

import pytest

from repro.quest import Role, User, UserStore
from repro.relstore import Database, Table

FILLER_BUNDLES = 2000
FILLER_USERS = 500


@pytest.fixture
def row_reads(monkeypatch):
    """Count ``Table.get`` calls per table name."""
    reads = Counter()
    original = Table.get

    def counting_get(table, row_id):
        reads[table.name] += 1
        return original(table, row_id)

    monkeypatch.setattr(Table, "get", counting_get)
    return reads


def _service_with_fillers(trained_qatk, fillers):
    """A service whose target bundles sit behind *fillers* other rows."""
    qatk, held_out = trained_qatk
    quest = qatk.make_service(Database(f"quest-cost-{fillers}"))
    template = held_out[0].without_label()
    quest.register_bundles([
        dataclasses.replace(template, ref_no=f"FILL{i:05d}", reports=[])
        for i in range(fillers)])
    quest.register_bundles([bundle.without_label()
                            for bundle in held_out[:2]])
    return quest, held_out[:2]


def _bundle_reads_per_decision(trained_qatk, fillers, expert, reads):
    quest, targets = _service_with_fillers(trained_qatk, fillers)
    counts = []
    for bundle in targets:
        code = quest.full_code_list(bundle.part_id)[0]
        reads.clear()
        quest.assign_code(expert, bundle.ref_no, code)
        counts.append(reads["bundles"])
    return counts


def test_assign_code_reads_constant_bundle_rows(trained_qatk, expert,
                                                row_reads):
    small = _bundle_reads_per_decision(trained_qatk, 0, expert, row_reads)
    large = _bundle_reads_per_decision(trained_qatk, FILLER_BUNDLES, expert,
                                       row_reads)
    assert large == small
    assert max(large) <= 2


def _user_reads_per_role_change(fillers, reads):
    store = UserStore(Database(f"users-cost-{fillers}"))
    for i in range(fillers):
        store.add(User(f"filler{i:04d}", Role.VIEWER))
    store.add(User("target", Role.VIEWER))
    admin = User("admin", Role.ADMIN)
    reads.clear()
    store.set_role(admin, "target", Role.EXPERT)
    assert store.get("target").role is Role.EXPERT
    return reads["users"]


def test_set_role_reads_constant_user_rows(row_reads):
    small = _user_reads_per_role_change(0, row_reads)
    large = _user_reads_per_role_change(FILLER_USERS, row_reads)
    assert large == small
    assert large <= 1
