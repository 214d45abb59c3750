"""Snapshot payload export/import properties (hypothesis-driven).

Snapshot replication's correctness rests on one claim: a payload-rebuilt
snapshot classifies byte-identically to the snapshot it was exported
from, and applying a delta equals shipping the full payload.  These
tests generate arbitrary little knowledge bases and query documents and
check the claim structurally instead of over one fixed corpus.
"""

import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.knowledge.extractor import BagOfWordsExtractor
from repro.serve import (ModelSnapshot, SnapshotPayloadError,
                         apply_payload_delta, diff_payloads)

WORDS = ("grind", "vibrate", "leak", "squeal", "rattle",
         "stall", "smoke", "drift", "jam", "whine")
PARTS = ("P1", "P2", "P3")
CODES = ("E01", "E02", "E03", "E04", "E05")

features_strategy = st.lists(st.sampled_from(WORDS), min_size=1,
                             max_size=4).map(lambda ws: tuple(sorted(set(ws))))

node_strategy = st.tuples(st.sampled_from(PARTS), st.sampled_from(CODES),
                          features_strategy, st.integers(1, 5))

rows_strategy = st.lists(node_strategy, min_size=1, max_size=12).map(
    lambda nodes: [(row_id, part, code, feats, support)
                   for row_id, (part, code, feats, support)
                   in enumerate(nodes, start=1)])

documents_strategy = st.lists(
    st.tuples(st.sampled_from(PARTS),
              st.lists(st.sampled_from(WORDS), min_size=1,
                       max_size=6).map(" ".join)),
    min_size=1, max_size=6)


def payload_from_rows(rows, version=1):
    """A full snapshot payload over *rows* (shared extractor instance —
    deltas require config identity, exactly as the live registry keeps
    one extractor across bumps)."""
    frequency = {}
    for _, part_id, code, _, support in rows:
        part = frequency.setdefault(part_id, {})
        part[code] = part.get(code, 0) + support
    return {
        "format": 1, "kind": "full", "version": version,
        "classifier": {"rows": list(rows), "feature_kind": "features",
                       "extractor": EXTRACTOR, "similarity": "jaccard",
                       "node_cutoff": 25},
        "frequency": frequency,
        "fallback": None,
    }


EXTRACTOR = BagOfWordsExtractor()


def classify_all(snapshot, documents):
    classifier = snapshot.classifier
    return pickle.dumps([
        [(code.error_code, code.score, code.support)
         for code in classifier.rank_codes(
             part_id, classifier.extractor.extract_text(document),
             ref_no=f"R{number}").codes]
        for number, (part_id, document) in enumerate(documents)])


@settings(max_examples=30, deadline=None)
@given(rows=rows_strategy, documents=documents_strategy)
def test_round_trip_preserves_classification(rows, documents):
    """from_payload(to_payload(s)) answers every query identically."""
    original = ModelSnapshot.from_payload(payload_from_rows(rows))
    # the wire hop: what a replica receives really is a pickled copy
    wire = pickle.loads(pickle.dumps(original.to_payload()))
    rebuilt = ModelSnapshot.from_payload(wire)
    assert rebuilt.version == original.version
    assert classify_all(rebuilt, documents) == classify_all(original,
                                                            documents)
    assert (rebuilt.frequency_baseline.frequency_table()
            == original.frequency_baseline.frequency_table())


@settings(max_examples=30, deadline=None)
@given(old_rows=rows_strategy, new_rows=rows_strategy,
       documents=documents_strategy)
def test_delta_equals_full_payload(old_rows, new_rows, documents):
    """Applying diff_payloads' delta reproduces the new payload exactly
    (when a delta exists at all)."""
    old = payload_from_rows(old_rows, version=1)
    new = payload_from_rows(new_rows, version=2)
    delta = diff_payloads(old, new)
    if delta is None:  # not smaller than the full row list — allowed
        return
    assert delta["base_version"] == 1 and delta["version"] == 2
    reconstructed = apply_payload_delta(old, delta)
    assert reconstructed["classifier"]["rows"] == new["classifier"]["rows"]
    assert reconstructed["frequency"] == new["frequency"]
    assert (classify_all(ModelSnapshot.from_payload(reconstructed), documents)
            == classify_all(ModelSnapshot.from_payload(new), documents))


def test_diff_requires_strictly_increasing_versions():
    """Equal (or regressing) versions must be rejected: a self-targeted
    delta would make a replica believe it advanced when it did not."""
    rows = [(1, "P1", "E01", ("leak",), 2)]
    for old_version, new_version in ((3, 3), (3, 2)):
        old = payload_from_rows(rows, version=old_version)
        new = payload_from_rows(rows, version=new_version)
        with pytest.raises(SnapshotPayloadError):
            diff_payloads(old, new)


@settings(max_examples=30, deadline=None)
@given(old_rows=rows_strategy, new_rows=rows_strategy)
def test_delta_round_trip_is_byte_identical(old_rows, new_rows):
    """What replication rests on: a delta-reconstructed payload is
    *byte-identical* (pickled) to the full payload it stands in for, so
    a replica that catches up via deltas serves exactly what a
    full-payload replica would."""
    old = payload_from_rows(old_rows, version=1)
    new = payload_from_rows(new_rows, version=2)
    delta = diff_payloads(old, new)
    if delta is None:  # not smaller than the full row list — allowed
        return
    reconstructed = apply_payload_delta(old, delta)
    assert pickle.dumps(reconstructed) == pickle.dumps(new)


@settings(max_examples=20, deadline=None)
@given(rows=rows_strategy)
def test_delta_against_wrong_base_is_refused(rows):
    """A replica must never apply a delta to the wrong base version."""
    base = payload_from_rows(rows, version=1)
    changed = dict(base["classifier"])
    changed_rows = list(changed["rows"])
    row = changed_rows[0]
    changed_rows[0] = (row[0], row[1], row[2], row[3], row[4] + 1)
    new = dict(base, version=5,
               classifier=dict(changed, rows=changed_rows))
    delta = diff_payloads(base, new)
    if delta is None:
        return
    wrong_base = dict(base, version=3)
    with pytest.raises(SnapshotPayloadError):
        apply_payload_delta(wrong_base, delta)


def test_payload_isolates_worker_from_live_mutations():
    """Mutating the exported payload's rows cannot change what an
    already-built snapshot answers (and vice versa)."""
    rows = [(1, "P1", "E01", ("leak", "vibrate"), 2),
            (2, "P1", "E02", ("grind",), 1)]
    payload = payload_from_rows(rows)
    snapshot = ModelSnapshot.from_payload(pickle.loads(
        pickle.dumps(payload)))
    before = classify_all(snapshot, [("P1", "leak vibrate grind")])
    payload["classifier"]["rows"].append((3, "P1", "E03", ("leak",), 9))
    payload["frequency"]["P1"]["E03"] = 9
    assert classify_all(snapshot, [("P1", "leak vibrate grind")]) == before
