"""Differential test of ``FrozenKnowledgeView.with_changes``.

A view derived by applying change batches must answer every read exactly
like a view built from scratch on the resulting rows, and deriving a view
must leave the one it came from untouched.  Rows keep distinct dedup keys
(part, code, features), as a knowledge base's rows do.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knowledge import FrozenKnowledgeView

PARTS = ["P1", "P2", "P3"]
CODES = ["E1", "E2"]
FEATURES = ["c1", "c2", "c3", "c4", "c5"]

_row = st.tuples(st.sampled_from(PARTS), st.sampled_from(CODES),
                 st.frozensets(st.sampled_from(FEATURES), max_size=4),
                 st.integers(1, 3))
_rows = st.dictionaries(st.integers(0, 24), _row, max_size=16)
_batch = st.tuples(_rows, st.frozensets(st.integers(0, 24), max_size=6))
_batches = st.lists(_batch, min_size=1, max_size=5)


def key(row):
    return row[:3]


def upsert(state, upserts):
    """Apply *upserts* to *state* in row-id order, skipping any whose key
    another row holds; returns the upserts applied."""
    applied = {}
    for row_id, row in sorted(upserts.items()):
        if all(key(other) != key(row) or other_id == row_id
               for other_id, other in state.items()):
            state[row_id] = applied[row_id] = row
    return applied


def as_rows(rows):
    return [(row_id, part, code, tuple(sorted(features)), support)
            for row_id, (part, code, features, support) in rows.items()]


def answers(view):
    """Every read the view offers, over known and unknown parts and over
    feature sets that share something and nothing."""
    queries = [(part, frozenset(features))
               for part in PARTS + ["P99"]
               for features in (["c1"], ["c2", "c4"], FEATURES, ["zz"])]
    return {
        "candidates": [view.candidates(part, features)
                       for part, features in queries],
        "has_part": [view.has_part(part) for part in PARTS + ["P99"]],
        "nodes": list(view.nodes()),
        "export_rows": view.export_rows(),
        "len": len(view),
    }


@settings(max_examples=150, deadline=None)
@given(_rows, _batches)
def test_with_changes_equals_a_view_built_from_scratch(initial, batches):
    rows = {}
    upsert(rows, initial)
    view = FrozenKnowledgeView(as_rows(rows)[::-1], "props")
    for upserts, removed in batches:
        before = answers(view)
        for row_id in removed:
            rows.pop(row_id, None)
        applied = upsert(rows, upserts)
        derived = view.with_changes(as_rows(applied), removed)
        assert answers(view) == before  # the source view is unchanged
        rebuilt = FrozenKnowledgeView(as_rows(dict(sorted(rows.items()))),
                                      "props")
        assert answers(derived) == answers(rebuilt)
        for row_id, row in rows.items():
            assert derived.row_id(key(row)) == row_id
        view = derived
