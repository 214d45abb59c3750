"""Property-based equivalence of the published view and the relstore path.

The view is only allowed to make candidate retrieval faster, never
different: after any sequence of observations and retractions,
``KnowledgeBase.candidates`` (the published view) must return the same
nodes with the same shared-feature counts in the same order as
``KnowledgeBase.candidates_from_store`` (relstore indexes / full scan).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knowledge import KnowledgeBase

PARTS = ["P1", "P2", "P3"]
CODES = ["E1", "E2", "E3"]
FEATURES = ["c1", "c2", "c3", "c4", "c5"]

_observation = st.tuples(st.sampled_from(PARTS), st.sampled_from(CODES),
                         st.frozensets(st.sampled_from(FEATURES),
                                       min_size=1, max_size=4))
# an operation: add an observation, or retract one added earlier (True tag)
_operations = st.lists(st.tuples(st.booleans(), _observation),
                       min_size=1, max_size=40)
_query = st.tuples(st.sampled_from(PARTS + ["P99"]),
                   st.frozensets(st.sampled_from(FEATURES + ["zz"]),
                                 min_size=1, max_size=4))


def apply_operations(operations):
    kb = KnowledgeBase(feature_kind="props")
    for retract, (part, code, features) in operations:
        if retract:
            kb.remove_observation(part, code, features)
        else:
            kb.add_observation(part, code, features)
    return kb


@settings(max_examples=80, deadline=None)
@given(_operations, _query)
def test_cache_equals_store_path(operations, query):
    kb = apply_operations(operations)
    part, features = query
    cached = kb.candidates(part, features)
    stored = kb.candidates_from_store(part, features)
    assert [node.key for node, _ in cached] == [node.key
                                                for node, _ in stored]
    assert [node.support for node, _ in cached] == [node.support
                                                    for node, _ in stored]
    assert ([shared for _, shared in cached]
            == [len(node.features & features) for node, _ in stored])


@settings(max_examples=40, deadline=None)
@given(_operations)
def test_cache_equals_store_for_nodes_and_len(operations):
    kb = apply_operations(operations)
    table = kb.database.table("knowledge_nodes")
    scanned = [(row["part_id"], row["error_code"],
                frozenset(row["features"]), row["support"])
               for row in table.scan()]
    cached = [(node.part_id, node.error_code, node.features, node.support)
              for node in kb.nodes()]
    assert cached == scanned
    assert len(kb) == len(table)


@settings(max_examples=40, deadline=None)
@given(_operations, _query)
def test_cache_equals_store_without_indexes(operations, query):
    kb = apply_operations(operations)
    table = kb.database.table("knowledge_nodes")
    table.drop_index("ix_knowledge_nodes_part")
    table.drop_index("ix_knowledge_nodes_features")
    part, features = query
    cached = kb.candidates(part, features)
    stored = kb.candidates_from_store(part, features)  # full-scan fallback
    assert [node.key for node, _ in cached] == [node.key
                                                for node, _ in stored]
    assert cached == stored
