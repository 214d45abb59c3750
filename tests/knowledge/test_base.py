"""Unit tests for the knowledge base."""

import pytest

from repro.data import DataBundle, Report, ReportSource
from repro.knowledge import (BagOfWordsExtractor, KnowledgeBase,
                             KnowledgeNode)


def simple_bundle(ref, part, code, text):
    return DataBundle(ref_no=ref, part_id=part, article_code="A1",
                      error_code=code,
                      reports=[Report(ReportSource.SUPPLIER, text, "en")])


@pytest.fixture
def kb():
    base = KnowledgeBase(feature_kind="test")
    base.add_observation("P1", "E1", {"c1", "c2"})
    base.add_observation("P1", "E2", {"c2", "c3"})
    base.add_observation("P2", "E3", {"c4"})
    return base


class TestConstruction:
    def test_len_and_repr(self, kb):
        assert len(kb) == 3
        assert "nodes=3" in repr(kb)

    def test_dedup_merges_support(self, kb):
        kb.add_observation("P1", "E1", {"c1", "c2"})
        assert len(kb) == 3
        node = [n for n in kb.nodes()
                if n.error_code == "E1" and n.features == {"c1", "c2"}][0]
        assert node.support == 2

    def test_same_features_different_code_are_distinct(self, kb):
        kb.add_observation("P1", "E9", {"c1", "c2"})
        assert len(kb) == 4

    def test_add_node_with_support(self, kb):
        kb.add(KnowledgeNode("P3", "E5", frozenset({"x"}), support=4))
        assert kb.code_frequencies("P3") == {"E5": 4}

    def test_from_bundles(self):
        bundles = [
            simple_bundle("R1", "P1", "E1", "alpha beta"),
            simple_bundle("R2", "P1", "E1", "alpha beta"),
            simple_bundle("R3", "P1", "E2", "gamma"),
            simple_bundle("R4", "P2", None, "ignored unlabeled"),
        ]
        base = KnowledgeBase.from_bundles(bundles, BagOfWordsExtractor())
        assert len(base) == 2  # two distinct configurations; R4 skipped
        assert base.part_ids() == {"P1"}

    def test_feature_kind_recorded(self):
        base = KnowledgeBase.from_bundles([], BagOfWordsExtractor())
        assert base.feature_kind == "words"


class TestIntrospection:
    def test_part_ids(self, kb):
        assert kb.part_ids() == {"P1", "P2"}

    def test_error_codes(self, kb):
        assert kb.error_codes() == {"E1", "E2", "E3"}
        assert kb.error_codes("P1") == {"E1", "E2"}

    def test_code_frequencies(self, kb):
        kb.add_observation("P1", "E1", {"c9"})
        assert kb.code_frequencies("P1") == {"E1": 2, "E2": 1}
        assert kb.code_frequencies("unknown") == {}


class TestCandidates:
    def test_same_part_and_shared_feature(self, kb):
        candidates = kb.candidates("P1", frozenset({"c2"}))
        assert {node.error_code for node, _ in candidates} == {"E1", "E2"}

    def test_shared_feature_required(self, kb):
        candidates = kb.candidates("P1", frozenset({"c1"}))
        assert {node.error_code for node, _ in candidates} == {"E1"}

    def test_no_shared_feature_yields_empty(self, kb):
        assert kb.candidates("P1", frozenset({"zz"})) == []

    def test_unknown_part_falls_back_to_feature_match(self, kb):
        candidates = kb.candidates("P99", frozenset({"c4"}))
        assert {node.error_code for node, _ in candidates} == {"E3"}

    def test_unknown_part_unknown_features_returns_all(self, kb):
        candidates = kb.candidates("P99", frozenset({"zz"}))
        assert len(candidates) == 3

    def test_candidates_carry_shared_counts(self, kb):
        counted = kb.candidates("P1", frozenset({"c1", "c2", "zz"}))
        assert ([(node.error_code, shared) for node, shared in counted]
                == [("E1", 2), ("E2", 1)])

    def test_global_fallback_counts_zero(self, kb):
        fallback = kb.candidates("P99", frozenset({"zz"}))
        assert [shared for _, shared in fallback] == [0, 0, 0]

    def test_candidates_deterministic_order(self, kb):
        first = kb.candidates("P1", frozenset({"c2"}))
        second = kb.candidates("P1", frozenset({"c2"}))
        assert [n.key for n, _ in first] == [n.key for n, _ in second]

    def test_store_path_matches_cache(self, kb):
        for part, features in (("P1", {"c2"}), ("P1", {"c1"}),
                               ("P99", {"c4"}), ("P99", {"zz"}),
                               ("P1", {"zz"})):
            assert (kb.candidates(part, frozenset(features))
                    == kb.candidates_from_store(part, frozenset(features)))

    def test_candidates_survive_dropped_indexes(self, kb):
        # regression: the store path reached into Table._index_on and
        # crashed with AttributeError when an index had been dropped
        table = kb.database.table("knowledge_nodes")
        table.drop_index("ix_knowledge_nodes_part")
        table.drop_index("ix_knowledge_nodes_features")
        expected = [("P1", {"c2"}, {"E1", "E2"}), ("P99", {"c4"}, {"E3"})]
        for part, features, codes in expected:
            via_scan = kb.candidates_from_store(part, frozenset(features))
            assert {node.error_code for node, _ in via_scan} == codes
            assert kb.candidates(part, frozenset(features)) == via_scan


class TestNodeCache:
    def test_feature_sets_interned(self, kb):
        kb.add_observation("P1", "E7", {"c1", "c2"})
        nodes = [n for n in kb.nodes() if n.features == {"c1", "c2"}]
        assert len(nodes) == 2
        assert nodes[0].features is nodes[1].features

    def test_cache_tracks_support_merge(self, kb):
        kb.add_observation("P1", "E1", {"c1", "c2"})
        (node,) = [n for n, _ in kb.candidates("P1", frozenset({"c1"}))
                   if n.error_code == "E1"]
        assert node.support == 2

    def test_cache_after_remove_matches_store(self, kb):
        kb.remove_observation("P1", "E1", {"c1", "c2"})
        for part, features in (("P1", {"c1"}), ("P1", {"c2"}),
                               ("P99", {"zz"})):
            assert (kb.candidates(part, frozenset(features))
                    == kb.candidates_from_store(part, frozenset(features)))

    def test_unknown_part_fallback_shrinks_with_deletes(self, kb):
        kb.remove_observation("P2", "E3", {"c4"})
        # P2 is now unknown: fall back to feature match, then to all nodes
        assert kb.candidates("P2", frozenset({"c4"})) == kb.candidates(
            "P2", frozenset({"zz"}))
        assert len(kb.candidates("P2", frozenset({"zz"}))) == 2


class TestPersistenceIntegration:
    def test_database_roundtrip(self, tmp_path, kb):
        from repro.relstore import load_database, save_database
        save_database(kb.database, tmp_path / "kb")
        restored_db = load_database(tmp_path / "kb")
        restored = KnowledgeBase(feature_kind="test", database=restored_db)
        assert len(restored) == len(kb)
        candidates = restored.candidates("P1", frozenset({"c2"}))
        assert {node.error_code for node, _ in candidates} == {"E1", "E2"}

    def test_dedup_after_reload(self, tmp_path, kb):
        from repro.relstore import load_database, save_database
        save_database(kb.database, tmp_path / "kb")
        restored = KnowledgeBase(
            feature_kind="test",
            database=load_database(tmp_path / "kb"))
        restored.add_observation("P1", "E1", {"c1", "c2"})
        assert len(restored) == 3  # merged, not duplicated


class TestRemoveObservation:
    def test_decrements_support(self, kb):
        kb.add_observation("P1", "E1", {"c1", "c2"})  # support now 2
        assert kb.remove_observation("P1", "E1", {"c1", "c2"})
        node = [n for n in kb.nodes()
                if n.error_code == "E1" and n.features == {"c1", "c2"}][0]
        assert node.support == 1

    def test_deletes_node_at_zero(self, kb):
        assert kb.remove_observation("P1", "E1", {"c1", "c2"})
        assert len(kb) == 2
        assert kb.candidates("P1", frozenset({"c1"})) == []

    def test_missing_observation_returns_false(self, kb):
        assert not kb.remove_observation("P1", "E9", {"c1"})
        assert not kb.remove_observation("P1", "E1", {"zz"})
        assert len(kb) == 3

    def test_indexes_updated_after_delete(self, kb):
        kb.remove_observation("P1", "E1", {"c1", "c2"})
        assert {n.error_code
                for n, _ in kb.candidates("P1", frozenset({"c2"}))} == {"E2"}

    def test_add_after_remove_roundtrip(self, kb):
        kb.remove_observation("P1", "E1", {"c1", "c2"})
        kb.add_observation("P1", "E1", {"c1", "c2"})
        node = [n for n in kb.nodes()
                if n.error_code == "E1" and n.features == {"c1", "c2"}][0]
        assert node.support == 1
