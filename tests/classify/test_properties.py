"""Property-based tests for classifier invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify import RankedKnnClassifier
from repro.data import DataBundle, Report, ReportSource
from repro.knowledge import BagOfWordsExtractor, KnowledgeBase

WORDS = ["fan", "radio", "scorched", "rattle", "broken", "smell", "qx1",
         "qx2", "vz3", "kabel"]

_node = st.tuples(st.sampled_from(["P1", "P2"]),
                  st.sampled_from(["E1", "E2", "E3", "E4"]),
                  st.frozensets(st.sampled_from(WORDS), min_size=1,
                                max_size=6))
_kb_strategy = st.lists(_node, min_size=1, max_size=30)
_text_strategy = st.lists(st.sampled_from(WORDS), min_size=1,
                          max_size=8).map(" ".join)


def build_kb(nodes):
    kb = KnowledgeBase(feature_kind="words")
    for part_id, code, features in nodes:
        kb.add_observation(part_id, code, features)
    return kb


def bundle(text, part):
    return DataBundle(ref_no="R1", part_id=part, article_code="A1",
                      reports=[Report(ReportSource.SUPPLIER, text, "en")])


@settings(max_examples=60, deadline=None)
@given(_kb_strategy, _text_strategy, st.sampled_from(["P1", "P2"]))
def test_scores_sorted_and_bounded(nodes, text, part):
    classifier = RankedKnnClassifier(build_kb(nodes), BagOfWordsExtractor())
    recommendation = classifier.classify_bundle(bundle(text, part))
    scores = [scored.score for scored in recommendation.codes]
    assert scores == sorted(scores, reverse=True)
    assert all(0.0 <= score <= 1.0 for score in scores)


@settings(max_examples=60, deadline=None)
@given(_kb_strategy, _text_strategy, st.sampled_from(["P1", "P2"]))
def test_codes_unique_in_ranking(nodes, text, part):
    classifier = RankedKnnClassifier(build_kb(nodes), BagOfWordsExtractor())
    recommendation = classifier.classify_bundle(bundle(text, part))
    codes = [scored.error_code for scored in recommendation.codes]
    assert len(codes) == len(set(codes))


@settings(max_examples=60, deadline=None)
@given(_kb_strategy, _text_strategy, st.sampled_from(["P1", "P2"]))
def test_candidates_respect_part_filter(nodes, text, part):
    kb = build_kb(nodes)
    features = BagOfWordsExtractor().extract_text(text)
    known_parts = kb.part_ids()
    candidates = kb.candidates(part, features)
    if part in known_parts:
        assert all(node.part_id == part for node, _ in candidates)
        assert all(node.features & features for node, _ in candidates)
    assert all(shared == len(node.features & features)
               for node, shared in candidates)


@settings(max_examples=60, deadline=None)
@given(_kb_strategy, _text_strategy, st.sampled_from(["P1", "P2"]))
def test_ranked_codes_subset_of_part_codes(nodes, text, part):
    kb = build_kb(nodes)
    classifier = RankedKnnClassifier(kb, BagOfWordsExtractor())
    recommendation = classifier.classify_bundle(bundle(text, part))
    if part in kb.part_ids():
        assert ({scored.error_code for scored in recommendation.codes}
                <= kb.error_codes(part))


@settings(max_examples=40, deadline=None)
@given(_kb_strategy, _text_strategy, st.sampled_from(["P1", "P2"]),
       st.integers(1, 30))
def test_cutoff_produces_prefix(nodes, text, part, cutoff):
    kb = build_kb(nodes)
    full = RankedKnnClassifier(kb, BagOfWordsExtractor(),
                               node_cutoff=100).classify_bundle(
        bundle(text, part))
    cut = RankedKnnClassifier(kb, BagOfWordsExtractor(),
                              node_cutoff=cutoff).classify_bundle(
        bundle(text, part))
    # every code in the cut list must appear in the full list with a
    # score no lower than reported (the cutoff can only drop evidence)
    full_scores = {scored.error_code: scored.score for scored in full.codes}
    for scored in cut.codes:
        assert scored.error_code in full_scores
        assert scored.score <= full_scores[scored.error_code] + 1e-12


@settings(max_examples=40, deadline=None)
@given(_kb_strategy, _text_strategy)
def test_determinism(nodes, text):
    kb = build_kb(nodes)
    classifier = RankedKnnClassifier(kb, BagOfWordsExtractor())
    first = classifier.classify_bundle(bundle(text, "P1"))
    second = classifier.classify_bundle(bundle(text, "P1"))
    assert ([(s.error_code, s.score) for s in first.codes]
            == [(s.error_code, s.score) for s in second.codes])
