"""The ranked kNN classifier against a direct Fig. 5/7 transcription.

:func:`reference_rank` is the paper's procedure written out with no node
cache, no heap and no memo: Fig. 5 candidates straight from the relstore
table (``candidates_from_store``), every candidate scored from its own
``len(features & node.features)``, one full stable ``sorted`` by (score
desc, error code, support desc) — so equal keys keep their row order —
then the codes of the best ``node_cutoff`` nodes aggregated per code
(Fig. 7).  Every optimized path (the knowledge base's published
``FrozenKnowledgeView`` with its counting retrieval, the tuple-keyed
top-k selection, a view rebuilt from exported rows or derived by
``with_changes``) must reproduce it on every held-out bundle, node for
node and code for code.
"""

import pytest

from repro.classify import RankedKnnClassifier, ScoredCode
from repro.classify.similarity import SIMILARITIES
from repro.data import GeneratorConfig, generate_corpus, plan_corpus
from repro.evaluate import build_extractor, experiment_subset
from repro.knowledge import (FrozenKnowledgeView, KnowledgeBase,
                             extract_test_features)

SMALL = {
    "bundles": 400, "part_ids": 4, "article_codes": 30,
    "distinct_codes": 70, "singleton_codes": 25,
    "max_codes_per_part": 25, "parts_over_10_codes": 3,
}


def shares_any(shared, len_a, len_b):
    """A deliberately coarse similarity: every candidate ties at 1.0, so
    the ranking rests entirely on the tie-break (code, support, row
    order)."""
    return 1.0 if shared else 0.0


SCORERS = dict(SIMILARITIES, shares_any=shares_any)


def reference_rank(knowledge_base, part_id, features, similarity,
                   node_cutoff):
    """Fig. 5 retrieval, full sort, top nodes, Fig. 7 code aggregation."""
    candidates = knowledge_base.candidates_from_store(part_id, features)
    # the count is taken here, from the relstore row's feature set, so the
    # reference does not depend on the shared counts retrieval returns
    scored = [(similarity(len(features & node.features), len(features),
                          len(node.features)), node)
              for node, _ in candidates]
    ranked = sorted(scored, key=lambda item: (-item[0], item[1].error_code,
                                              -item[1].support))
    top = ranked[:node_cutoff]
    best: dict[str, tuple[float, int]] = {}
    for score, node in top:
        old_score, old_support = best.get(node.error_code, (score, 0))
        best[node.error_code] = (max(old_score, score),
                                 old_support + node.support)
    codes = sorted((ScoredCode(code, score, support)
                    for code, (score, support) in best.items()),
                   key=lambda scored: (-scored.score, scored.error_code))
    winner_nodes = sum(1 for _, node in top
                       if node.error_code == codes[0].error_code) if codes else 0
    part_known = part_id in knowledge_base.part_ids()
    return top, (codes, len(top), winner_nodes, part_known)


@pytest.fixture(scope="module")
def split(taxonomy):
    plan = plan_corpus(taxonomy, seed=19, parameters=SMALL)
    corpus = generate_corpus(taxonomy=taxonomy, plan=plan,
                             config=GeneratorConfig(seed=19))
    bundles = experiment_subset(corpus.bundles)
    cut = int(len(bundles) * 0.8)
    return bundles[:cut], bundles[cut:]


@pytest.fixture(scope="module", params=["words", "concepts"])
def trained(request, taxonomy, split):
    train, test = split
    extractor = build_extractor(request.param, taxonomy)
    knowledge_base = KnowledgeBase.from_bundles(train, extractor)
    queries = [(bundle.part_id, extract_test_features(extractor, bundle))
               for bundle in test]
    # one unknown part per mode exercises the Fig. 5 global fallback
    queries.append(("P-UNKNOWN", queries[0][1]))
    return extractor, knowledge_base, queries


def assert_matches_reference(classifier, knowledge_base, queries):
    similarity = classifier.similarity
    for part_id, features in queries:
        top, expected = reference_rank(knowledge_base, part_id, features,
                                       similarity, classifier.node_cutoff)
        scored = classifier.score_candidates(part_id, features)
        assert [(item.score, item.node) for item in scored] == top
        recommendation = classifier.rank_codes(part_id, features)
        assert (recommendation.codes, recommendation.pool_size,
                recommendation.winner_nodes,
                recommendation.part_known) == expected


@pytest.mark.parametrize("similarity", sorted(SCORERS))
def test_classifier_equals_reference(trained, similarity):
    extractor, knowledge_base, queries = trained
    classifier = RankedKnnClassifier(knowledge_base, extractor,
                                     SCORERS[similarity])
    assert_matches_reference(classifier, knowledge_base, queries)


@pytest.mark.parametrize("similarity", ["jaccard", "shares_any"])
def test_frozen_view_equals_reference(trained, similarity):
    extractor, knowledge_base, queries = trained
    view = FrozenKnowledgeView(knowledge_base.export_rows(),
                               knowledge_base.feature_kind)
    classifier = RankedKnnClassifier(view, extractor, SCORERS[similarity])
    assert_matches_reference(classifier, knowledge_base, queries)


def test_derived_view_equals_reference(trained):
    """A view grown by ``with_changes`` (half the rows upserted, a few
    removed and put back) answers like the live base."""
    extractor, knowledge_base, queries = trained
    rows = knowledge_base.export_rows()
    half = len(rows) // 2
    view = FrozenKnowledgeView(rows[:half], knowledge_base.feature_kind)
    view = view.with_changes(rows[half:], removed=[row[0]
                                                   for row in rows[:9]])
    view = view.with_changes(rows[:9])
    classifier = RankedKnnClassifier(view, extractor, shares_any)
    assert_matches_reference(classifier, knowledge_base, queries)


@pytest.mark.parametrize("node_cutoff", [1, 3, 500])
def test_cutoffs_equal_reference(trained, node_cutoff):
    extractor, knowledge_base, queries = trained
    classifier = RankedKnnClassifier(knowledge_base, extractor, shares_any,
                                     node_cutoff=node_cutoff)
    assert_matches_reference(classifier, knowledge_base, queries[:40])


def test_ties_reach_the_cutoff(trained):
    """The tie-break is exercised: under ``shares_any`` some pool has more
    nodes tied on (score, code, support) than fit in the top 25, so row
    order decides which of them survive."""
    _, knowledge_base, queries = trained
    crowded = 0
    for part_id, features in queries:
        top, _ = reference_rank(knowledge_base, part_id, features,
                                shares_any, 25)
        pool = knowledge_base.candidates_from_store(part_id, features)
        if top and len(pool) > 25:
            last = top[-1][1]
            tied = [node for node, _ in pool
                    if (node.error_code, node.support)
                    == (last.error_code, last.support)]
            crowded += len(tied) > sum(1 for _, node in top
                                       if node in tied)
    assert crowded > 0
