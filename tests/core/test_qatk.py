"""Integration tests for the QATK facade (the Fig. 8 pipeline end to end)."""

import pytest

from repro.core import (QATK, QatkConfig, RECOMMENDATION_KEY,
                        ClassifierEngine, KnowledgeBaseConsumer,
                        RecommendationConsumer, bundle_to_cas, cas_features)
from repro.data import GeneratorConfig, generate_corpus, plan_corpus
from repro.evaluate import experiment_subset
from repro.relstore import Database
from repro.text import ENGLISH, GERMAN, UNKNOWN, LanguageDetector
from repro.uima import CAS, FunctionEngine

SMALL = {
    "bundles": 600, "part_ids": 5, "article_codes": 40,
    "distinct_codes": 90, "singleton_codes": 30,
    "max_codes_per_part": 30, "parts_over_10_codes": 4,
}


@pytest.fixture(scope="module")
def small_corpus(taxonomy):
    plan = plan_corpus(taxonomy, seed=31, parameters=SMALL)
    return generate_corpus(taxonomy=taxonomy, plan=plan,
                           config=GeneratorConfig(seed=31))


@pytest.fixture(scope="module")
def split(small_corpus):
    bundles = experiment_subset(small_corpus.bundles)
    cut = int(len(bundles) * 0.8)
    return bundles[:cut], bundles[cut:]


class TestTraining:
    def test_train_builds_knowledge_base(self, taxonomy, split):
        train, _ = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode="concepts"))
        processed = qatk.train(train)
        assert processed == len(train)
        assert len(qatk.knowledge_base) > 0
        assert qatk.knowledge_base.feature_kind == "concepts"

    def test_words_mode(self, taxonomy, split):
        train, _ = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode="words"))
        qatk.train(train[:100])
        assert qatk.knowledge_base.feature_kind == "words"
        node = next(iter(qatk.knowledge_base.nodes()))
        assert any(not feature.isdigit() for feature in node.features)


class TestClassification:
    def test_classify_returns_ranked_recommendation(self, taxonomy, split):
        train, test = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode="words"))
        qatk.train(train)
        recommendation = qatk.classify(test[0].without_label())
        assert recommendation.ref_no == test[0].ref_no
        assert recommendation.codes
        scores = [scored.score for scored in recommendation.codes]
        assert scores == sorted(scores, reverse=True)

    def test_pipeline_accuracy_is_useful(self, taxonomy, split):
        train, test = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode="words"))
        qatk.train(train)
        hits = sum(qatk.classify(b.without_label()).hit_at(b.error_code, 10)
                   for b in test[:40])
        assert hits >= 30

    def test_classify_many_persists(self, taxonomy, split):
        train, test = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode="concepts"),
                    database=Database("qatk-test"))
        qatk.train(train)
        recommendations = qatk.classify_many(
            [b.without_label() for b in test[:5]])
        assert len(recommendations) == 5
        table = qatk.database.table("recommendations")
        assert len(table) > 0

    def test_classify_with_source_restriction(self, taxonomy, split):
        from repro.data import ReportSource
        train, test = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode="words"))
        qatk.train(train)
        recommendation = qatk.classify(test[0].without_label(),
                                       sources=(ReportSource.MECHANIC,))
        assert recommendation.ref_no == test[0].ref_no


class TestPipelineMatchesExtractor:
    """The Fig. 8 pipeline and the extractor must see the same features."""

    @pytest.mark.parametrize("mode", ["words", "words-nostop", "words-stem",
                                      "concepts"])
    def test_classify_many_equals_classify_bundle(self, taxonomy, split,
                                                  mode):
        train, test = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode=mode))
        qatk.train(train)
        held_out = [bundle.without_label() for bundle in test[:40]]
        piped = qatk.classify_many(held_out)
        direct = [qatk.classifier.classify_bundle(bundle)
                  for bundle in held_out]
        assert [r.codes for r in piped] == [r.codes for r in direct]
        assert ([(r.pool_size, r.winner_nodes) for r in piped]
                == [(r.pool_size, r.winner_nodes) for r in direct])

    @pytest.mark.parametrize("mode", ["words", "words-nostop", "words-stem",
                                      "concepts"])
    def test_training_equals_from_bundles(self, taxonomy, split, mode):
        from repro.knowledge import KnowledgeBase
        train, _ = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode=mode))
        qatk.train(train[:120])
        direct = KnowledgeBase.from_bundles(train[:120], qatk.extractor)
        assert qatk.knowledge_base.export_rows() == direct.export_rows()

    @pytest.mark.parametrize("mode", ["words", "words-nostop", "words-stem",
                                      "concepts"])
    def test_concept_annotator_only_for_concepts(self, taxonomy, mode):
        qatk = QATK(taxonomy, QatkConfig(feature_mode=mode))
        for pipeline in (qatk.training_pipeline([]),
                         qatk.classification_pipeline([])):
            names = [engine.name for engine in pipeline.aggregate.engines]
            assert "tokenizer" in names
            assert ("concept-annotator" in names) == (mode == "concepts")

    @pytest.mark.parametrize("mode", ["words", "words-nostop", "words-stem",
                                      "concepts"])
    def test_no_language_detector_by_default(self, taxonomy, mode):
        qatk = QATK(taxonomy, QatkConfig(feature_mode=mode))
        assert not any(isinstance(engine, LanguageDetector)
                       for engine in qatk.analysis_engines())


class TestExtensionPoint:
    def test_custom_classifier_plugs_in(self):
        def classify(part_id, features, ref_no):
            from repro.classify import Recommendation, ScoredCode
            return Recommendation(ref_no=ref_no, part_id=part_id,
                                  codes=[ScoredCode("CUSTOM", 1.0)])

        engine = ClassifierEngine(classify=classify, feature_kind="words")
        cas = CAS("some text")
        cas.metadata.update(part_id="P1", ref_no="R1")
        engine.process(cas)
        assert cas.metadata[RECOMMENDATION_KEY].codes[0].error_code == "CUSTOM"

    def test_classifier_engine_requires_callable(self):
        with pytest.raises(TypeError):
            ClassifierEngine()

    def test_extra_engines_run(self, taxonomy, split):
        train, _ = split
        marker = FunctionEngine(
            lambda cas: cas.metadata.update(extra_ran=True), name="extra")
        qatk = QATK(taxonomy, QatkConfig(feature_mode="concepts",
                                         extra_engines=[marker]))
        cas = bundle_to_cas(train[0])
        qatk.classification_pipeline([]).process_one(cas)
        assert cas.metadata["extra_ran"]

    def test_language_detector_is_opt_in(self, taxonomy, split):
        train, test = split
        seen = []
        spy = FunctionEngine(lambda cas: seen.append(dict(cas.metadata)),
                             name="spy")
        qatk = QATK(taxonomy, QatkConfig(
            feature_mode="words", extra_engines=[LanguageDetector(), spy]))
        qatk.train(train[:60])
        seen.clear()
        recommendation = qatk.classify(test[0].without_label())
        assert recommendation.ref_no == test[0].ref_no
        [metadata] = seen
        assert metadata["language"] in {GERMAN, ENGLISH, UNKNOWN}
        assert 0.0 <= metadata["language_confidence"] <= 1.0


class TestCasFeatures:
    def test_words_kind_uses_tokens(self):
        cas = CAS("Fan broken")
        from repro.text import WhitespaceTokenizer
        WhitespaceTokenizer().process(cas)
        assert cas_features(cas, "words") == {"Fan", "broken"}

    def test_concepts_kind_uses_mentions(self):
        cas = CAS("fan broken")
        cas.annotate("ConceptMention", 0, 3, concept_id="200",
                     category="component", language="en",
                     matched="fan", canonical="fan")
        assert cas_features(cas, "concepts") == {"200"}


class TestConsumers:
    def test_kb_consumer_skips_unlabeled(self, taxonomy):
        from repro.knowledge import KnowledgeBase
        kb = KnowledgeBase(feature_kind="words")
        consumer = KnowledgeBaseConsumer(kb)
        cas = CAS("text")
        cas.metadata.update(part_id="P1")  # no error_code
        consumer.consume(cas)
        assert consumer.consumed == 0
        assert len(kb) == 0

    def test_recommendation_consumer_persists_on_finish(self):
        from repro.classify import Recommendation, ScoredCode
        db = Database()
        consumer = RecommendationConsumer(db)
        cas = CAS("x")
        cas.metadata[RECOMMENDATION_KEY] = Recommendation(
            ref_no="R1", part_id="P1", codes=[ScoredCode("E1", 1.0)])
        consumer.consume(cas)
        consumer.finish()
        assert db.table("recommendations").count() == 1


class TestServiceIntegration:
    def test_make_service(self, taxonomy, split):
        train, test = split
        qatk = QATK(taxonomy, QatkConfig(feature_mode="words"),
                    database=Database("svc"))
        qatk.train(train)
        service = qatk.make_service()
        service.register_bundles([test[0].without_label()])
        view = service.suggest(test[0].ref_no)
        assert view.top10
