"""Integration tests for the experiment runner on a scaled-down corpus."""

from dataclasses import replace

import pytest

from repro.data import (GeneratorConfig, ReportSource, generate_complaints,
                        generate_corpus, plan_corpus)
from repro.evaluate import (ExperimentConfig, build_extractor,
                            experiment_subset, run_candidate_set_baseline,
                            run_cross_source_evaluation, run_experiment,
                            run_experiments, run_frequency_baseline)
from repro.evaluate import experiment
from repro.evaluate.experiment import MemoizedExtractor
from repro.taxonomy import ConceptAnnotator

SMALL = {
    "bundles": 1200, "part_ids": 8, "article_codes": 80,
    "distinct_codes": 160, "singleton_codes": 60,
    "max_codes_per_part": 40, "parts_over_10_codes": 6,
}

TINY = {
    "bundles": 400, "part_ids": 6, "article_codes": 50,
    "distinct_codes": 80, "singleton_codes": 25,
    "max_codes_per_part": 25, "parts_over_10_codes": 4,
}


@pytest.fixture(scope="module")
def small_corpus(taxonomy):
    plan = plan_corpus(taxonomy, seed=11, parameters=SMALL)
    return generate_corpus(taxonomy=taxonomy, plan=plan,
                           config=GeneratorConfig(seed=11))


@pytest.fixture(scope="module")
def small_bundles(small_corpus):
    return experiment_subset(small_corpus.bundles)


@pytest.fixture(scope="module")
def tiny_bundles(taxonomy):
    plan = plan_corpus(taxonomy, seed=19, parameters=TINY)
    corpus = generate_corpus(taxonomy=taxonomy, plan=plan,
                             config=GeneratorConfig(seed=19))
    return experiment_subset(corpus.bundles)


@pytest.fixture(scope="module")
def annotator(taxonomy):
    return ConceptAnnotator(taxonomy=taxonomy)


class TestExperimentConfig:
    def test_label(self):
        config = ExperimentConfig(feature_mode="concepts",
                                  similarity="overlap")
        assert config.label == "concepts+overlap"

    def test_label_names_a_single_test_source(self):
        config = ExperimentConfig(test_sources=(ReportSource.SUPPLIER,))
        assert config.label == "words+jaccard [supplier only]"
        two = ExperimentConfig(test_sources=(ReportSource.MECHANIC,
                                             ReportSource.SUPPLIER))
        assert two.label == "words+jaccard"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(feature_mode="bigrams")

    def test_build_extractor_validation(self):
        with pytest.raises(ValueError):
            build_extractor("concepts")
        with pytest.raises(ValueError):
            build_extractor("nonsense")


class TestRunExperiment:
    def test_words_beats_frequency_baseline_at_1(self, small_bundles,
                                                 taxonomy, annotator):
        config = ExperimentConfig(feature_mode="words", folds=3)
        result = run_experiment(small_bundles, config, taxonomy, annotator)
        baseline = run_frequency_baseline(small_bundles, config)
        assert result.accuracies[1] > baseline.accuracies[1]
        assert result.accuracies[1] > 0.5

    def test_fold_outcomes_recorded(self, small_bundles, taxonomy, annotator):
        config = ExperimentConfig(feature_mode="concepts", folds=3)
        result = run_experiment(small_bundles, config, taxonomy, annotator)
        assert len(result.folds) == 3
        assert all(fold.test_count > 0 for fold in result.folds)
        assert all(fold.knowledge_nodes > 0 for fold in result.folds)
        assert result.seconds_per_bundle > 0
        assert sum(fold.test_count for fold in result.folds) == len(small_bundles)

    def test_accuracies_monotone_in_k(self, small_bundles, taxonomy, annotator):
        config = ExperimentConfig(feature_mode="concepts", folds=3)
        result = run_experiment(small_bundles, config, taxonomy, annotator)
        values = [result.accuracies[k] for k in sorted(result.accuracies)]
        assert values == sorted(values)

    def test_accuracy_row_format(self, small_bundles, taxonomy, annotator):
        config = ExperimentConfig(feature_mode="concepts", folds=3)
        result = run_experiment(small_bundles, config, taxonomy, annotator)
        row = result.accuracy_row()
        assert "concepts+jaccard" in row
        assert "@1=" in row

    def test_concepts_faster_than_words(self, small_bundles, taxonomy,
                                        annotator):
        # Three interleaved runs per mode, compared by their fastest: a
        # burst of CPU contention slows one run, not every run of a mode.
        seconds = {"words": [], "concepts": []}
        for _ in range(3):
            for mode, runs in seconds.items():
                result = run_experiment(
                    small_bundles, ExperimentConfig(feature_mode=mode,
                                                    folds=2),
                    taxonomy, annotator)
                runs.append(result.seconds_per_bundle)
        assert min(seconds["concepts"]) < min(seconds["words"])

    def test_concepts_do_less_scoring_work(self, small_bundles, taxonomy,
                                           annotator):
        """E1t's mechanism, independent of host speed: bag-of-concepts
        retrieves smaller Fig. 5 candidate pools and so scores fewer
        nodes per bundle than bag-of-words, over the same two folds
        ``test_concepts_faster_than_words`` times."""
        from repro.classify import RankedKnnClassifier
        from repro.classify.similarity import jaccard
        from repro.evaluate.crossval import stratified_folds
        from repro.knowledge import KnowledgeBase, extract_test_features

        work = {}
        for mode in ("words", "concepts"):
            extractor = build_extractor(mode, taxonomy, annotator)
            evaluations = pool = bundles = 0
            for fold in stratified_folds(small_bundles, 2,
                                         ExperimentConfig().seed):
                knowledge_base = KnowledgeBase.from_bundles(fold.train,
                                                            extractor)
                calls = []

                def counting(shared, len_a, len_b):
                    calls.append(None)
                    return jaccard(shared, len_a, len_b)

                classifier = RankedKnnClassifier(knowledge_base, extractor,
                                                 counting)
                for bundle in fold.test:
                    features = extract_test_features(extractor, bundle)
                    before = len(calls)
                    classifier.rank_codes(bundle.part_id, features)
                    evaluations += len(calls) - before
                    pool += len(knowledge_base.candidates(bundle.part_id,
                                                          features))
                    bundles += 1
            assert evaluations == pool  # one evaluation per candidate
            work[mode] = (evaluations / bundles, pool / bundles)
        (words_evals, words_pool), (concepts_evals, concepts_pool) = (
            work["words"], work["concepts"])
        # Measured on this corpus: words 82.9 evaluations (= pool size) per
        # bundle, concepts 47.2, a ratio of 1.76.  Counts are
        # deterministic, so the bound sits just below the measured ratio.
        assert words_evals > 1.7 * concepts_evals
        assert words_pool > 1.7 * concepts_pool


class TestRunExperiments:
    FIG_11 = [("words", "jaccard"), ("words", "overlap"),
              ("concepts", "jaccard"), ("concepts", "overlap")]

    def test_shared_extraction_equals_one_run_per_config(
            self, tiny_bundles, taxonomy, annotator):
        # Variants of one feature mode share a knowledge base and a
        # memoized extraction per fold; their folds must not notice.
        configs = [ExperimentConfig(feature_mode=mode, similarity=similarity,
                                    folds=3)
                   for mode, similarity in self.FIG_11]
        joint = run_experiments(tiny_bundles, configs, taxonomy, annotator)
        assert [result.name for result in joint] == [
            config.label for config in configs]
        for config, result in zip(configs, joint):
            alone = run_experiment(tiny_bundles, config, taxonomy, annotator)
            assert ([fold.accuracies for fold in result.folds]
                    == [fold.accuracies for fold in alone.folds]), (
                config.label)
            assert ([fold.knowledge_nodes for fold in result.folds]
                    == [fold.knowledge_nodes for fold in alone.folds]), (
                config.label)

    def test_variants_of_a_mode_extract_each_document_once(
            self, tiny_bundles, monkeypatch):
        calls = []
        build = experiment.build_extractor

        class Counting:
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name

            def extract_text(self, text):
                calls.append(text)
                return self.inner.extract_text(text)

        monkeypatch.setattr(experiment, "build_extractor",
                            lambda *args: Counting(build(*args)))
        run_experiment(tiny_bundles, ExperimentConfig(folds=2))
        alone = len(calls)
        calls.clear()
        run_experiments(tiny_bundles, [
            ExperimentConfig(folds=2),
            ExperimentConfig(similarity="overlap", folds=2)])
        assert len(calls) == alone

    def test_empty_configs_rejected(self, tiny_bundles):
        with pytest.raises(ValueError):
            run_experiments(tiny_bundles, [])

    def test_mismatched_seed_rejected(self, tiny_bundles):
        with pytest.raises(ValueError):
            run_experiments(tiny_bundles, [
                ExperimentConfig(folds=2, seed=7),
                ExperimentConfig(folds=2, seed=8)])

    def test_mismatched_folds_rejected(self, tiny_bundles):
        with pytest.raises(ValueError):
            run_experiments(tiny_bundles, [
                ExperimentConfig(folds=2),
                ExperimentConfig(folds=3)])


class TestMemoizedExtractor:
    def test_hit_is_same_object(self):
        extractor = MemoizedExtractor(build_extractor("words"))
        first = extractor.extract_text("fan scorched smell")
        second = extractor.extract_text("fan scorched smell")
        assert first is second
        assert first == build_extractor("words").extract_text(
            "fan scorched smell")

    def test_name_forwarded(self):
        extractor = MemoizedExtractor(build_extractor("words-nostop"))
        assert extractor.name == "words-nostop"


class TestBaselines:
    def test_frequency_baseline_reasonable(self, small_bundles):
        config = ExperimentConfig(folds=3)
        result = run_frequency_baseline(small_bundles, config)
        assert 0.15 < result.accuracies[1] < 0.6
        assert result.accuracies[25] > 0.9

    def test_candidate_set_baseline_low_at_1(self, small_bundles, taxonomy,
                                             annotator):
        config = ExperimentConfig(feature_mode="words", folds=2)
        result = run_candidate_set_baseline(small_bundles, config, taxonomy,
                                            annotator)
        baseline_at_1 = result.accuracies[1]
        classifier = run_experiment(small_bundles, config, taxonomy, annotator)
        assert baseline_at_1 < classifier.accuracies[1] / 2


class TestReportSourceExperiment:
    def test_mechanic_only_below_supplier_only(self, small_bundles, taxonomy,
                                               annotator):
        config = ExperimentConfig(feature_mode="words", folds=2)
        mechanic = run_experiment(
            small_bundles,
            replace(config, test_sources=(ReportSource.MECHANIC,)),
            taxonomy, annotator)
        supplier = run_experiment(
            small_bundles,
            replace(config, test_sources=(ReportSource.SUPPLIER,)),
            taxonomy, annotator)
        assert mechanic.accuracies[1] < supplier.accuracies[1]
        assert "[mechanic only]" in mechanic.name

    def test_supplier_only_close_to_all_reports(self, small_bundles, taxonomy,
                                                annotator):
        config = ExperimentConfig(feature_mode="words", folds=2)
        supplier = run_experiment(
            small_bundles,
            replace(config, test_sources=(ReportSource.SUPPLIER,)),
            taxonomy, annotator)
        full = run_experiment(small_bundles, config, taxonomy, annotator)
        assert supplier.accuracies[5] > full.accuracies[5] - 0.1


class TestCrossSource:
    def test_concepts_transfer_better_than_words(self, small_corpus,
                                                 small_bundles, taxonomy,
                                                 annotator):
        complaints = generate_complaints(taxonomy, small_corpus.plan,
                                         count=250, seed=3)
        part_of_code = {code.code: code.part_id
                        for code in small_corpus.plan.all_codes()}
        words = run_cross_source_evaluation(
            small_bundles, complaints, part_of_code,
            ExperimentConfig(feature_mode="words"), taxonomy, annotator)
        concepts = run_cross_source_evaluation(
            small_bundles, complaints, part_of_code,
            ExperimentConfig(feature_mode="concepts"), taxonomy, annotator)
        # §5.4: bag-of-words suffers across text types; concepts transfer.
        assert concepts[10] > words[10]


class TestCrossSourceNormalization:
    def test_eval_and_quest_entry_points_agree(self, small_corpus, taxonomy,
                                               annotator):
        # regression: both entry points used to lower-case complaint text
        # ad hoc; they must classify a complaint identically now that the
        # folding lives in the extractor path (complaint_document)
        from repro.classify import RankedKnnClassifier
        from repro.knowledge import KnowledgeBase, complaint_document
        bundles = experiment_subset(small_corpus.bundles)[:300]
        extractor = build_extractor("words")
        classifier = RankedKnnClassifier(
            KnowledgeBase.from_bundles(bundles, extractor), extractor)
        complaints = generate_complaints(taxonomy, small_corpus.plan,
                                         count=20, seed=5)
        part_of_code = {code.code: code.part_id
                        for code in small_corpus.plan.all_codes()}
        from repro.quest import classify_complaints
        quest_codes = classify_complaints(classifier, complaints,
                                          part_of_code)
        direct = [classifier.classify_text(
            part_of_code[c.planted_code], complaint_document(c),
            ref_no=c.cmplid) for c in complaints]
        direct_codes = [r.codes[0].error_code for r in direct if r.codes]
        assert quest_codes == direct_codes

    def test_complaint_document_folds_case(self, small_corpus, taxonomy):
        from repro.knowledge import complaint_document
        complaints = generate_complaints(taxonomy, small_corpus.plan,
                                         count=5, seed=5)
        for complaint in complaints:
            assert complaint_document(complaint) == complaint.cdescr.lower()
            assert complaint_document(complaint).islower()


class TestAccuracyStd:
    def test_std_across_folds(self, small_bundles, taxonomy, annotator):
        config = ExperimentConfig(feature_mode="concepts", folds=3)
        result = run_experiment(small_bundles, config, taxonomy, annotator)
        std = result.accuracy_std(1)
        assert 0.0 <= std < 0.2

    def test_std_single_fold_is_zero(self):
        from repro.evaluate import ExperimentResult, FoldOutcome
        result = ExperimentResult(name="x", folds=[
            FoldOutcome(fold=0, test_count=10, accuracies={1: 0.5},
                        knowledge_nodes=1, seconds=0.1)])
        assert result.accuracy_std(1) == 0.0

    def test_unknown_k_named_in_error(self):
        from repro.evaluate import ExperimentResult, FoldOutcome
        result = ExperimentResult(name="x", folds=[
            FoldOutcome(fold=0, test_count=10, accuracies={1: 0.5},
                        knowledge_nodes=1, seconds=0.1)])
        with pytest.raises(ValueError, match="accuracy@5"):
            result.accuracy_std(5)
