"""The experiment runner behind §5.2-5.4.

One :class:`ExperimentConfig` describes a classifier variant (feature
model x similarity measure x test report sources); :func:`run_experiments`
evaluates several of them with stratified cross-validation and returns
per-fold and averaged accuracy@k plus per-bundle classification time —
everything the paper's figures plot.  :func:`run_experiment` is its
one-variant case.  Within a fold, variants of one feature mode share one
knowledge base and one memoized feature extraction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from ..classify.baselines import CandidateSetBaseline, CodeFrequencyBaseline
from ..classify.knn import DEFAULT_NODE_CUTOFF, RankedKnnClassifier
from ..classify.results import Recommendation
from ..data.bundle import DataBundle, ReportSource, TEST_TIME_SOURCES
from ..data.nhtsa import Complaint
from ..knowledge.base import KnowledgeBase
from ..knowledge.extractor import (BagOfConceptsExtractor,
                                   BagOfWordsExtractor, FeatureExtractor,
                                   complaint_document)
from ..taxonomy.annotator import ConceptAnnotator
from ..taxonomy.model import Taxonomy
from .crossval import stratified_folds
from .metrics import DEFAULT_KS, accuracy_at_k, merge_fold_accuracies

#: Feature-mode identifiers accepted by :class:`ExperimentConfig`.
FEATURE_MODES = ("words", "words-nostop", "words-stem", "concepts")


@dataclass(frozen=True)
class ExperimentConfig:
    """One classifier variant under evaluation."""

    feature_mode: str = "words"
    similarity: str = "jaccard"
    folds: int = 5
    ks: tuple[int, ...] = DEFAULT_KS
    test_sources: tuple[ReportSource, ...] = TEST_TIME_SOURCES
    node_cutoff: int = DEFAULT_NODE_CUTOFF
    seed: int = 7

    def __post_init__(self) -> None:
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature mode {self.feature_mode!r}; "
                             f"expected one of {FEATURE_MODES}")

    @property
    def label(self) -> str:
        """Short display label, e.g. ``"concepts+jaccard"``.

        A test restricted to one report source says so, e.g.
        ``"words+jaccard [supplier only]"`` (Experiment 2, §5.3).
        """
        label = f"{self.feature_mode}+{self.similarity}"
        if len(self.test_sources) == 1:
            label += f" [{self.test_sources[0].value} only]"
        return label


@dataclass(frozen=True)
class FoldOutcome:
    """Metrics of a single fold."""

    fold: int
    test_count: int
    accuracies: dict[int, float]
    knowledge_nodes: int
    #: Wall-clock seconds spent classifying the test bundles.  In a joint
    #: :func:`run_experiments` run it excludes the feature extraction an
    #: earlier variant of the same feature mode already did in this fold
    #: (its memo answers instead), so compare it only between one-variant
    #: runs.
    seconds: float

    @property
    def seconds_per_bundle(self) -> float:
        """Classification wall-clock per test bundle."""
        return self.seconds / self.test_count if self.test_count else 0.0


@dataclass
class ExperimentResult:
    """Cross-validated metrics of one variant."""

    name: str
    folds: list[FoldOutcome] = field(default_factory=list)

    @property
    def accuracies(self) -> dict[int, float]:
        """Test-size-weighted mean accuracy@k over the folds."""
        return merge_fold_accuracies([fold.accuracies for fold in self.folds],
                                     [fold.test_count for fold in self.folds])

    @property
    def seconds_per_bundle(self) -> float:
        """Mean classification time per bundle over all folds."""
        total_seconds = sum(fold.seconds for fold in self.folds)
        total_bundles = sum(fold.test_count for fold in self.folds)
        return total_seconds / total_bundles if total_bundles else 0.0

    def accuracy_std(self, k: int) -> float:
        """Population standard deviation of accuracy@k across folds.

        A quick stability check before reading small differences between
        variants as real (use :func:`repro.evaluate.paired_bootstrap` for a
        proper test).

        Raises:
            ValueError: when *k* was not measured in every fold.
        """
        for fold in self.folds:
            if k not in fold.accuracies:
                raise ValueError(
                    f"accuracy@{k} was not measured for fold {fold.fold} "
                    f"of {self.name!r} (known k values: "
                    f"{sorted(fold.accuracies)})")
        values = [fold.accuracies[k] for fold in self.folds]
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return (sum((value - mean) ** 2 for value in values)
                / len(values)) ** 0.5

    def accuracy_row(self) -> str:
        """A printable accuracy@k row (used by the benchmark harness)."""
        cells = "  ".join(f"@{k}={value:.3f}"
                          for k, value in sorted(self.accuracies.items()))
        return f"{self.name:<28} {cells}"


def build_extractor(feature_mode: str, taxonomy: Taxonomy | None = None,
                    annotator: ConceptAnnotator | None = None,
                    ) -> FeatureExtractor:
    """Instantiate the extractor for a feature mode.

    Raises:
        ValueError: for unknown modes or a missing taxonomy.
    """
    if feature_mode == "words":
        return BagOfWordsExtractor()
    if feature_mode == "words-nostop":
        return BagOfWordsExtractor(remove_stopwords=True)
    if feature_mode == "words-stem":
        return BagOfWordsExtractor(remove_stopwords=True, stem=True)
    if feature_mode == "concepts":
        if annotator is None and taxonomy is None:
            raise ValueError("concept features need a taxonomy")
        return BagOfConceptsExtractor(taxonomy=taxonomy, annotator=annotator)
    raise ValueError(f"unknown feature mode {feature_mode!r}")


class MemoizedExtractor:
    """Wraps an extractor with a text -> feature-set memo.

    Extraction is deterministic, so a memo hit is bit-identical to
    recomputation.  Keyed by the document text itself: correct even when
    two bundles share a ref_no.  One instance is shared by all variants of
    one feature mode within one fold, which is also the lifetime bound of
    the memo.
    """

    def __init__(self, inner: FeatureExtractor) -> None:
        self.inner = inner
        self.name = inner.name
        self._memo: dict[str, frozenset[str]] = {}

    def extract_text(self, text: str) -> frozenset[str]:
        features = self._memo.get(text)
        if features is None:
            features = self.inner.extract_text(text)
            self._memo[text] = features
        return features

    def __repr__(self) -> str:
        return f"<MemoizedExtractor {self.name} memo={len(self._memo)}>"


def _score_fold(fold: int, test: Sequence[DataBundle],
                classify: Callable[[DataBundle], Recommendation],
                ks: Sequence[int], knowledge_nodes: int) -> FoldOutcome:
    """Classify one fold's *test* bundles, timed, and score accuracy@k."""
    start = time.perf_counter()
    recommendations = [classify(bundle) for bundle in test]
    elapsed = time.perf_counter() - start
    truths = [bundle.error_code for bundle in test]
    return FoldOutcome(fold=fold, test_count=len(test),
                       accuracies=accuracy_at_k(recommendations, truths, ks),
                       knowledge_nodes=knowledge_nodes, seconds=elapsed)


def run_experiments(bundles: Sequence[DataBundle],
                    configs: Sequence[ExperimentConfig],
                    taxonomy: Taxonomy | None = None,
                    annotator: ConceptAnnotator | None = None,
                    ) -> list[ExperimentResult]:
    """Cross-validate several classifier variants over *bundles*.

    One fold split serves every variant.  Within a fold, the variants of
    one feature mode share one knowledge base and one
    :class:`MemoizedExtractor`, so each document is extracted once per
    mode however many similarity measures use it.  Accuracies equal those
    of one :func:`run_experiment` call per config; only the ``seconds``
    of a mode's later variants leave out the extraction already done.

    Args:
        bundles: the labeled corpus.
        configs: the variants; all must share ``folds`` and ``seed``.
        taxonomy / annotator: concept-mode dependencies, as in
            :func:`build_extractor`.

    Returns one :class:`ExperimentResult` per config, in config order.

    Raises:
        ValueError: on an empty config list or mismatched folds/seed.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("no experiment configs to run")
    first = configs[0]
    for config in configs[1:]:
        if (config.folds, config.seed) != (first.folds, first.seed):
            raise ValueError(
                "all configs must share folds and seed for a joint run "
                f"(got folds={config.folds}/seed={config.seed}, expected "
                f"folds={first.folds}/seed={first.seed})")
    modes = dict.fromkeys(config.feature_mode for config in configs)
    inner = {mode: build_extractor(mode, taxonomy, annotator)
             for mode in modes}
    results = [ExperimentResult(name=config.label) for config in configs]
    for fold in stratified_folds(bundles, first.folds, first.seed):
        extractors = {mode: MemoizedExtractor(extractor)
                      for mode, extractor in inner.items()}
        bases = {mode: KnowledgeBase.from_bundles(fold.train, extractor)
                 for mode, extractor in extractors.items()}
        for config, result in zip(configs, results):
            mode = config.feature_mode
            classifier = RankedKnnClassifier(bases[mode], extractors[mode],
                                             config.similarity,
                                             config.node_cutoff)
            result.folds.append(_score_fold(
                fold.index, fold.test,
                partial(classifier.classify_bundle,
                        sources=config.test_sources),
                config.ks, len(bases[mode])))
    return results


def run_experiment(bundles: Sequence[DataBundle],
                   config: ExperimentConfig,
                   taxonomy: Taxonomy | None = None,
                   annotator: ConceptAnnotator | None = None,
                   ) -> ExperimentResult:
    """Cross-validate one classifier variant over *bundles*."""
    return run_experiments(bundles, [config], taxonomy, annotator)[0]


def run_frequency_baseline(bundles: Sequence[DataBundle],
                           config: ExperimentConfig) -> ExperimentResult:
    """Cross-validate the code-frequency baseline (§5.1 baseline 1)."""
    result = ExperimentResult(name="code-frequency baseline")
    for fold in stratified_folds(bundles, config.folds, config.seed):
        baseline = CodeFrequencyBaseline.from_bundles(fold.train)
        result.folds.append(_score_fold(fold.index, fold.test,
                                        baseline.classify_bundle, config.ks,
                                        0))
    return result


def run_candidate_set_baseline(bundles: Sequence[DataBundle],
                               config: ExperimentConfig,
                               taxonomy: Taxonomy | None = None,
                               annotator: ConceptAnnotator | None = None,
                               ) -> ExperimentResult:
    """Cross-validate the unsorted candidate-set baseline (§5.1 baseline 2).

    Depends on the feature model, so the config's ``feature_mode`` selects
    the bag-of-words or bag-of-concepts flavour shown in Fig. 11.
    """
    extractor = build_extractor(config.feature_mode, taxonomy, annotator)
    result = ExperimentResult(
        name=f"candidate-set baseline ({config.feature_mode})")
    for fold in stratified_folds(bundles, config.folds, config.seed):
        knowledge_base = KnowledgeBase.from_bundles(fold.train, extractor)
        baseline = CandidateSetBaseline(knowledge_base, extractor)
        result.folds.append(_score_fold(
            fold.index, fold.test,
            partial(baseline.classify_bundle, sources=config.test_sources),
            config.ks, len(knowledge_base)))
    return result


def run_cross_source_evaluation(train_bundles: Sequence[DataBundle],
                                complaints: Sequence[Complaint],
                                part_id_of_code: dict[str, str],
                                config: ExperimentConfig,
                                taxonomy: Taxonomy | None = None,
                                annotator: ConceptAnnotator | None = None,
                                ) -> dict[int, float]:
    """Ablation A3: train on OEM bundles, classify NHTSA-style complaints.

    The planted ground-truth codes of the synthetic complaints make the
    cross-source degradation measurable (the paper only argues it
    qualitatively in §5.4).
    """
    extractor = build_extractor(config.feature_mode, taxonomy, annotator)
    knowledge_base = KnowledgeBase.from_bundles(train_bundles, extractor)
    classifier = RankedKnnClassifier(knowledge_base, extractor,
                                     config.similarity, config.node_cutoff)
    recommendations = []
    truths = []
    for complaint in complaints:
        part_id = part_id_of_code[complaint.planted_code]
        recommendations.append(classifier.classify_text(
            part_id, complaint_document(complaint), ref_no=complaint.cmplid))
        truths.append(complaint.planted_code)
    return accuracy_at_k(recommendations, truths, config.ks)
