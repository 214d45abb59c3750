"""Learning-curve evaluation.

§4.2 motivates kNN precisely because it "is instance-based and therefore
allows for predictions about class membership even with a small data set
and a large number of classes".  A learning curve — accuracy as a function
of the number of classified training bundles — is the direct probe of that
claim, and tells an adopting quality department how much labelled history
they need before QUEST becomes useful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from ..classify.knn import RankedKnnClassifier
from ..data.bundle import DataBundle
from ..knowledge.base import KnowledgeBase
from ..taxonomy.annotator import ConceptAnnotator
from ..taxonomy.model import Taxonomy
from .crossval import stratified_folds
from .experiment import ExperimentConfig, _score_fold, build_extractor

#: Default training-set sizes for the sweep.
DEFAULT_SIZES: tuple[int, ...] = (250, 500, 1000, 2000, 4000)


@dataclass(frozen=True)
class LearningPoint:
    """One point of a learning curve."""

    train_size: int
    knowledge_nodes: int
    accuracies: dict[int, float]
    seconds_per_bundle: float


def run_learning_curve(bundles: Sequence[DataBundle],
                       config: ExperimentConfig,
                       sizes: Sequence[int] = DEFAULT_SIZES,
                       taxonomy: Taxonomy | None = None,
                       annotator: ConceptAnnotator | None = None,
                       ) -> list[LearningPoint]:
    """Accuracy@k as a function of training-set size.

    The test set is the last stratified fold (fixed across sizes, so the
    points are comparable); training subsets are nested prefixes of the
    remaining data, so each larger point strictly contains the smaller.

    Raises:
        ValueError: if a requested size exceeds the available training data.
    """
    extractor = build_extractor(config.feature_mode, taxonomy, annotator)
    folds = list(stratified_folds(bundles, config.folds, config.seed))
    fold = folds[-1]
    train_pool = list(fold.train)
    test = list(fold.test)
    points: list[LearningPoint] = []
    for size in sizes:
        if size > len(train_pool):
            raise ValueError(f"size {size} exceeds the training pool "
                             f"({len(train_pool)})")
        knowledge_base = KnowledgeBase.from_bundles(train_pool[:size],
                                                    extractor)
        classifier = RankedKnnClassifier(knowledge_base, extractor,
                                         config.similarity,
                                         config.node_cutoff)
        outcome = _score_fold(
            fold.index, test,
            partial(classifier.classify_bundle, sources=config.test_sources),
            config.ks, len(knowledge_base))
        points.append(LearningPoint(
            train_size=size,
            knowledge_nodes=outcome.knowledge_nodes,
            accuracies=outcome.accuracies,
            seconds_per_bundle=outcome.seconds / len(test)))
    return points


def curve_row(point: LearningPoint) -> str:
    """A printable row for one learning-curve point."""
    cells = "  ".join(f"@{k}={value:.3f}"
                      for k, value in sorted(point.accuracies.items()))
    return (f"train={point.train_size:<6} nodes={point.knowledge_nodes:<6} "
            f"{cells}  {point.seconds_per_bundle * 1000:.2f} ms/bundle")
