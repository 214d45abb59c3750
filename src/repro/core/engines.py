"""Structured-data analytics stages of the Fig. 8 pipeline.

* :class:`KnowledgeBaseConsumer` — training phase step 3: extract a
  knowledge node (part ID, error code, features) from each analysed CAS
  and persist it.
* :class:`ClassifierEngine` — test/application phase step 3b: the
  classification step, realized "as an extension point where different
  classification algorithms can be plugged in easily".
* :class:`RecommendationConsumer` — step 3c: result persistence.
"""

from __future__ import annotations

from typing import Any, Callable

from ..classify.knn import RankedKnnClassifier
from ..classify.results import Recommendation, store_recommendations
from ..knowledge.base import KnowledgeBase
from ..knowledge.extractor import word_features
from ..relstore import Database
from ..uima import CAS, AnalysisEngine, CasConsumer

#: CAS metadata key under which the classifier deposits its result.
RECOMMENDATION_KEY = "recommendation"


def cas_features(cas: CAS, feature_kind: str) -> frozenset[str]:
    """Collect the classification features recorded in a CAS.

    ``concepts`` uses ``ConceptMention`` annotations, anything else the
    ``Token`` annotations' covered text (the bag-of-words path stores raw
    tokens; §5.1 works without normalization), with the stopword removal
    and stemming the bag-of-words extractor of that name applies.
    """
    if feature_kind == "concepts":
        return frozenset(annotation.features["concept_id"]
                         for annotation in cas.select("ConceptMention"))
    return word_features((cas.covered_text(annotation)
                          for annotation in cas.select("Token")),
                         feature_kind)


class KnowledgeBaseConsumer(CasConsumer):
    """Training-phase consumer building the knowledge base (Fig. 8, 3a/b).

    A bulk load: each CAS only stages its node, and :meth:`finish`
    publishes the knowledge base's view once for the whole collection.
    A run that raises before :meth:`finish` leaves its nodes staged until
    the knowledge base's next publish.
    """

    def __init__(self, knowledge_base: KnowledgeBase) -> None:
        self.knowledge_base = knowledge_base
        self.consumed = 0

    def consume(self, cas: CAS) -> None:
        error_code = cas.metadata.get("error_code")
        if error_code is None:
            return  # nothing to learn from unclassified data
        features = cas_features(cas, self.knowledge_base.feature_kind)
        self.knowledge_base.add_observation(cas.metadata["part_id"],
                                            error_code, features,
                                            publish=False)
        self.consumed += 1

    def finish(self) -> None:
        self.knowledge_base.publish()


class ClassifierEngine(AnalysisEngine):
    """The pluggable classification step (Fig. 8, 3b).

    Parameters:
        classify: a callable ``(part_id, features, ref_no) ->
            Recommendation``; pass a bound
            :meth:`RankedKnnClassifier.rank_codes` or any replacement
            algorithm.
        feature_kind: which CAS annotations carry the features.
    """

    name = "classifier"

    def initialize(self) -> None:
        classify = self.params.get("classify")
        if classify is None:
            raise TypeError("ClassifierEngine requires a classify= callable")
        self._classify: Callable[[str, frozenset[str], str], Recommendation] = classify
        self._feature_kind: str = self.params.get("feature_kind", "words")

    def process(self, cas: CAS) -> None:
        features = cas_features(cas, self._feature_kind)
        recommendation = self._classify(cas.metadata["part_id"], features,
                                        cas.metadata.get("ref_no", ""))
        cas.metadata[RECOMMENDATION_KEY] = recommendation

    @classmethod
    def for_knn(cls, classifier: RankedKnnClassifier,
                feature_kind: str) -> "ClassifierEngine":
        """Build the engine around the paper's ranked kNN classifier."""
        def classify(part_id: str, features: frozenset[str],
                     ref_no: str) -> Recommendation:
            return classifier.rank_codes(part_id, features, ref_no=ref_no)
        return cls(classify=classify, feature_kind=feature_kind)


class RecommendationConsumer(CasConsumer):
    """Result persistence (Fig. 8, 3c): scored codes into the database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.collected: list[Recommendation] = []

    def consume(self, cas: CAS) -> None:
        recommendation: Any = cas.metadata.get(RECOMMENDATION_KEY)
        if recommendation is not None:
            self.collected.append(recommendation)

    def finish(self) -> None:
        if self.collected:
            store_recommendations(self.database, self.collected)
