"""The QATK facade: assemble and run the Fig. 8 pipeline.

This is the toolbox the paper describes in §4.1/§4.4: a modular analytics
pipeline that (training phase) extracts structure from unstructured
reports into a knowledge base, and (test/application phase) assigns scored
error-code recommendations to new data bundles, persisting everything in
the relational store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..classify.baselines import CodeFrequencyBaseline
from ..classify.knn import DEFAULT_NODE_CUTOFF, RankedKnnClassifier
from ..classify.results import Recommendation
from ..data.bundle import DataBundle, ReportSource
from ..evaluate.experiment import build_extractor
from ..knowledge.base import KnowledgeBase
from ..quest.service import QuestService
from ..relstore import Database
from ..taxonomy.annotator import ConceptAnnotator
from ..taxonomy.builder import build_taxonomy
from ..taxonomy.model import Taxonomy
from ..text.tokenizer import WhitespaceTokenizer
from ..uima import AnalysisEngine, Pipeline
from .cas_io import BundleReader, bundle_to_cas
from .engines import (RECOMMENDATION_KEY, ClassifierEngine,
                      KnowledgeBaseConsumer, RecommendationConsumer)


@dataclass
class QatkConfig:
    """Configuration of a QATK instance."""

    feature_mode: str = "concepts"
    similarity: str = "jaccard"
    node_cutoff: int = DEFAULT_NODE_CUTOFF
    extra_engines: list[AnalysisEngine] = field(default_factory=list)
    #: Pipeline degradation semantics (see :class:`repro.uima.Pipeline`):
    #: ``fail_fast`` (default, the historical behavior), ``skip`` or
    #: ``quarantine``.
    error_policy: str = "fail_fast"
    #: Per-CAS retries with exponential backoff before the policy applies.
    max_retries: int = 0
    retry_backoff: float = 0.0


class QATK:
    """Quality Analytics Toolkit.

    Typical use::

        qatk = QATK(taxonomy)
        qatk.train(classified_bundles)
        recommendation = qatk.classify(new_bundle)
    """

    def __init__(self, taxonomy: Taxonomy | None = None,
                 config: QatkConfig | None = None,
                 database: Database | None = None) -> None:
        self.taxonomy = taxonomy if taxonomy is not None else build_taxonomy()
        self.config = config or QatkConfig()
        self.database = database if database is not None else Database("qatk")
        self.annotator = ConceptAnnotator(taxonomy=self.taxonomy)
        self.extractor = build_extractor(self.config.feature_mode,
                                         self.taxonomy, self.annotator)
        self.knowledge_base = KnowledgeBase(
            feature_kind=self.extractor.name, database=self.database)
        self.classifier = RankedKnnClassifier(
            self.knowledge_base, self.extractor, self.config.similarity,
            self.config.node_cutoff)
        self._frequency_baseline = CodeFrequencyBaseline()

    # ------------------------------------------------------------------ #
    # pipeline assembly (Fig. 8)

    def analysis_engines(self) -> list[AnalysisEngine]:
        """Step 2 of Fig. 8: unstructured-data analytics engines.

        Only engines whose output is read run: the concept annotator only
        when concepts are the features (no other feature mode reads its
        ``ConceptMention`` annotations), and no language detector, since
        no stage reads ``Language`` annotations.  A caller who wants
        language labels passes :class:`~repro.text.LanguageDetector` in
        :attr:`QatkConfig.extra_engines`.
        """
        engines: list[AnalysisEngine] = [WhitespaceTokenizer()]
        if self.config.feature_mode == "concepts":
            engines.append(self.annotator)
        engines.extend(self.config.extra_engines)
        return engines

    def _pipeline_options(self) -> dict:
        return {"error_policy": self.config.error_policy,
                "max_retries": self.config.max_retries,
                "retry_backoff": self.config.retry_backoff}

    def training_pipeline(self, bundles: Iterable[DataBundle]) -> Pipeline:
        """The full training-phase pipeline over *bundles*."""
        return Pipeline(BundleReader(bundles, training=True),
                        self.analysis_engines(),
                        [KnowledgeBaseConsumer(self.knowledge_base)],
                        **self._pipeline_options())

    def classification_pipeline(self, bundles: Iterable[DataBundle],
                                sources: Sequence[ReportSource] | None = None,
                                ) -> Pipeline:
        """The test/application-phase pipeline over *bundles*."""
        engines = self.analysis_engines()
        engines.append(ClassifierEngine.for_knn(self.classifier,
                                                self.knowledge_base.feature_kind))
        return Pipeline(BundleReader(bundles, training=False, sources=sources),
                        engines,
                        [RecommendationConsumer(self.database)],
                        **self._pipeline_options())

    # ------------------------------------------------------------------ #
    # convenience API

    def train(self, bundles: Iterable[DataBundle]) -> int:
        """Run the training phase; returns the number of bundles consumed."""
        bundles = list(bundles)
        processed = self.training_pipeline(bundles).run()
        self._frequency_baseline = CodeFrequencyBaseline.from_bundles(bundles)
        return processed

    def classify(self, bundle: DataBundle,
                 sources: Sequence[ReportSource] | None = None,
                 ) -> Recommendation:
        """Classify one bundle through the full pipeline."""
        pipeline = self.classification_pipeline([], sources=sources)
        cas = bundle_to_cas(bundle, training=False, sources=sources)
        pipeline.process_one(cas)
        return cas.metadata[RECOMMENDATION_KEY]

    def classify_many(self, bundles: Iterable[DataBundle],
                      sources: Sequence[ReportSource] | None = None,
                      ) -> list[Recommendation]:
        """Classify bundles, persisting the scored lists (Fig. 8, 3c)."""
        consumer = RecommendationConsumer(self.database)
        pipeline = self.classification_pipeline(bundles, sources=sources)
        pipeline.consumers = [consumer]
        pipeline.run()
        return consumer.collected

    def make_service(self, database: Database | None = None) -> QuestService:
        """Build the QUEST service layer on top of this toolkit."""
        return QuestService(database if database is not None else self.database,
                            self.classifier, self._frequency_baseline)

    def __repr__(self) -> str:
        return (f"<QATK mode={self.config.feature_mode!r} "
                f"similarity={self.config.similarity!r} "
                f"nodes={len(self.knowledge_base)}>")
