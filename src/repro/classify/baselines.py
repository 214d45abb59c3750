"""The two text-blind baselines of §5.1.

1. **code frequency**: all error codes available for the bundle's part ID,
   sorted by frequency in the database, most frequent first;
2. **unsorted candidate set**: the codes of all knowledge nodes sharing the
   part ID and at least one feature, in knowledge-base storage order,
   without any scoring.
"""

from __future__ import annotations

from typing import Iterable

from ..data.bundle import DataBundle, ReportSource, TEST_TIME_SOURCES
from ..knowledge.base import KnowledgeBase
from ..knowledge.extractor import FeatureExtractor, test_document
from .results import Recommendation, ScoredCode


class CodeFrequencyBaseline:
    """Rank a part's known error codes by how often they occur.

    Built either from classified bundles or from a knowledge base (support
    counts).  Ties are broken by code string for determinism.
    """

    def __init__(self) -> None:
        self._frequencies: dict[str, dict[str, int]] = {}

    @classmethod
    def from_bundles(cls, bundles: Iterable[DataBundle]) -> "CodeFrequencyBaseline":
        """Count error codes per part ID over classified *bundles*."""
        baseline = cls()
        for bundle in bundles:
            if bundle.error_code is None:
                continue
            part = baseline._frequencies.setdefault(bundle.part_id, {})
            part[bundle.error_code] = part.get(bundle.error_code, 0) + 1
        return baseline

    @classmethod
    def from_knowledge_base(cls, knowledge_base: KnowledgeBase,
                            ) -> "CodeFrequencyBaseline":
        """Derive frequencies from a knowledge base's support counts."""
        baseline = cls()
        for part_id in knowledge_base.part_ids():
            baseline._frequencies[part_id] = knowledge_base.code_frequencies(
                part_id)
        return baseline

    def ranked_codes(self, part_id: str) -> list[ScoredCode]:
        """The frequency-sorted code list for *part_id* (empty if unknown)."""
        frequencies = self._frequencies.get(part_id, {})
        total = sum(frequencies.values()) or 1
        ordered = sorted(frequencies.items(),
                         key=lambda item: (-item[1], item[0]))
        return [ScoredCode(code, count / total, count)
                for code, count in ordered]

    def classify_bundle(self, bundle: DataBundle) -> Recommendation:
        """The baseline 'recommendation' — text is ignored entirely."""
        return Recommendation(ref_no=bundle.ref_no, part_id=bundle.part_id,
                              codes=self.ranked_codes(bundle.part_id))


class CandidateSetBaseline:
    """The unsorted candidate set (§5.1 baseline 2).

    Lists the error codes of the Fig. 5 candidate *nodes* in knowledge-base
    storage order, without any scoring — what the classifier would present
    if it skipped the similarity step.  A code's rank is the position of
    its first node, counting nodes (duplicates included), matching the
    paper's "containing all nodes in the knowledge base which share the
    part ID and at least one concept / word".  Depends on the feature
    model, so there is one such baseline per extractor (Fig. 11 shows
    both).
    """

    def __init__(self, knowledge_base: KnowledgeBase,
                 extractor: FeatureExtractor) -> None:
        self.knowledge_base = knowledge_base
        self.extractor = extractor

    def classify_bundle(self, bundle: DataBundle,
                        sources: tuple[ReportSource, ...] = TEST_TIME_SOURCES,
                        ) -> Recommendation:
        """The unsorted candidate node codes for one bundle."""
        features = self.extractor.extract_text(test_document(bundle, sources))
        candidates = self.knowledge_base.candidates(bundle.part_id, features)
        # Storage layout: rarely-merged configurations sit first (they were
        # written once and never updated); heavily-merged ones last.  This
        # is what "unsorted" means here — physical order, no relevance.
        ordered = sorted(enumerate(node for node, _ in candidates),
                         key=lambda item: (item[1].support, item[0]))
        codes = [ScoredCode(node.error_code, 0.0, node.support)
                 for _, node in ordered]  # duplicates kept: rank = node pos.
        return Recommendation(ref_no=bundle.ref_no, part_id=bundle.part_id,
                              codes=codes)
