"""The ranked-list kNN classifier (§4.2-4.3, Fig. 5/7).

Differences from textbook kNN, as designed in the paper:

* no majority vote — because of class sparsity the classifier outputs the
  *full ranked list* of error codes ordered by the similarity of their
  knowledge nodes, cut off for presentation (Fig. 7),
* instances are abstracted knowledge nodes, not raw data points,
* candidates are pre-filtered by part ID and >= 1 shared feature (Fig. 5),
* "We retrieve the error codes of the 25 best-scored candidate nodes."

Ties are broken deterministically by the error-code string, never by
frequency: the classifier is purely instance-based, as in the paper — a
frequency tie-break would smuggle the code-frequency baseline into every
uninformative feature set and overstate the text's contribution (visible
in the Experiment-2 mechanic-only setting, where the paper's classifiers
fall *below* the frequency baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..data.bundle import DataBundle, ReportSource, TEST_TIME_SOURCES
from ..knowledge.base import KnowledgeBase
from ..knowledge.extractor import FeatureExtractor, test_document
from ..knowledge.node import KnowledgeNode
from .results import Recommendation, ScoredCode
from .similarity import SimilarityFn, get_similarity

#: The paper's candidate-node cutoff.
DEFAULT_NODE_CUTOFF = 25


@dataclass(frozen=True)
class ScoredNode:
    """A candidate node with its similarity to the bundle under test."""

    node: KnowledgeNode
    score: float


class RankedKnnClassifier:
    """Classify bundles into ranked error-code lists.

    Args:
        knowledge_base: the trained knowledge base.
        extractor: the feature extractor (must match the one used to build
            the knowledge base).
        similarity: registry name or callable (default ``"jaccard"``).
        node_cutoff: number of best-scored candidate nodes whose codes are
            retrieved (25 in the paper).
    """

    def __init__(self, knowledge_base: KnowledgeBase,
                 extractor: FeatureExtractor,
                 similarity: str | SimilarityFn = "jaccard",
                 node_cutoff: int = DEFAULT_NODE_CUTOFF) -> None:
        if node_cutoff < 1:
            raise ValueError("node_cutoff must be >= 1")
        self.knowledge_base = knowledge_base
        self.extractor = extractor
        self.similarity = get_similarity(similarity)
        self.node_cutoff = node_cutoff

    # ------------------------------------------------------------------ #
    # scoring

    def _top(self, part_id: str, features: frozenset[str]) -> list[tuple]:
        """The best ``node_cutoff`` candidates as rank-ordered tuples.

        Rank order is score descending, then error code, then support
        descending, then the candidate's position in Fig. 5 retrieval
        order.  Each candidate becomes a plain
        ``(-score, code, -support, position, node)`` tuple; the position
        is unique, so tuples compare without a key function and never
        reach the node.  One C-level ``sorted`` of the pool beats a
        bounded heap's Python loop at the pool sizes Fig. 5 yields (tens
        to hundreds of nodes).  Scores come from the shared-feature
        counts retrieval returns with each candidate: one
        ``similarity(shared, |query|, |node|)`` call per candidate, no
        set intersection.
        """
        similarity = self.similarity
        size = len(features)
        return sorted([
            (-similarity(shared, size, len(node.features)), node.error_code,
             -node.support, position, node)
            for position, (node, shared) in enumerate(
                self.knowledge_base.candidates(part_id, features))
        ])[:self.node_cutoff]

    def score_candidates(self, part_id: str,
                         features: frozenset[str]) -> list[ScoredNode]:
        """Retrieve and score the top candidates for one bundle.

        Returns at most ``node_cutoff`` :class:`ScoredNode` objects in
        rank order (see :meth:`_top`).
        """
        return [ScoredNode(node, -negated)
                for negated, _, _, _, node in self._top(part_id, features)]

    def rank_codes(self, part_id: str, features: frozenset[str],
                   ref_no: str = "") -> Recommendation:
        """The ranked error-code list for a feature set (Fig. 7).

        A code scores its best node's similarity and sums its nodes'
        support.  The top tuples arrive in rank order, so a code's first
        node carries its best score, and codes first appear in the
        ranked list's order (score descending, then code).

        Besides the ranked codes, the recommendation carries the
        confidence signals the triage layer scores: the candidate-pool
        size, how many pool nodes voted for the winner, and whether the
        part ID was known (an unknown part fires the Fig. 5 global
        fallback, which dilutes the pool's meaning).
        """
        top = self._top(part_id, features)
        best: dict[str, list] = {}
        for negated, code, negated_support, _, _ in top:
            entry = best.get(code)
            if entry is None:
                best[code] = [-negated, -negated_support]
            else:
                entry[1] -= negated_support
        ranked = [ScoredCode(code, score, support)
                  for code, (score, support) in best.items()]
        winner_nodes = 0
        if ranked:
            winner = ranked[0].error_code
            winner_nodes = sum(1 for item in top if item[1] == winner)
        if top:
            # A known part's pool holds only its own nodes, an unknown
            # part's (the Fig. 5 fallback) none of them: reading this off
            # the pool takes it from the same knowledge view.
            part_known = top[0][4].part_id == part_id
        else:
            has_part = getattr(self.knowledge_base, "has_part", None)
            part_known = (bool(has_part(part_id)) if has_part is not None
                          else True)
        return Recommendation(ref_no=ref_no, part_id=part_id, codes=ranked,
                              pool_size=len(top),
                              winner_nodes=winner_nodes,
                              part_known=part_known)

    # ------------------------------------------------------------------ #
    # bundle-level API

    def classify_bundle(self, bundle: DataBundle,
                        sources: tuple[ReportSource, ...] = TEST_TIME_SOURCES,
                        ) -> Recommendation:
        """Classify one data bundle from its test-phase document.

        Args:
            bundle: the bundle to classify (its error code is ignored).
            sources: which reports feed the document — restrict to a single
                source for the Experiment-2 setting (§5.3).
        """
        features = self.extractor.extract_text(test_document(bundle, sources))
        return self.rank_codes(bundle.part_id, features, ref_no=bundle.ref_no)

    def classify_text(self, part_id: str, text: str,
                      ref_no: str = "") -> Recommendation:
        """Classify raw text against a part ID (used for the NHTSA source)."""
        features = self.extractor.extract_text(text)
        return self.rank_codes(part_id, features, ref_no=ref_no)

    def classify_bundles(self, bundles: Iterable[DataBundle],
                         sources: tuple[ReportSource, ...] = TEST_TIME_SOURCES,
                         ) -> list[Recommendation]:
        """Classify a batch, extracting each distinct document only once.

        Feature extraction (tokens for bag-of-words, taxonomy concept
        ids for bag-of-concepts) is pure in the document text, so within
        a batch identical documents — duplicate refs coalesced by the
        serving micro-batcher, re-submitted bundles — share one
        extraction.  Result order matches *bundles*
        and each recommendation equals :meth:`classify_bundle`'s exactly.
        """
        memo: dict[str, frozenset[str]] = {}
        recommendations = []
        for bundle in bundles:
            document = test_document(bundle, sources)
            features = memo.get(document)
            if features is None:
                features = memo[document] = self.extractor.extract_text(
                    document)
            recommendations.append(self.rank_codes(bundle.part_id, features,
                                                   ref_no=bundle.ref_no))
        return recommendations


class MajorityVoteKnnClassifier:
    """Textbook unweighted kNN with majority vote (Fig. 6).

    Included for the paper's illustration of why majority voting is
    unsuitable here: the predicted class flips with k on sparse data.
    """

    def __init__(self, knowledge_base: KnowledgeBase,
                 extractor: FeatureExtractor,
                 similarity: str | SimilarityFn = "jaccard", k: int = 6) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.knowledge_base = knowledge_base
        self.extractor = extractor
        self.similarity = get_similarity(similarity)
        self.k = k

    def classify_bundle(self, bundle: DataBundle) -> str | None:
        """Predict a single error code by majority vote, or None."""
        features = self.extractor.extract_text(test_document(bundle))
        candidates = self.knowledge_base.candidates(bundle.part_id, features)
        size = len(features)
        scored = sorted(
            ((self.similarity(shared, size, len(node.features)), node)
             for node, shared in candidates),
            key=lambda item: (-item[0], -item[1].support, item[1].error_code))
        nearest = scored[:self.k]
        if not nearest:
            return None
        votes: dict[str, int] = {}
        for _, node in nearest:
            votes[node.error_code] = votes.get(node.error_code, 0) + 1
        return sorted(votes.items(), key=lambda item: (-item[1], item[0]))[0][0]
