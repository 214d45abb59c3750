"""Feature extraction from data bundles.

Two abstraction models (§4.3):

* **bag-of-words** (domain-ignorant): "all words in the text", on
  whitespace/punctuation-tokenized text "without further preprocessing or
  normalization" (§5.1) — optionally with German/English stopwords removed
  (§5.2.2, an accuracy-neutral speedup);
* **bag-of-concepts** (domain-specific): taxonomy concept ids found by the
  :class:`~repro.taxonomy.annotator.ConceptAnnotator`, "without
  distinguishing between types of concepts".

Extractors work on the *combined document* of a bundle; which reports feed
the document depends on the phase: training uses everything including the
final OEM report and the error code description, testing only what exists
before classification (§3.2).
"""

from __future__ import annotations

from typing import Iterable, Protocol

from ..data.bundle import DataBundle, ReportSource, TEST_TIME_SOURCES
from ..taxonomy.annotator import ConceptAnnotator
from ..taxonomy.model import Taxonomy
from ..text.stopwords import ALL_STOPWORDS
from ..text.tokenizer import tokenize


class FeatureExtractor(Protocol):
    """Turns text into a classification feature set."""

    #: short identifier used in experiment reports ("words" / "concepts").
    name: str

    def extract_text(self, text: str) -> frozenset[str]:
        """Feature set of raw *text*."""
        ...


def word_features(tokens: Iterable[str], kind: str) -> frozenset[str]:
    """The bag-of-words features of tokenized text for extractor *kind*.

    *kind* is a :class:`BagOfWordsExtractor` name: a ``nostop`` part
    drops stopwords, a ``stem`` part stems the remaining tokens.  The
    extractor and the UIMA pipeline (which reads ``Token`` annotations)
    both derive their features here, so they agree in every mode.  Both
    steps map one token to one result, so they run on the distinct tokens.
    """
    features = frozenset(tokens)
    options = kind.split("-")
    if "nostop" in options:
        features = frozenset([token for token in features
                              if token.lower() not in ALL_STOPWORDS])
    if "stem" in options:
        from ..text.stem import stem as stem_word
        features = frozenset([stem_word(token) for token in features])
    return features


class BagOfWordsExtractor:
    """The domain-ignorant extractor: every token is a feature.

    Args:
        remove_stopwords: drop German/English stopwords (§5.2.2).
        stem: reduce tokens to stems — one of the paper's planned
            "more linguistic preprocessing" extensions (§6).
    """

    def __init__(self, remove_stopwords: bool = False,
                 stem: bool = False) -> None:
        self.remove_stopwords = remove_stopwords
        self.stem = stem
        name = "words"
        if remove_stopwords:
            name += "-nostop"
        if stem:
            name += "-stem"
        self.name = name

    def extract_text(self, text: str) -> frozenset[str]:
        return word_features(tokenize(text), self.name)

    def __repr__(self) -> str:
        return (f"<BagOfWordsExtractor stopwords={self.remove_stopwords} "
                f"stem={self.stem}>")


class BagOfConceptsExtractor:
    """The domain-specific extractor: taxonomy concept ids as features.

    Args:
        taxonomy: the automotive taxonomy (used to build the annotator).
        annotator: pass a prebuilt annotator instead to share its trie.
    """

    name = "concepts"

    def __init__(self, taxonomy: Taxonomy | None = None,
                 annotator: ConceptAnnotator | None = None) -> None:
        if annotator is None:
            if taxonomy is None:
                raise TypeError("need a taxonomy or a prebuilt annotator")
            annotator = ConceptAnnotator(taxonomy=taxonomy)
        self.annotator = annotator

    def extract_text(self, text: str) -> frozenset[str]:
        return frozenset(self.annotator.concept_ids(text))

    def __repr__(self) -> str:
        return "<BagOfConceptsExtractor>"


def training_document(bundle: DataBundle) -> str:
    """The training-phase document: all reports plus both descriptions."""
    return bundle.training_text()


def test_document(bundle: DataBundle,
                  sources: Iterable[ReportSource] = TEST_TIME_SOURCES) -> str:
    """The test-phase document: pre-classification reports + part description.

    Restricting *sources* to a single report type reproduces Experiment 2
    (§5.3): mechanic-only or supplier-only test bundles.
    """
    return bundle.document_text(sources, include_part_description=True,
                                include_error_description=False)


def extract_training_features(extractor: FeatureExtractor,
                              bundle: DataBundle) -> frozenset[str]:
    """Features of *bundle* for knowledge-base construction."""
    return extractor.extract_text(training_document(bundle))


def extract_test_features(extractor: FeatureExtractor, bundle: DataBundle,
                          sources: Iterable[ReportSource] = TEST_TIME_SOURCES,
                          ) -> frozenset[str]:
    """Features of *bundle* as seen at classification time."""
    return extractor.extract_text(test_document(bundle, sources))


def complaint_document(complaint) -> str:
    """The classification document of an ODI-style complaint (§5.4).

    Real FLAT_CMPL narratives are upper-cased — a source artifact, not
    signal — so the text is case-folded before extraction, mirroring what
    the mixed-case OEM documents look like to the extractors.  Every entry
    point classifying complaints (cross-source evaluation, the QUEST
    comparison screen) must build its document here so they cannot drift
    apart in how they normalize.
    """
    return complaint.cdescr.lower()
