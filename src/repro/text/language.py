"""Lightweight language identification (German / English / unknown).

The paper's pipeline contains a Language Detector step (Fig. 8) and the
reports "are mostly a mix of German and English" (§3.2).  We identify the
language of a text span from two cheap, training-free signals:

* stopword hits against the German and English function-word lists, and
* characteristic character patterns (umlauts/ß and frequent digraphs).

This is deliberately simple — the paper's approach "primarily relies on
natural language processing steps which are language-independent", and the
detector only feeds metadata.  No stage of the QATK pipeline reads that
metadata, so :class:`LanguageDetector` is not among its default engines: a
caller who wants language labels passes it in
``QatkConfig(extra_engines=[LanguageDetector()])``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..uima import CAS, AnalysisEngine
from .stopwords import ENGLISH_STOPWORDS, GERMAN_STOPWORDS
from .tokenizer import tokenize

GERMAN = "de"
ENGLISH = "en"
UNKNOWN = "unknown"

_GERMAN_CHAR_HINTS = ("ä", "ö", "ü", "ß")
_GERMAN_PATTERNS = ("sch", "cht", "ung", "eit", "tz", "ieren")
_ENGLISH_PATTERNS = ("th", "wh", "ing ", "tion", "ough", "'s")


@dataclass(frozen=True)
class LanguageGuess:
    """Detection result: language code and a 0..1 confidence."""

    language: str
    confidence: float


def score_language(text: str) -> dict[str, float]:
    """Return raw evidence scores for German and English in *text*."""
    words = [word.lower() for word in tokenize(text)]
    if not words:
        return {GERMAN: 0.0, ENGLISH: 0.0}
    german = sum(1.0 for word in words if word in GERMAN_STOPWORDS)
    english = sum(1.0 for word in words if word in ENGLISH_STOPWORDS)
    lowered = text.lower()
    german += sum(lowered.count(hint) for hint in _GERMAN_CHAR_HINTS) * 1.5
    german += sum(lowered.count(pattern) for pattern in _GERMAN_PATTERNS) * 0.25
    english += sum(lowered.count(pattern) for pattern in _ENGLISH_PATTERNS) * 0.25
    # ambiguous words counted for both are fine: only the margin matters
    return {GERMAN: german / len(words), ENGLISH: english / len(words)}


def detect_language(text: str, *, margin: float = 0.02) -> LanguageGuess:
    """Detect the dominant language of *text*.

    Args:
        text: the text to classify.
        margin: minimal normalized score difference to prefer one language;
            below it the result is ``unknown``.
    """
    scores = score_language(text)
    german, english = scores[GERMAN], scores[ENGLISH]
    total = german + english
    if total == 0:
        return LanguageGuess(UNKNOWN, 0.0)
    if abs(german - english) < margin:
        return LanguageGuess(UNKNOWN, 0.5)
    if german > english:
        return LanguageGuess(GERMAN, german / total)
    return LanguageGuess(ENGLISH, english / total)


class LanguageDetector(AnalysisEngine):
    """Engine annotating each ``Section`` (or the whole document) with its
    language and storing the document-level result in CAS metadata.
    """

    name = "language-detector"

    def process(self, cas: CAS) -> None:
        sections = cas.select("Section")
        if sections:
            for section in sections:
                guess = detect_language(cas.covered_text(section))
                cas.annotate("Language", section.begin, section.end,
                             language=guess.language,
                             confidence=guess.confidence)
        document_guess = detect_language(cas.document_text)
        if not sections and cas.document_text:
            cas.annotate("Language", 0, len(cas.document_text),
                         language=document_guess.language,
                         confidence=document_guess.confidence)
        cas.metadata["language"] = document_guess.language
        cas.metadata["language_confidence"] = document_guess.confidence
