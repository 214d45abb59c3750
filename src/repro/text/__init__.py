"""Linguistic preprocessing: tokenizer, language id, stopwords (§4.4, Fig 8)."""

from .language import (ENGLISH, GERMAN, UNKNOWN, LanguageDetector,
                       LanguageGuess, detect_language, score_language)
from .compound import (CompoundSplitter, splitter_from_taxonomy)
from .normalize import (fold_umlauts, normalize_phrase, normalize_token,
                        normalized_tokens)
from .stem import stem, stem_all, stem_english, stem_german
from .stopwords import (ALL_STOPWORDS, ENGLISH_STOPWORDS, GERMAN_STOPWORDS,
                        is_stopword, remove_stopwords)
from .tokenizer import TokenSpan, WhitespaceTokenizer, token_spans, tokenize

__all__ = [
    "ALL_STOPWORDS",
    "CompoundSplitter",
    "ENGLISH",
    "ENGLISH_STOPWORDS",
    "GERMAN",
    "GERMAN_STOPWORDS",
    "LanguageDetector",
    "LanguageGuess",
    "TokenSpan",
    "UNKNOWN",
    "WhitespaceTokenizer",
    "detect_language",
    "fold_umlauts",
    "is_stopword",
    "normalize_phrase",
    "normalize_token",
    "normalized_tokens",
    "remove_stopwords",
    "score_language",
    "stem",
    "stem_all",
    "stem_english",
    "splitter_from_taxonomy",
    "stem_german",
    "token_spans",
    "tokenize",
]
