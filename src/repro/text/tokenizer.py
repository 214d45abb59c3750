"""Whitespace/punctuation tokenization.

The paper deliberately uses "a simple custom whitespace-/punctuation-
tokenizer" (§4.5.2) and no further normalization (§5.1) so that the
pipeline stays language-independent.  We reproduce that: a token is a
maximal run of letters, digits, hyphens or apostrophes; punctuation is
discarded (the knowledge base excludes punctuation, §4.3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..uima import CAS, AnalysisEngine, Annotation

_TOKEN_RE = re.compile(r"[^\W_]+(?:[-'][^\W_]+)*", re.UNICODE)
#: The same pattern for ASCII text, where ``[^\W_]`` is ``[A-Za-z0-9]``;
#: a plain character class scans about a third faster.
_ASCII_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:[-'][A-Za-z0-9]+)*")


@dataclass(frozen=True)
class TokenSpan:
    """One token with its character offsets."""

    text: str
    begin: int
    end: int


def token_spans(text: str) -> list[TokenSpan]:
    """Tokenize *text* into :class:`TokenSpan` objects.

    Umlauts and other Unicode letters are kept intact; hyphenated compounds
    ("Kabel-Bruch") and apostrophes ("doesn't") stay single tokens.
    """
    return [TokenSpan(match.group(), match.start(), match.end())
            for match in _TOKEN_RE.finditer(text)]


def tokenize(text: str) -> list[str]:
    """Tokenize *text* into plain strings (offsets discarded)."""
    if text.isascii():
        return _ASCII_TOKEN_RE.findall(text)
    return _TOKEN_RE.findall(text)


class WhitespaceTokenizer(AnalysisEngine):
    """Analysis engine adding a ``Token`` annotation per token.

    The tokens arrive in text order, so they go into the CAS in one
    :meth:`~repro.uima.CAS.add_sorted` call rather than one validated
    :meth:`~repro.uima.CAS.add` each.

    Parameters:
        lowercase: store a lowercased form in the ``normalized`` feature
            (default True; matching in later steps is case-insensitive).
    """

    name = "tokenizer"

    def initialize(self) -> None:
        self._lowercase = bool(self.params.get("lowercase", True))

    def process(self, cas: CAS) -> None:
        text = cas.document_text
        pattern = _ASCII_TOKEN_RE if text.isascii() else _TOKEN_RE
        normalize = str.lower if self._lowercase else str
        cas.add_sorted([Annotation("Token", match.start(), match.end(),
                                   {"normalized": normalize(match.group())})
                        for match in pattern.finditer(text)])
