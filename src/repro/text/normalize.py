"""Light, language-independent text normalization helpers.

The classification experiments run on raw tokens (§5.1: "without further
preprocessing or normalization"), but the taxonomy annotator and the web
layers need a couple of cheap, reversible-enough normalizations: case
folding and German umlaut transliteration so that "Lüfter", "Luefter" and
"LUEFTER" map to the same surface form.
"""

from __future__ import annotations

_UMLAUT_MAP = {
    "ä": "ae", "ö": "oe", "ü": "ue", "ß": "ss",
    "Ä": "Ae", "Ö": "Oe", "Ü": "Ue",
}
_UMLAUT_TABLE = str.maketrans(_UMLAUT_MAP)


def fold_umlauts(text: str) -> str:
    """Transliterate German umlauts and ß to their ASCII digraphs."""
    return text.translate(_UMLAUT_TABLE)


def normalize_token(token: str) -> str:
    """Canonical matching form of a token: lowercased, umlauts folded."""
    return fold_umlauts(token).lower()


def normalize_phrase(phrase: str) -> tuple[str, ...]:
    """Canonical matching form of a (possibly multiword) phrase."""
    from .tokenizer import tokenize
    return tuple(normalize_token(token) for token in tokenize(phrase))
