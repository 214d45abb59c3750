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


def fold_umlauts(text: str) -> str:
    """Transliterate German umlauts and ß to their ASCII digraphs.

    One ``str.replace`` per umlaut: each is a C scan, where
    ``str.translate`` with multi-character replacements looks up every
    character in a dict (about 12x slower on a 500-character report).
    The digraphs contain no umlauts, so the order of replacement does
    not matter.
    """
    for umlaut, digraph in _UMLAUT_MAP.items():
        text = text.replace(umlaut, digraph)
    return text


def normalize_token(token: str) -> str:
    """Canonical matching form of a token: lowercased, umlauts folded."""
    return fold_umlauts(token).lower()


def normalized_tokens(text: str) -> list[str]:
    """The tokens of *text* in canonical matching form.

    Equal to ``[normalize_token(t) for t in tokenize(text)]``: folding
    replaces letters with letters, so folding the whole text first moves
    no token boundary, and each token is then only lowercased.  ASCII
    case mapping is one letter to one letter as well, so folded ASCII
    text is lowercased whole; elsewhere (``"İ".lower()`` has two
    characters, the second no letter) only token by token.
    """
    from .tokenizer import tokenize
    folded = fold_umlauts(text)
    if folded.isascii():
        return tokenize(folded.lower())
    return list(map(str.lower, tokenize(folded)))


def normalize_phrase(phrase: str) -> tuple[str, ...]:
    """Canonical matching form of a (possibly multiword) phrase."""
    return tuple(normalized_tokens(phrase))
