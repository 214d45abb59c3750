"""Unit tests for normalization helpers, including property tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.text import fold_umlauts, normalize_phrase, normalize_token, tokenize
from repro.text.normalize import _UMLAUT_MAP

#: Umlauts, ß, ASCII and arbitrary other Unicode, mixed.
_MIXED_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("äöüßÄÖÜ"),
                       st.characters(max_codepoint=127), st.characters()),
    max_size=80)


def _fold_per_character(text):
    """The original per-character transliteration, kept as the oracle."""
    return "".join(_UMLAUT_MAP.get(char, char) for char in text)


class TestFoldUmlauts:
    def test_lowercase_umlauts(self):
        assert fold_umlauts("Lüfter Gerät größer weiß") == "Luefter Geraet groesser weiss"

    def test_uppercase_umlauts(self):
        assert fold_umlauts("Ärger Öl Übel") == "Aerger Oel Uebel"

    def test_ascii_untouched(self):
        assert fold_umlauts("radio broken") == "radio broken"


class TestNormalizeToken:
    def test_case_and_umlauts(self):
        assert normalize_token("LÜFTER") == "luefter"
        assert normalize_token("Luefter") == "luefter"

    def test_idempotent_examples(self):
        for word in ("Lüfter", "RADIO", "weiß"):
            once = normalize_token(word)
            assert normalize_token(once) == once


class TestNormalizePhrase:
    def test_multiword(self):
        assert normalize_phrase("Hintere Tür klemmt") == ("hintere", "tuer", "klemmt")

    def test_punctuation_dropped(self):
        assert normalize_phrase("Kontakt, defekt!") == ("kontakt", "defekt")

    def test_empty(self):
        assert normalize_phrase("") == ()


@given(st.text(max_size=50))
def test_normalize_token_is_idempotent(text):
    once = normalize_token(text)
    assert normalize_token(once) == once


@given(st.text(max_size=80))
def test_fold_umlauts_removes_all_umlauts(text):
    folded = fold_umlauts(text)
    assert not set(folded) & set("äöüßÄÖÜ")


@given(_MIXED_TEXT)
def test_fold_umlauts_matches_per_character_reference(text):
    assert fold_umlauts(text) == _fold_per_character(text)


@given(st.text(max_size=80))
def test_tokenize_produces_no_spaces(text):
    for token in tokenize(text):
        assert " " not in token
        assert token != ""
