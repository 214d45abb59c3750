"""Unit tests for tokenization."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text import TokenSpan, WhitespaceTokenizer, token_spans, tokenize
from repro.uima import CAS


class TestTokenize:
    def test_simple_words(self):
        assert tokenize("radio turns off") == ["radio", "turns", "off"]

    def test_punctuation_discarded(self):
        assert tokenize("Unit non-functional. Kontakt defekt, durchgeschmort!") == [
            "Unit", "non-functional", "Kontakt", "defekt", "durchgeschmort"]

    def test_umlauts_kept(self):
        assert tokenize("Lüfter funktioniert nicht") == ["Lüfter", "funktioniert", "nicht"]

    def test_hyphen_compound_single_token(self):
        assert tokenize("Kabel-Bruch") == ["Kabel-Bruch"]

    def test_apostrophe(self):
        assert tokenize("doesn't work") == ["doesn't", "work"]

    def test_numbers_and_codes(self):
        assert tokenize("id test 470 xA12") == ["id", "test", "470", "xA12"]

    def test_underscore_not_token_char(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_leading_trailing_hyphen_not_absorbed(self):
        assert tokenize("-abc-") == ["abc"]


class TestTokenSpans:
    def test_offsets_match_text(self):
        text = "Klima kühlt nicht."
        for span in token_spans(text):
            assert text[span.begin:span.end] == span.text

    def test_span_type(self):
        spans = token_spans("ab cd")
        assert spans == [TokenSpan("ab", 0, 2), TokenSpan("cd", 3, 5)]


class TestTokenizerEngine:
    def test_adds_token_annotations(self):
        cas = CAS("Radio geht nicht")
        WhitespaceTokenizer().process(cas)
        tokens = cas.select("Token")
        assert [cas.covered_text(t) for t in tokens] == ["Radio", "geht", "nicht"]
        assert tokens[0].features["normalized"] == "radio"

    def test_lowercase_disabled(self):
        cas = CAS("Radio")
        WhitespaceTokenizer(lowercase=False).process(cas)
        assert cas.select("Token")[0].features["normalized"] == "Radio"


class TestTokenizerEngineEqualsTokenize:
    """The engine's ``Token`` annotations are exactly ``tokenize``'s tokens,
    at the offsets ``token_spans`` (the Unicode pattern on any text) finds."""

    @staticmethod
    def engine_tokens(text, lowercase=True):
        cas = CAS(text)
        WhitespaceTokenizer(lowercase=lowercase).process(cas)
        tokens = cas.select("Token")
        assert [t.span for t in tokens] == [
            (span.begin, span.end) for span in token_spans(text)]
        assert [t.features["normalized"] for t in tokens] == [
            cas.covered_text(t).lower() if lowercase else cas.covered_text(t)
            for t in tokens]
        return [cas.covered_text(t) for t in tokens]

    @pytest.mark.parametrize("text", [
        "Radio turns off, id test 470 xA12.",
        "doesn't work: Kabel-Bruch near a_b -x- 12-34",
        "Lüfter funktioniert nicht, Kabel-Bruch am Stecker",
        "Spaß: doesn't start, Öl_Druck 3,5 bar; Straße--Kühler",
        "",
    ])
    def test_examples(self, text):
        assert self.engine_tokens(text) == tokenize(text)
        assert self.engine_tokens(text, lowercase=False) == tokenize(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(st.sampled_from("aZ09äöüÄß-'_ .,\n"),
                             st.characters())))
    @example("Kabel-Bruch doesn't 4_2 Über")
    def test_random_text(self, text):
        assert self.engine_tokens(text) == tokenize(text)
