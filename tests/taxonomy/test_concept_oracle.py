"""Bag-of-concepts extraction against the offset-keeping matcher.

``ConceptAnnotator.concept_ids`` is feature extraction's hot path: it
folds the whole text once, tokenizes without offsets and reads concept
ids straight off the trie.  ``match_text`` keeps the slow, explicit
path: one ``TokenSpan`` per token, each normalized on its own, one
``ConceptMatch`` per hit.  On any text the two must name the same
concepts in the same order, with compound splitting off and on.

The texts are arbitrary Unicode with taxonomy surface forms spliced in:
multiword phrases, umlauts and ß in every casing, hyphen and apostrophe
tokens, and letters whose case mapping changes their length.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.taxonomy import ConceptAnnotator
from repro.taxonomy.annotator import DEFAULT_CATEGORIES
from repro.text import (fold_umlauts, normalize_token, normalized_tokens,
                        token_spans, tokenize)

#: Tokens that stress normalization: umlauts and ß (upper and lower),
#: joined tokens, and letters whose lowercase or uppercase form has a
#: different length (İ, ẞ, the ﬁ ligature, the ǅ titlecase digraph).
TRICKY = ["Straße", "STRASSE", "Lüfter", "LÜFTER", "Luefter", "Kühler",
          "ÄÖÜ", "äöüß", "Kabel-Bruch", "doesn't", "geht's", "-", "'",
          "--", "İ", "ẞ", "ﬁ", "ǅ", "_", "Ä-Ö", "12", "x1"]

CASINGS = [str, str.lower, str.upper, str.title, str.swapcase]


def surface_forms(taxonomy):
    wanted = set(DEFAULT_CATEGORIES)
    return sorted({form for concept in taxonomy
                   if concept.category in wanted
                   for _, form in concept.all_surface_forms()})


@pytest.fixture(scope="module", params=[False, True],
                ids=["plain", "split-compounds"])
def annotator(request, taxonomy):
    return ConceptAnnotator(taxonomy=taxonomy,
                            split_compounds=request.param)


@pytest.fixture(scope="module")
def texts(taxonomy):
    tricky = st.sampled_from(TRICKY)
    form = st.tuples(st.sampled_from(surface_forms(taxonomy)),
                     st.sampled_from(CASINGS)).map(
        lambda pair: pair[1](pair[0]))
    piece = st.one_of(
        st.text(max_size=12), tricky, form,
        # a tricky token glued to a form: a normalization that moves a
        # token boundary splits or joins the form's first or last word
        st.tuples(tricky, form).map("".join),
        st.tuples(form, tricky).map("".join),
    )
    separator = st.sampled_from(["", " ", "  ", "-", "'", ", ", ".\n",
                                 "\t", "_", "/"])
    return st.lists(st.tuples(piece, separator), max_size=14).map(
        lambda parts: "".join(text + sep for text, sep in parts))


def test_concept_ids_equal_match_text(annotator, texts):
    @settings(max_examples=400, deadline=None)
    @given(texts)
    @example("İfan")
    @example("the LÜFTER-Motor of the Kotflügel's mud guard")
    def check(text):
        assert annotator.concept_ids(text) == [
            match.concept_id for match in annotator.match_text(text)]

    check()


def test_spliced_forms_are_found(annotator, taxonomy):
    """The oracle has matches to compare: every surface form, in any of
    the casings, yields at least one concept on its own."""
    for form in surface_forms(taxonomy)[:200]:
        for casing in CASINGS:
            assert annotator.concept_ids(casing(form)), (form, casing)


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.characters(),
                         st.sampled_from("äöüßÄÖÜ" + "".join(TRICKY)))))
@example("İ")
def test_fast_tokenizing_and_folding_equal_the_span_path(text):
    """Tokenizing without offsets (an ASCII-only pattern for ASCII text)
    finds the spans' tokens, folding before tokenizing moves no token
    boundary, and the replace-based fold equals the character table it
    replaced."""
    assert tokenize(text) == [span.text for span in token_spans(text)]
    table = str.maketrans({"ä": "ae", "ö": "oe", "ü": "ue", "ß": "ss",
                           "Ä": "Ae", "Ö": "Oe", "Ü": "Ue"})
    assert fold_umlauts(text) == text.translate(table)
    assert normalized_tokens(text) == [normalize_token(token)
                                       for token in tokenize(text)]

