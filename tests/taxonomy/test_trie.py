"""Unit and property tests for the token trie."""

from hypothesis import given
from hypothesis import strategies as st

from repro.taxonomy import TokenTrie


class TestInsertLookup:
    def test_insert_and_lookup(self):
        trie = TokenTrie()
        assert trie.insert(("mud", "guard"), "c1")
        assert trie.lookup(("mud", "guard")) == "c1"
        assert trie.lookup(("mud",)) is None
        assert ("mud", "guard") in trie
        assert ("mud",) not in trie

    def test_first_value_wins(self):
        trie = TokenTrie()
        assert trie.insert(("fan",), "first")
        assert not trie.insert(("fan",), "second")
        assert trie.lookup(("fan",)) == "first"

    def test_empty_phrase_ignored(self):
        trie = TokenTrie()
        assert not trie.insert((), "x")
        assert len(trie) == 0

    def test_len(self):
        trie = TokenTrie()
        trie.insert(("a",), 1)
        trie.insert(("a", "b"), 2)
        trie.insert(("c",), 3)
        assert len(trie) == 3

    def test_prefix_is_not_member(self):
        trie = TokenTrie()
        trie.insert(("a", "b", "c"), 1)
        assert ("a", "b") not in trie
        assert trie.lookup(("a", "b")) is None


class TestLongestMatch:
    def trie(self):
        trie = TokenTrie()
        trie.insert(("window",), "W")
        trie.insert(("window", "lifter"), "WL")
        trie.insert(("window", "lifter", "switch"), "WLS")
        trie.insert(("switch",), "S")
        return trie

    def test_prefers_longest(self):
        tokens = ("window", "lifter", "switch", "broken")
        assert self.trie().longest_match(tokens, 0) == (3, "WLS")

    def test_match_from_offset(self):
        tokens = ("the", "window", "lifter")
        assert self.trie().longest_match(tokens, 1) == (2, "WL")

    def test_no_match(self):
        assert self.trie().longest_match(("engine",), 0) is None

    def test_partial_prefix_falls_back(self):
        # "window lifter arm" matches "window lifter", not WLS
        tokens = ("window", "lifter", "arm")
        assert self.trie().longest_match(tokens, 0) == (2, "WL")


class TestIterMatches:
    def test_left_bounded_greedy(self):
        trie = TokenTrie()
        trie.insert(("window", "lifter"), "WL")
        trie.insert(("lifter", "switch"), "LS")
        tokens = ("window", "lifter", "switch")
        # greedy takes WL first; "switch" alone is not a phrase here
        assert list(trie.iter_matches(tokens)) == [(0, 2, "WL")]

    def test_enclosed_matches_eliminated(self):
        trie = TokenTrie()
        trie.insert(("mud", "guard"), "MG")
        trie.insert(("guard",), "G")
        assert list(trie.iter_matches(("mud", "guard"))) == [(0, 2, "MG")]

    def test_sequential_matches(self):
        trie = TokenTrie()
        trie.insert(("fan",), "F")
        trie.insert(("broken",), "B")
        matches = list(trie.iter_matches(("fan", "totally", "broken")))
        assert matches == [(0, 1, "F"), (2, 1, "B")]

    def test_iter_phrases_sorted(self):
        trie = TokenTrie()
        trie.insert(("b",), 2)
        trie.insert(("a", "x"), 1)
        assert [phrase for phrase, _ in trie.iter_phrases()] == [("a", "x"), ("b",)]


@given(st.lists(st.tuples(st.lists(st.sampled_from("abcd"), min_size=1,
                                   max_size=3).map(tuple),
                          st.integers()), max_size=20))
def test_lookup_returns_first_inserted_value(entries):
    trie = TokenTrie()
    first_values = {}
    for phrase, value in entries:
        trie.insert(phrase, value)
        first_values.setdefault(phrase, value)
    for phrase, expected in first_values.items():
        assert trie.lookup(phrase) == expected


@given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(tuple),
                max_size=10),
       st.lists(st.sampled_from("abc"), max_size=12).map(tuple))
def test_iter_matches_never_overlaps(phrases, tokens):
    trie = TokenTrie()
    for phrase in phrases:
        trie.insert(phrase, phrase)
    previous_end = 0
    for start, length, _ in trie.iter_matches(tokens):
        assert start >= previous_end
        assert length >= 1
        previous_end = start + length
        assert previous_end <= len(tokens)


def reference_scan(trie, tokens):
    """Left-bounded greedy longest match tried at every position."""
    position, found = 0, []
    while position < len(tokens):
        match = trie.longest_match(tokens, position)
        if match is None:
            position += 1
            continue
        found.append((position, *match))
        position += match[0]
    return found


@given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3).map(tuple),
                max_size=10),
       st.lists(st.sampled_from("abcde"), max_size=16).map(tuple))
def test_iter_matches_equals_scan_from_every_position(phrases, tokens):
    trie = TokenTrie()
    for phrase in phrases:
        trie.insert(phrase, phrase)
    assert list(trie.iter_matches(tokens)) == reference_scan(trie, tokens)
