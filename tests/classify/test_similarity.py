"""Unit and property tests for similarity measures."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.classify import (SIMILARITIES, cosine, dice, get_similarity,
                            jaccard, overlap)

A = frozenset({"a", "b", "c"})
B = frozenset({"b", "c", "d", "e"})
EMPTY = frozenset()


def on_sets(fn, a, b):
    """*fn* applied to two feature sets through its count signature."""
    return fn(len(a & b), len(a), len(b))


class TestJaccard:
    def test_known_value(self):
        assert on_sets(jaccard, A, B) == pytest.approx(2 / 5)

    def test_identical_sets(self):
        assert on_sets(jaccard, A, A) == 1.0

    def test_disjoint(self):
        assert on_sets(jaccard, A, frozenset({"x"})) == 0.0

    def test_empty(self):
        assert on_sets(jaccard, EMPTY, EMPTY) == 0.0
        assert on_sets(jaccard, A, EMPTY) == 0.0


class TestOverlap:
    def test_known_value(self):
        assert on_sets(overlap, A, B) == pytest.approx(2 / 3)

    def test_subset_scores_one(self):
        assert on_sets(overlap, frozenset({"b", "c"}), B) == 1.0

    def test_empty(self):
        assert on_sets(overlap, EMPTY, A) == 0.0


class TestExtensions:
    def test_dice(self):
        assert on_sets(dice, A, B) == pytest.approx(4 / 7)
        assert on_sets(dice, EMPTY, EMPTY) == 0.0

    def test_cosine(self):
        assert on_sets(cosine, A, B) == pytest.approx(2 / (3 * 4) ** 0.5)
        assert on_sets(cosine, EMPTY, A) == 0.0


class TestRegistry:
    def test_all_registered(self):
        assert set(SIMILARITIES) == {"jaccard", "overlap", "dice", "cosine"}

    def test_get_by_name(self):
        assert get_similarity("jaccard") is jaccard

    def test_get_passthrough(self):
        assert get_similarity(jaccard) is jaccard

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown similarity"):
            get_similarity("euclid")


sets = st.frozensets(st.sampled_from("abcdefgh"), max_size=8)


@given(sets, sets)
def test_measures_are_bounded_and_symmetric(a, b):
    for name, fn in SIMILARITIES.items():
        value = on_sets(fn, a, b)
        assert 0.0 <= value <= 1.0, name
        assert on_sets(fn, a, b) == pytest.approx(on_sets(fn, b, a)), name


@given(sets)
def test_self_similarity_is_one_for_nonempty(a):
    for name, fn in SIMILARITIES.items():
        if a:
            assert on_sets(fn, a, a) == pytest.approx(1.0), name


@given(sets, sets)
def test_jaccard_le_dice_le_overlap_ordering(a, b):
    # |A∩B|/|A∪B| <= 2|A∩B|/(|A|+|B|) <= |A∩B|/min(|A|,|B|)
    if a and b:
        assert on_sets(jaccard, a, b) <= on_sets(dice, a, b) + 1e-12
        assert on_sets(dice, a, b) <= on_sets(overlap, a, b) + 1e-12
