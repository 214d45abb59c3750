"""Unit tests for the CAS and type system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uima import (CAS, Annotation, AnnotationError, TypeDescriptor,
                        TypeSystem, TypeSystemError, default_type_system)


class TestTypeSystem:
    def test_declare_and_get(self):
        ts = TypeSystem([TypeDescriptor("X", frozenset({"f"}))])
        assert ts.get("X").features == {"f"}
        assert "X" in ts

    def test_redeclare_identical_is_noop(self):
        ts = TypeSystem()
        descriptor = TypeDescriptor("X", frozenset({"f"}))
        ts.declare(descriptor)
        ts.declare(TypeDescriptor("X", frozenset({"f"})))
        assert ts.type_names() == ["X"]

    def test_conflicting_redeclaration(self):
        ts = TypeSystem([TypeDescriptor("X", frozenset({"f"}))])
        with pytest.raises(TypeSystemError, match="conflicting"):
            ts.declare(TypeDescriptor("X", frozenset({"g"})))

    def test_get_undeclared(self):
        with pytest.raises(TypeSystemError, match="undeclared"):
            TypeSystem().get("Nope")

    def test_feature_validation(self):
        descriptor = TypeDescriptor("X", frozenset({"a", "b"}))
        descriptor.validate_features({"a": 1})
        with pytest.raises(TypeSystemError):
            descriptor.validate_features({"c": 1})

    def test_default_type_system_has_qatk_types(self):
        ts = default_type_system()
        for name in ("Token", "Language", "ConceptMention", "Section"):
            assert name in ts


class TestAnnotation:
    def test_invalid_span(self):
        with pytest.raises(AnnotationError):
            Annotation("Token", 5, 3)
        with pytest.raises(AnnotationError):
            Annotation("Token", -1, 3)

    def test_len_and_span(self):
        annotation = Annotation("Token", 2, 6)
        assert len(annotation) == 4
        assert annotation.span == (2, 6)

    def test_covers_and_overlaps(self):
        outer = Annotation("Section", 0, 10)
        inner = Annotation("Token", 2, 5)
        disjoint = Annotation("Token", 10, 12)
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.overlaps(inner)
        assert not outer.overlaps(disjoint)


class TestCAS:
    def test_annotate_and_covered_text(self):
        cas = CAS("radio turns off")
        token = cas.annotate("Token", 0, 5, normalized="radio")
        assert cas.covered_text(token) == "radio"

    def test_add_rejects_undeclared_type(self):
        cas = CAS("text")
        with pytest.raises(TypeSystemError):
            cas.annotate("Bogus", 0, 1)

    def test_add_rejects_undeclared_feature(self):
        cas = CAS("text")
        with pytest.raises(TypeSystemError):
            cas.annotate("Token", 0, 1, bogus=1)

    def test_add_rejects_out_of_bounds(self):
        cas = CAS("abc")
        with pytest.raises(AnnotationError, match="exceeds"):
            cas.annotate("Token", 0, 4)

    def test_select_is_text_ordered(self):
        cas = CAS("a b c d")
        cas.annotate("Token", 4, 5)
        cas.annotate("Token", 0, 1)
        cas.annotate("Token", 2, 3)
        assert [a.begin for a in cas.select("Token")] == [0, 2, 4]

    def test_select_undeclared_type(self):
        with pytest.raises(TypeSystemError):
            CAS("x").select("Bogus")

    def test_select_covered_and_overlapping(self):
        cas = CAS("the fan is broken")
        section = cas.annotate("Section", 0, 7, source="mechanic")
        cas.annotate("Token", 0, 3)
        cas.annotate("Token", 4, 7)
        cas.annotate("Token", 8, 10)
        boundary = cas.annotate("Token", 6, 9)
        covered = cas.select_covered("Token", section)
        assert [a.span for a in covered] == [(0, 3), (4, 7)]
        overlapping = cas.select_overlapping("Token", section)
        assert boundary in overlapping

    def test_remove(self):
        cas = CAS("a b")
        first = cas.annotate("Token", 0, 1)
        cas.annotate("Token", 2, 3)
        cas.remove(first)
        assert cas.annotation_count("Token") == 1
        with pytest.raises(AnnotationError):
            cas.remove(first)

    def test_remove_all(self):
        cas = CAS("a b")
        cas.annotate("Token", 0, 1)
        cas.annotate("Token", 2, 3)
        assert cas.remove_all("Token") == 2
        assert cas.select("Token") == []

    def test_annotation_count(self):
        cas = CAS("a b")
        cas.annotate("Token", 0, 1)
        cas.annotate("Section", 0, 3, source="x")
        assert cas.annotation_count() == 2
        assert cas.annotation_count("Token") == 1

    def test_set_document_text_blocked_after_annotation(self):
        cas = CAS()
        cas.set_document_text("hello")
        cas.annotate("Token", 0, 5)
        with pytest.raises(AnnotationError):
            cas.set_document_text("other")

    def test_iter_all(self):
        cas = CAS("a b")
        cas.annotate("Token", 0, 1)
        cas.annotate("Section", 0, 3, source="x")
        names = [a.type_name for a in cas.iter_all()]
        assert names == ["Section", "Token"]

    def test_metadata(self):
        cas = CAS("x")
        cas.metadata["part_id"] = "P1"
        assert cas.metadata["part_id"] == "P1"


TEXT = "the fan is broken and the radio turns off"

spans = st.lists(
    st.integers(0, len(TEXT)).flatmap(
        lambda begin: st.tuples(st.just(begin),
                                st.integers(begin, len(TEXT)))),
    max_size=12)


def tokens(span_list, label):
    return [Annotation("Token", begin, end, {"normalized": f"{label}{i}"})
            for i, (begin, end) in enumerate(span_list)]


class TestAddSorted:
    """``add_sorted`` is repeated ``add`` for batches in text order."""

    @settings(max_examples=300, deadline=None)
    @given(batch=spans, existing=spans)
    def test_equals_repeated_add(self, batch, existing):
        batch = sorted(batch)
        bulk, single = CAS(TEXT), CAS(TEXT)
        for cas in (bulk, single):
            for annotation in tokens(existing, "e"):
                cas.add(annotation)
            cas.annotate("Section", 0, len(TEXT), source="x")
        bulk.add_sorted(tokens(batch, "b"))
        for annotation in tokens(batch, "b"):
            single.add(annotation)
        assert bulk.select("Token") == single.select("Token")
        assert bulk.select("Section") == single.select("Section")
        # the sort keys stay in step: a later add lands where it would
        probe = Annotation("Token", 10, 12, {"normalized": "p"})
        bulk.add(probe)
        single.add(Annotation("Token", 10, 12, {"normalized": "p"}))
        assert bulk.select("Token") == single.select("Token")

    def test_empty_batch_is_a_no_op(self):
        cas = CAS("abc")
        cas.add_sorted([])
        assert cas.annotation_count() == 0

    @staticmethod
    def assert_refused(batch, error):
        cas = CAS("a b c")
        first = cas.annotate("Token", 0, 1)
        with pytest.raises(error):
            cas.add_sorted(batch)
        assert cas.select("Token") == [first]  # nothing of the batch kept

    def test_refuses_undeclared_feature(self):
        bogus = Annotation("Token", 4, 5, {"bogus": 1})
        self.assert_refused([Annotation("Token", 2, 3), bogus],
                            TypeSystemError)
        with pytest.raises(TypeSystemError):
            CAS("a b c").add(bogus)

    def test_refuses_undeclared_type(self):
        bogus = Annotation("Bogus", 2, 3)
        self.assert_refused([bogus], TypeSystemError)
        with pytest.raises(TypeSystemError):
            CAS("a b c").add(bogus)

    def test_refuses_span_past_the_end(self):
        past = Annotation("Token", 4, 6)
        self.assert_refused([Annotation("Token", 2, 3), past],
                            AnnotationError)
        with pytest.raises(AnnotationError):
            CAS("a b c").add(past)

    def test_refuses_unsorted_batch(self):
        # add sorts, so it has no twin: the span error class add raises
        self.assert_refused([Annotation("Token", 4, 5),
                             Annotation("Token", 2, 3)], AnnotationError)
        self.assert_refused([Annotation("Token", 2, 5),
                             Annotation("Token", 2, 3)], AnnotationError)

    def test_refuses_mixed_types(self):
        # the type-system error class add raises for a type it refuses
        self.assert_refused([Annotation("Token", 2, 3),
                             Annotation("Section", 4, 5, {"source": "x"})],
                            TypeSystemError)
        self.assert_refused([Annotation("Token", 2, 3),
                             Annotation("Bogus", 4, 5)], TypeSystemError)
