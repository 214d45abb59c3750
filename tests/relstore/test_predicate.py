"""Unit tests for the predicate algebra."""

import dataclasses

import pytest

from repro.relstore.predicate import (ALWAYS, And, Comparison, Contains,
                                      ContainsAny, InSet, IsNull, Lambda,
                                      Not, Or, col)

ROW = {"part_id": "P07", "score": 0.75, "codes": ["E1", "E2"], "note": None}


class TestComparisons:
    def test_eq(self):
        assert (col("part_id") == "P07")(ROW)
        assert not (col("part_id") == "P08")(ROW)

    def test_ne(self):
        assert (col("part_id") != "P08")(ROW)

    def test_ordering(self):
        assert (col("score") > 0.5)(ROW)
        assert (col("score") >= 0.75)(ROW)
        assert (col("score") < 1.0)(ROW)
        assert (col("score") <= 0.75)(ROW)
        assert not (col("score") < 0.75)(ROW)

    def test_ordering_on_null_is_false(self):
        assert not (col("note") > "a")(ROW)
        assert not (col("note") < "a")(ROW)

    def test_missing_column_behaves_like_null(self):
        assert not (col("absent") == "x")(ROW)
        assert (col("absent") != "x")(ROW)

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError):
            Comparison("score", "%%", 1)(ROW)

    def test_fields_are_column_op_value(self):
        assert [field.name for field in dataclasses.fields(Comparison)] == [
            "column", "op", "value"]


class TestNullAndSets:
    def test_is_null(self):
        assert col("note").is_null()(ROW)
        assert not col("part_id").is_null()(ROW)

    def test_is_not_null(self):
        assert col("part_id").is_not_null()(ROW)

    def test_in(self):
        assert col("part_id").in_(["P01", "P07"])(ROW)
        assert not col("part_id").in_(["P01"])(ROW)

    def test_contains(self):
        assert col("codes").contains("E2")(ROW)
        assert not col("codes").contains("E9")(ROW)

    def test_contains_on_scalar_is_false(self):
        assert not col("part_id").contains("P")(ROW)

    def test_contains_any(self):
        assert col("codes").contains_any(["E9", "E1"])(ROW)
        assert not col("codes").contains_any(["E9"])(ROW)


class TestCombinators:
    def test_and_or_not(self):
        pred = (col("part_id") == "P07") & (col("score") > 0.5)
        assert pred(ROW)
        pred = (col("part_id") == "P08") | (col("score") > 0.5)
        assert pred(ROW)
        assert (~(col("part_id") == "P08"))(ROW)

    def test_always(self):
        assert ALWAYS({})

    def test_lambda(self):
        pred = Lambda(lambda row: len(row["codes"]) == 2)
        assert pred(ROW)


class TestIndexBindings:
    def test_eq_exposes_binding(self):
        assert (col("part_id") == "P07").equality_bindings() == {"part_id": "P07"}

    def test_ne_exposes_nothing(self):
        assert (col("part_id") != "P07").equality_bindings() == {}

    def test_and_merges_bindings(self):
        pred = (col("a") == 1) & (col("b") == 2)
        assert pred.equality_bindings() == {"a": 1, "b": 2}

    def test_or_exposes_nothing(self):
        pred = (col("a") == 1) | (col("b") == 2)
        assert pred.equality_bindings() == {}

    def test_contains_exposes_membership(self):
        pred = col("codes").contains("E1") & (col("part_id") == "P07")
        assert pred.membership_bindings() == {"codes": "E1"}
        assert pred.equality_bindings() == {"part_id": "P07"}

    def test_not_hides_bindings(self):
        assert Not(col("a") == 1).equality_bindings() == {}

    def test_nested_and(self):
        pred = And(((col("a") == 1) & (col("b") == 2), col("c") == 3))
        assert pred.equality_bindings() == {"a": 1, "b": 2, "c": 3}


class TestLike:
    def test_contains_pattern(self):
        from repro.relstore.predicate import Like
        assert Like("text", "%radio%")({"text": "the RADIO turns off"})
        assert not Like("text", "%radio%")({"text": "the fan hums"})

    def test_underscore_single_char(self):
        from repro.relstore.predicate import Like
        assert Like("code", "E_1")({"code": "E01"})
        assert not Like("code", "E_1")({"code": "E001"})

    def test_anchored(self):
        from repro.relstore.predicate import Like
        assert Like("code", "E%")({"code": "E123"})
        assert not Like("code", "E%")({"code": "XE123"})

    def test_non_string_is_false(self):
        from repro.relstore.predicate import Like
        assert not Like("n", "%1%")({"n": 11})
        assert not Like("n", "%1%")({"n": None})

    def test_regex_metacharacters_are_literal(self):
        from repro.relstore.predicate import Like
        assert Like("text", "%a.b%")({"text": "xx a.b yy"})
        assert not Like("text", "%a.b%")({"text": "xx aXb yy"})

    def test_fluent_builder(self):
        assert col("text").like("%fan%")({"text": "Fan broken"})

    def test_multiline_text(self):
        assert col("text").like("%zeile2%")({"text": "zeile1\nZeile2\nz3"})
