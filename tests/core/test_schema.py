"""Unit tests for relations, attributes, and schemas."""

import pytest

from repro.core.schema import (
    AttributeSpec,
    DECIMAL,
    INTEGER,
    Relation,
    Schema,
    VARCHAR,
)
from repro.exceptions import SchemaError


class TestAttributeSpec:
    def test_default_width_follows_type(self):
        assert AttributeSpec("a", INTEGER).width == 4
        assert AttributeSpec("a", DECIMAL).width == 8
        assert AttributeSpec("a", VARCHAR).width == 32

    def test_explicit_width_kept(self):
        assert AttributeSpec("a", VARCHAR, width=10).width == 10

    def test_rejects_unknown_type(self):
        with pytest.raises(SchemaError):
            AttributeSpec("a", "blob")

    def test_rejects_bad_distinct_fraction(self):
        with pytest.raises(SchemaError):
            AttributeSpec("a", INTEGER, distinct_fraction=0.0)
        with pytest.raises(SchemaError):
            AttributeSpec("a", INTEGER, distinct_fraction=1.5)

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            AttributeSpec("")


class TestRelation:
    def test_attribute_order_preserved(self):
        relation = Relation("Hosp", ["S", "B", "D", "T"])
        assert relation.attribute_names == ("S", "B", "D", "T")

    def test_attribute_set_and_contains(self):
        relation = Relation("Hosp", ["S", "B"])
        assert relation.attribute_set == frozenset({"S", "B"})
        assert "S" in relation
        assert "X" not in relation

    def test_spec_lookup(self):
        relation = Relation("R", [AttributeSpec("a", INTEGER)])
        assert relation.spec("a").data_type == INTEGER
        with pytest.raises(SchemaError):
            relation.spec("missing")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ["a", "a"])

    def test_empty_relation_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", [])

    def test_negative_cardinality_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ["a"], cardinality=-1)

    def test_equality_and_hash(self):
        first = Relation("R", ["a", "b"])
        second = Relation("R", ["a", "b"])
        assert first == second
        assert hash(first) == hash(second)
        assert first != Relation("R", ["a", "c"])


class TestSchema:
    def test_add_and_lookup(self):
        schema = Schema()
        schema.add(Relation("R", ["a"]))
        assert schema.relation("R").name == "R"
        assert "R" in schema
        assert len(schema) == 1

    def test_duplicate_relation_rejected(self):
        schema = Schema()
        schema.add(Relation("R", ["a"]))
        with pytest.raises(SchemaError):
            schema.add(Relation("R", ["b"]))

    def test_global_attribute_uniqueness_enforced(self):
        schema = Schema()
        schema.add(Relation("R1", ["a", "b"]))
        with pytest.raises(SchemaError):
            schema.add(Relation("R2", ["b", "c"]))

    def test_attribute_owner_map(self):
        schema = Schema()
        schema.add(Relation("R1", ["a"]))
        schema.add(Relation("R2", ["b"]))
        assert schema.attribute_owner_map() == {"a": "R1", "b": "R2"}
        assert schema.relation_of("b").name == "R2"
        with pytest.raises(SchemaError):
            schema.relation_of("zzz")

    def test_all_attributes(self):
        schema = Schema()
        schema.add(Relation("R1", ["a"]))
        schema.add(Relation("R2", ["b"]))
        assert schema.all_attributes() == frozenset({"a", "b"})

    def test_unknown_relation_lookup(self):
        with pytest.raises(SchemaError):
            Schema().relation("nope")
