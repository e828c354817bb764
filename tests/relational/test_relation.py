"""Tests for Relation: construction and the physical operators."""

import pytest

from repro.errors import RelationError, SchemaError
from repro.relational.relation import Relation, same_content
from repro.relational.schema import RelationSchema


def rel(name, attrs, rows):
    return Relation(RelationSchema(name, attrs), rows)


class TestConstruction:
    def test_basic(self):
        r = rel("r", ("a", "b"), [(1, 2), (3, 4)])
        assert len(r) == 2
        assert (1, 2) in r
        assert (9, 9) not in r

    def test_duplicates_collapse(self):
        r = rel("r", ("a",), [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_from_dicts(self):
        schema = RelationSchema("r", ("a", "b"))
        r = Relation.from_dicts(schema, [{"a": 1, "b": 2}])
        assert (1, 2) in r

    def test_from_dicts_missing_key(self):
        schema = RelationSchema("r", ("a", "b"))
        with pytest.raises(RelationError):
            Relation.from_dicts(schema, [{"a": 1}])

    def test_empty(self):
        r = Relation.empty(RelationSchema("r", ("a",)))
        assert not r
        assert len(r) == 0

    def test_arity_validation(self):
        with pytest.raises(SchemaError):
            rel("r", ("a", "b"), [(1,)])

    def test_to_dicts_deterministic(self):
        r = rel("r", ("a",), [(3,), (1,), (2,)])
        assert r.to_dicts() == [{"a": 1}, {"a": 2}, {"a": 3}]

    def test_active_domain(self):
        r = rel("r", ("a", "b"), [(1, "x")])
        assert r.active_domain() == {1, "x"}

    def test_pickle_round_trips_without_cached_indexes(self):
        # The pickle must carry schema + tuples but drop the derived
        # index cache, which rebuilds lazily on the other side.
        import pickle

        r = rel("r", ("a", "b"), [(1, 2), (3, 4)])
        r._key_index((0,))  # warm an index cache
        assert r.cached_index_patterns() == [(0,)]
        clone = pickle.loads(pickle.dumps(r))
        assert clone == r
        assert clone.schema.attributes == r.schema.attributes
        assert clone.cached_index_patterns() == []
        assert clone._key_index((0,)) == r._key_index((0,))


class TestOperators:
    def setup_method(self):
        self.r = rel("r", ("a", "b"), [(1, 10), (2, 20), (3, 30)])
        self.s = rel("s", ("b", "c"), [(10, "x"), (20, "y"), (99, "z")])

    def test_select(self):
        out = self.r.select(lambda t: t[0] > 1)
        assert set(out.tuples) == {(2, 20), (3, 30)}

    def test_project(self):
        out = self.r.project(("b",))
        assert set(out.tuples) == {(10,), (20,), (30,)}
        assert out.schema.attributes == ("b",)

    def test_project_reorder(self):
        out = self.r.project(("b", "a"))
        assert (10, 1) in out

    def test_project_deduplicates(self):
        r = rel("r", ("a", "b"), [(1, 1), (1, 2)])
        assert len(r.project(("a",))) == 1

    def test_rename(self):
        out = self.r.rename({"a": "x"})
        assert out.schema.attributes == ("x", "b")
        assert set(out.tuples) == set(self.r.tuples)

    def test_union_and_difference(self):
        other = rel("r2", ("a", "b"), [(1, 10), (9, 90)])
        assert len(self.r.union(other)) == 4
        assert set(self.r.difference(other).tuples) == {(2, 20), (3, 30)}

    def test_union_incompatible(self):
        with pytest.raises(SchemaError):
            self.r.union(self.s)

    def test_intersection(self):
        other = rel("r2", ("a", "b"), [(1, 10), (9, 90)])
        assert set(self.r.intersection(other).tuples) == {(1, 10)}

    def test_product(self):
        a = rel("a", ("x",), [(1,), (2,)])
        b = rel("b", ("y",), [(3,)])
        out = a.product(b)
        assert set(out.tuples) == {(1, 3), (2, 3)}

    def test_natural_join(self):
        out = self.r.natural_join(self.s)
        assert out.schema.attributes == ("a", "b", "c")
        assert set(out.tuples) == {(1, 10, "x"), (2, 20, "y")}

    def test_join_no_shared_is_product(self):
        a = rel("a", ("x",), [(1,)])
        b = rel("b", ("y",), [(2,)])
        assert set(a.natural_join(b).tuples) == {(1, 2)}

    def test_join_all_shared_is_intersection(self):
        a = rel("a", ("x",), [(1,), (2,)])
        b = rel("b", ("x",), [(2,), (3,)])
        assert set(a.natural_join(b).tuples) == {(2,)}

    def test_semijoin(self):
        out = self.r.semijoin(self.s)
        assert set(out.tuples) == {(1, 10), (2, 20)}
        assert out.schema.attributes == ("a", "b")

    def test_antijoin(self):
        out = self.r.antijoin(self.s)
        assert set(out.tuples) == {(3, 30)}

    def test_semijoin_disjoint_schemas(self):
        a = rel("a", ("x",), [(1,)])
        nonempty = rel("b", ("y",), [(2,)])
        empty = Relation.empty(RelationSchema("b", ("y",)))
        assert a.semijoin(nonempty) == a
        assert len(a.semijoin(empty)) == 0
        assert len(a.antijoin(nonempty)) == 0
        assert a.antijoin(empty) == a

    def test_divide(self):
        r = rel("r", ("a", "b"), [(1, "x"), (1, "y"), (2, "x")])
        d = rel("d", ("b",), [("x",), ("y",)])
        assert set(r.divide(d).tuples) == {(1,)}

    def test_divide_by_empty_returns_all(self):
        r = rel("r", ("a", "b"), [(1, "x")])
        d = Relation.empty(RelationSchema("d", ("b",)))
        assert set(r.divide(d).tuples) == {(1,)}

    def test_divide_requires_proper_subset(self):
        r = rel("r", ("a", "b"), [(1, 2)])
        d = rel("d", ("a", "b"), [(1, 2)])
        with pytest.raises(SchemaError):
            r.divide(d)


class TestEquality:
    def test_equality_ignores_domains_and_name(self):
        a = rel("r", ("a",), [(1,)])
        b = rel("other", ("a",), [(1,)])
        assert a == b

    def test_same_content_ignores_order(self):
        a = rel("r", ("a", "b"), [(1, 2)])
        b = rel("r", ("b", "a"), [(2, 1)])
        assert a != b
        assert same_content(a, b)

    def test_same_content_different_attrs(self):
        a = rel("r", ("a",), [(1,)])
        b = rel("r", ("b",), [(1,)])
        assert not same_content(a, b)

    def test_pretty_renders(self):
        text = rel("r", ("a", "b"), [(1, 2)]).pretty()
        assert "a" in text and "1" in text
