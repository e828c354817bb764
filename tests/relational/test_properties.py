"""Property-based tests for the relational substrate (hypothesis).

The algebraic laws every textbook states, checked on random instances:
set-operation algebra, join/product relationships, optimizer soundness,
and Codd-translation roundtrips.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt import Context, optimize
from repro.opt.rules import push_selections, split_selections
from repro.relational import (
    Database,
    NaturalJoin,
    Projection,
    Relation,
    RelationRef,
    RelationSchema,
    Selection,
    evaluate,
    eq,
    same_content,
)
from repro.relational.algebra import And, Attr, Comparison, Const

values = st.integers(min_value=0, max_value=4)
pairs = st.tuples(values, values)


def rel(name, attrs, rows):
    return Relation(RelationSchema(name, attrs), rows)


@st.composite
def two_compatible_relations(draw):
    rows_a = draw(st.sets(pairs, max_size=8))
    rows_b = draw(st.sets(pairs, max_size=8))
    return (
        rel("r", ("a", "b"), rows_a),
        rel("s", ("a", "b"), rows_b),
    )


class TestSetAlgebra:
    @given(two_compatible_relations())
    def test_union_commutes(self, rs):
        r, s = rs
        assert r.union(s) == s.union(r)

    @given(two_compatible_relations())
    def test_intersection_via_difference(self, rs):
        r, s = rs
        assert r.intersection(s) == r.difference(r.difference(s))

    @given(two_compatible_relations())
    def test_difference_disjoint_from_other(self, rs):
        r, s = rs
        assert not (r.difference(s).tuples & s.tuples)

    @given(two_compatible_relations())
    def test_union_absorbs_intersection(self, rs):
        r, s = rs
        assert r.union(r.intersection(s)) == r

    @given(st.sets(pairs, max_size=8))
    def test_self_difference_empty(self, rows):
        r = rel("r", ("a", "b"), rows)
        assert len(r.difference(r)) == 0


class TestJoins:
    @given(st.sets(pairs, max_size=8), st.sets(pairs, max_size=8))
    def test_join_commutes_up_to_column_order(self, rows_a, rows_b):
        r = rel("r", ("a", "b"), rows_a)
        s = rel("s", ("b", "c"), rows_b)
        assert same_content(r.natural_join(s), s.natural_join(r))

    @given(st.sets(pairs, max_size=8), st.sets(pairs, max_size=8))
    def test_semijoin_is_projected_join(self, rows_a, rows_b):
        r = rel("r", ("a", "b"), rows_a)
        s = rel("s", ("b", "c"), rows_b)
        joined = r.natural_join(s).project(("a", "b"))
        assert r.semijoin(s) == joined

    @given(st.sets(pairs, max_size=8), st.sets(pairs, max_size=8))
    def test_semijoin_antijoin_partition(self, rows_a, rows_b):
        r = rel("r", ("a", "b"), rows_a)
        s = rel("s", ("b", "c"), rows_b)
        semi = r.semijoin(s)
        anti = r.antijoin(s)
        assert semi.union(anti) == r
        assert not (semi.tuples & anti.tuples)

    @given(st.sets(pairs, max_size=6))
    def test_join_idempotent(self, rows):
        r = rel("r", ("a", "b"), rows)
        assert same_content(r.natural_join(r), r)

    @given(st.sets(pairs, max_size=6), st.sets(values.map(lambda v: (v,)), max_size=4))
    def test_division_times_divisor_contained(self, rows, divisor_rows):
        r = rel("r", ("a", "b"), rows)
        d = rel("d", ("b",), divisor_rows)
        quotient = r.divide(d)
        if divisor_rows:
            back = quotient.product(d.rename({}, name="d2")).project(("a", "b"))
            assert back.tuples <= r.tuples


@st.composite
def random_db_and_expr(draw):
    rows_r = draw(st.sets(pairs, max_size=8))
    rows_s = draw(st.sets(pairs, max_size=8))
    db = Database(
        [
            rel("r", ("a", "b"), rows_r),
            rel("s", ("b", "c"), rows_s),
        ]
    )
    expr = NaturalJoin(RelationRef("r"), RelationRef("s"))
    if draw(st.booleans()):
        const = draw(values)
        expr = Selection(expr, Comparison(Attr("a"), "=", Const(const)))
    if draw(st.booleans()):
        expr = Projection(expr, ("a", "c"))
    return db, expr


class TestOptimizerSoundness:
    @settings(max_examples=60)
    @given(random_db_and_expr())
    def test_optimize_preserves_results(self, db_expr):
        db, expr = db_expr
        assert same_content(evaluate(optimize(expr, db), db), evaluate(expr, db))

    @settings(max_examples=60)
    @given(random_db_and_expr())
    def test_pushdown_preserves_results(self, db_expr):
        db, expr = db_expr
        ctx = Context(db)
        pushed = push_selections(split_selections(expr, ctx), ctx)
        assert same_content(evaluate(pushed, db), evaluate(expr, db))


class TestCoddRoundtrip:
    @settings(max_examples=30, deadline=None)
    @given(st.sets(pairs, min_size=1, max_size=6), st.sets(pairs, max_size=6))
    def test_algebra_to_calculus_roundtrip(self, rows_r, rows_s):
        from repro.relational import algebra_to_calculus, evaluate_query

        db = Database(
            [
                rel("r", ("a", "b"), rows_r),
                rel("s", ("b", "c"), rows_s),
            ]
        )
        expr = Projection(
            NaturalJoin(RelationRef("r"), RelationRef("s")), ("a", "c")
        )
        query = algebra_to_calculus(expr, db.schema())
        assert set(evaluate_query(query, db).tuples) == set(
            evaluate(expr, db).tuples
        )

    @settings(max_examples=30, deadline=None)
    @given(st.sets(pairs, min_size=1, max_size=6))
    def test_calculus_to_algebra_on_difference_pattern(self, rows):
        from repro.relational import (
            AndF,
            Exists,
            NotF,
            Query,
            RelAtom,
            Var,
            calculus_to_algebra,
            evaluate_query,
        )

        db = Database([rel("r", ("a", "b"), rows)])
        query = Query(
            ["x"],
            AndF(
                Exists("y", RelAtom("r", [Var("x"), Var("y")])),
                NotF(Exists("z", RelAtom("r", [Var("z"), Var("x")]))),
            ),
        )
        expr = calculus_to_algebra(query, db.schema())
        assert set(evaluate(expr, db).tuples) == set(
            evaluate_query(query, db).tuples
        )
