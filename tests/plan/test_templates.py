"""Plan templates: literals lifted into typed parameter slots.

Statements that differ only in a literal share one cached plan and one
compiled kernel; the literal binds in at execution time.  The contract,
layer by layer:

* parameterize / bind — exactly the literals opposite an attribute, of
  a liftable type, become ``Param`` slots (in pre-order), as do the
  liftable values of an ``INSERT … VALUES`` source, and binding them
  back gives the original plan key;
* keys — :func:`plan_key` is type-exact for inline literals and for
  relation-literal rows, so ``1``, ``1.0`` and ``True`` never share a
  cache entry (the ``INSERT ... VALUES`` regression);
* execution — a template's kernel run on its values answers and
  charges exactly like the concrete plan's;
* value independence — optimizing the template and then binding gives
  the plan that optimizing the concrete plan gives;
* workbench surfaces — two statements differing in a literal share one
  ``sys_plan_cache`` row, one ``sys_kernels`` row and one plan
  fingerprint, while EXPLAIN ANALYZE labels show each statement's own
  value; every ``INSERT INTO t VALUES (…)`` of one shape shares one
  plan and one kernel; the parse cache is bounded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_plan
from repro.conformance.oracles import RelationalDifferentialOracle
from repro.core.random_instances import (
    random_algebra_expression,
    random_database,
)
from repro.core.workbench import PARSE_CACHE_SIZE, MetatheoryWorkbench
from repro.datalog.stats import EngineStatistics
from repro.errors import AlgebraError, PlanError, SchemaError
from repro.obs.metrics import MetricsRegistry
from repro.opt import Optimizer
from repro.plan import bind, canonicalize, parameterize, plan_key
from repro.plan.executor import execute_physical
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.sql_frontend import parse_sql
from repro.relational.types import INTEGER, STRING

from ..treewalk import dml_delta

NAN = float("nan")


def eq(attr, value):
    return ra.Comparison(ra.Attr(attr), "=", ra.Const(value))


def select(name, condition):
    return ra.Selection(ra.RelationRef(name), condition)


def small_db(r_rows=(), s_rows=()):
    return Database(
        [
            Relation(RelationSchema("r", ("a", "b")), r_rows),
            Relation(RelationSchema("s", ("c", "d")), s_rows),
        ]
    )


def customers(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return MetatheoryWorkbench(
        Database.from_dict(
            {
                "customer": (
                    ("cid", "cname"),
                    [(i, "c%d" % i) for i in range(100)],
                ),
                "orders": (
                    ("oid", "ocid"),
                    [(i, i % 100) for i in range(300)],
                ),
            }
        ),
        **kwargs,
    )


def point(key):
    return "SELECT cname FROM customer WHERE cid = %s" % key


class TestParam:
    def test_equal_by_slot_and_type(self):
        assert ra.Param(0, int) == ra.Param(0, int)
        assert hash(ra.Param(0, int)) == hash(ra.Param(0, int))
        assert ra.Param(0, int) != ra.Param(0, str)
        assert ra.Param(0, int) != ra.Param(0, bool)
        assert ra.Param(0, int) != ra.Param(1, int)
        assert ra.Param(0, int).attributes() == set()
        assert str(ra.Param(2, str)) == "$2:str"

    def test_unbound_param_refuses_to_resolve(self):
        condition = ra.Comparison(ra.Attr("a"), "=", ra.Param(0, int))
        with pytest.raises(AlgebraError, match="unbound parameter"):
            condition.compile(RelationSchema("r", ("a", "b")))

    @pytest.mark.parametrize("op", ["=", "<"])
    def test_unbound_template_refuses_to_execute(self, op):
        # "=" plans an index lookup keyed on the slot, "<" a filter.
        db = small_db([(1, 2)])
        template, _values = parameterize(
            select("r", ra.Comparison(ra.Attr("a"), op, ra.Const(1)))
        )
        with pytest.raises(AlgebraError, match="unbound parameter"):
            execute_physical(template, db)


class TestParameterize:
    def test_lifts_literals_opposite_an_attribute(self):
        condition = ra.And(
            eq("a", 1),
            ra.Comparison(ra.Const(2.5), "<", ra.Attr("b")),
            ra.Not(ra.Comparison(ra.Attr("b"), "!=", ra.Const("x"))),
            ra.Or(eq("a", True), eq("b", -3)),
        )
        template, values = parameterize(select("r", condition))
        assert values == (1, 2.5, "x", True, -3)
        assert [type(v) for v in values] == [int, float, str, bool, int]
        assert str(template.condition) == (
            "a = $0:int AND $1:float < b AND NOT (b != $2:str) AND "
            "(a = $3:bool OR b = $4:int)"
        )

    @pytest.mark.parametrize(
        "condition",
        [
            ra.Comparison(ra.Const(1), "=", ra.Const(1)),
            eq("a", NAN),
            eq("a", None),
            eq("a", (1, 2)),
            eq("a", b"x"),
            ra.Comparison(ra.Attr("a"), "<", ra.Attr("b")),
        ],
        ids=["const-const", "nan", "none", "tuple", "bytes", "attr-attr"],
    )
    def test_other_literals_stay_inline(self, condition):
        plan = select("r", condition)
        template, values = parameterize(plan)
        assert values == ()
        assert template is plan

    def test_relation_literals_stay_inline(self):
        rows = Relation(RelationSchema("v", ("a", "b")), [(1, "p")])
        plan = ra.Union(ra.RelationRef("r"), ra.ConstantRelation(rows))
        assert parameterize(plan) == (plan, ())

    def test_theta_join_conditions_lift(self):
        plan = ra.ThetaJoin(
            ra.RelationRef("r"),
            ra.RelationRef("s"),
            ra.And(
                ra.Comparison(ra.Attr("b"), "=", ra.Attr("c")),
                eq("d", 3),
            ),
        )
        template, values = parameterize(plan)
        assert values == (3,)
        assert template.condition.parts[1].right == ra.Param(0, int)

    def test_slots_number_conditions_in_preorder(self):
        plan = ra.Selection(
            ra.ThetaJoin(
                select("r", eq("a", 1)),
                ra.RelationRef("s"),
                ra.And(
                    ra.Comparison(ra.Attr("b"), "=", ra.Attr("c")),
                    eq("d", 2),
                ),
            ),
            eq("b", 4),
        )
        _template, values = parameterize(plan)
        assert values == (4, 2, 1)

    def test_literal_only_variants_share_a_template(self):
        first, first_values = parameterize(select("r", eq("a", 41)))
        second, second_values = parameterize(select("r", eq("a", 42)))
        assert plan_key(first) == plan_key(second)
        assert (first_values, second_values) == ((41,), (42,))

    def test_each_literal_type_gets_its_own_template(self):
        keys = {
            plan_key(parameterize(select("r", eq("a", value)))[0])
            for value in (42, "42", 42.0, True)
        }
        assert len(keys) == 4

    def test_bind_restores_the_concrete_plan(self):
        plan = ra.Projection(
            ra.ThetaJoin(
                select("r", ra.And(eq("a", 1), eq("b", "x"))),
                ra.RelationRef("s"),
                ra.Comparison(ra.Attr("d"), ">=", ra.Const(2.5)),
            ),
            ("a", "c"),
        )
        template, values = parameterize(plan)
        assert plan_key(bind(template, values)) == plan_key(plan)
        assert bind(template, ()) is template

    def test_non_canonical_plans_are_rejected(self):
        with pytest.raises(PlanError):
            parameterize(parse_sql("SELECT x.a FROM r x WHERE x.a = 1"))


class TestTypeExactKeys:
    def test_inline_literals_key_by_type(self):
        keys = {
            plan_key(select("r", eq("a", value)))
            for value in (1, 1.0, True)
        }
        assert len(keys) == 3

    def test_relation_literal_rows_key_by_type(self):
        def values(row):
            return ra.ConstantRelation(
                Relation(RelationSchema("v", ("a", "b")), [row])
            )

        assert plan_key(values((1, "p"))) != plan_key(values((1.0, "p")))
        assert plan_key(values((1, "p"))) == plan_key(values((1, "p")))

    @pytest.mark.parametrize("executor", [True, "compiled"])
    def test_values_insert_keeps_its_literal_type(self, executor):
        # 1 == 1.0, and a VALUES source reads no relation, so no write
        # ever invalidates its plan: only a type-exact key keeps the
        # second INSERT off the first one's plan (and its integer row).
        wb = MetatheoryWorkbench.from_dict({"t": (("a", "b"), [])})
        wb.run("INSERT INTO t VALUES (1, 'p')", executor=executor)
        wb.run("DELETE FROM t WHERE a = 1", executor=executor)
        wb.run("INSERT INTO t VALUES (1.0, 'p')", executor=executor)
        [(a, b)] = wb.db["t"].tuples
        assert (type(a), a, b) == (float, 1.0, "p")


def run_both(plan, db):
    """Kernel runs of ``plan``, of its template bound back, and of the
    template on its values, each on an index-cold copy of ``db``:
    ``[(relation, stats, peak), ...]``."""
    template, values = parameterize(plan)
    runs = []
    for run in (
        lambda d, s: execute_physical(plan, d, s),
        lambda d, s: execute_physical(bind(template, values), d, s),
        lambda d, s: compile_plan(template, d.schema()).execute(
            d, s, values
        ),
    ):
        stats = EngineStatistics()
        relation, tally = run(copy(db), stats)
        runs.append((relation, stats.as_dict(), tally.peak_buffer))
    return runs


def copy(db):
    return Database(
        [Relation(r.schema, r.tuples, validate=False) for r in db.relations()]
    )


CELLS = st.sampled_from([0, 1, 2, 1.0, 2.5, True, False, "x", "1"])
LITERALS = st.one_of(
    CELLS, st.sampled_from([NAN, None, (1, 2), -1, 0.0, "y"])
)


@st.composite
def conditions(draw, attrs):
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        literal = ra.Const(draw(LITERALS))
        attr = ra.Attr(draw(st.sampled_from(attrs)))
        op = draw(st.sampled_from(["=", "=", "!=", "<", ">="]))
        if draw(st.booleans()):
            parts.append(ra.Comparison(attr, op, literal))
        else:
            parts.append(ra.Comparison(literal, op, attr))
    if len(parts) == 1:
        return parts[0]
    return (ra.And if draw(st.booleans()) else ra.Or)(*parts)


ROWS = st.lists(st.tuples(CELLS, CELLS), max_size=10)


class TestExecution:
    @settings(max_examples=120, deadline=None)
    @given(r_rows=ROWS, s_rows=ROWS, data=st.data())
    def test_template_runs_like_the_concrete_plan(self, r_rows, s_rows,
                                                  data):
        db = small_db(r_rows, s_rows)
        selected = ra.Selection(
            ra.Rename(ra.RelationRef("r"), {"a": "x"}),
            data.draw(conditions(["x", "b"])),
        )
        joined = ra.ThetaJoin(
            selected,
            ra.RelationRef("s"),
            ra.And(
                ra.Comparison(ra.Attr("b"), "=", ra.Attr("c")),
                data.draw(conditions(["x", "d"])),
            ),
        )
        for expr in (selected, ra.Projection(joined, ("x", "d"))):
            plan = canonicalize(expr, db.schema())
            runs = run_both(plan, db)
            for run in runs[1:]:
                assert run == runs[0], plan

    def test_compiled_parameters_are_prologue_locals(self):
        db = small_db([(i, i % 3) for i in range(9)])
        template, values = parameterize(
            select("r", ra.And(eq("b", 1), ra.Comparison(
                ra.Attr("a"), ">", ra.Const(2))))
        )
        kernel = compile_plan(template, db.schema())
        lines = kernel.source.splitlines()
        assert lines[:4] == [
            "def kernel(_db, _tally, _params):",
            "    try:",
            "        _p0 = _params[0]",
            "        _p1 = _params[1]",
        ]
        assert not any("_params[" in line for line in lines[4:])
        result, _tally = kernel.execute(db, params=values)
        assert result.tuples == {(4, 1), (7, 1)}
        result, _tally = kernel.execute(db, params=(2, 6))
        assert result.tuples == {(8, 2)}

    def test_execute_compiled_runs_the_template(self):
        # One-shot execution runs the concrete plan; the template's
        # kernel runs on its values.
        db = small_db([(i, i % 3) for i in range(9)])
        plan = select("r", eq("b", 2))
        result, _tally = execute_physical(plan, db)
        assert result.tuples == {(2, 2), (5, 2), (8, 2)}
        template, values = parameterize(plan)
        kernel = compile_plan(template, db.schema())
        assert kernel.execute(db, params=values)[0] == result


class TestValueIndependence:
    """``bind(optimize(template), values)`` is ``optimize(plan)``: the
    optimizer reads no lifted value."""

    def assert_independent(self, expr, db):
        optimizer = Optimizer()
        schema = db.schema()
        plan = canonicalize(expr, schema)
        template, values = parameterize(plan)
        via_template = canonicalize(optimizer.optimize(template, db), schema)
        direct = canonicalize(optimizer.optimize(plan, db), schema)
        assert plan_key(bind(via_template, values)) == plan_key(direct)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_expressions(self, seed):
        db = random_database(num_relations=3, rows=8, seed=seed)
        expr = random_algebra_expression(db, seed=seed, size=1 + seed % 6)
        self.assert_independent(expr, db)

    def test_values_source(self):
        db = small_db()
        self.assert_independent(values_source((1, "p"), (2.5, None)), db)

    @pytest.mark.parametrize("value", [0, 1, 2, 4])
    def test_selection_under_a_join_chain(self, value):
        db = small_db(
            [(i % 5, i) for i in range(30)], [(i, i % 3) for i in range(20)]
        )
        expr = ra.NaturalJoin(
            ra.NaturalJoin(
                select("r", eq("a", value)),
                ra.Rename(ra.RelationRef("s"), {"c": "b"}),
            ),
            ra.Rename(ra.RelationRef("s"), {"c": "d", "d": "e"}),
        )
        self.assert_independent(expr, db)


class TestWorkbenchSurfaces:
    def test_one_plan_cache_row_with_one_hit(self):
        wb = customers()
        assert wb.sql(point(41)).tuples == {("c41",)}
        assert wb.sql(point(42)).tuples == {("c42",)}
        [row] = wb.db["sys_plan_cache"].tuples
        _entry, _fp, hits, _kernel = row
        assert hits == 1

    def test_one_kernel_after_two_compiled_runs(self):
        wb = customers()
        assert wb.run(point(41), executor="compiled").tuples == {("c41",)}
        assert wb.run(point(42), executor="compiled").tuples == {("c42",)}
        assert len(wb.db["sys_kernels"].tuples) == 1
        assert wb.kernel_cache.stats()["codegens"] == 1

    def test_query_log_records_share_the_fingerprint(self):
        wb = customers(history=True)
        wb.sql(point(41))
        wb.sql(point(42))
        log = wb.sql("SELECT text, plan_fingerprint FROM sys_query_log")
        fingerprints = {
            fingerprint
            for text, fingerprint in log.tuples
            if text in (point(41), point(42))
        }
        assert len(fingerprints) == 1 and None not in fingerprints

    def test_explain_shows_the_hit_and_its_own_value(self):
        wb = customers()
        wb.sql(point(41))
        explained = wb.explain_analyze(point(42))
        assert explained.plan_cache_hit is True
        assert "plan_cache=hit" in explained.render()
        assert "IndexLookup(customer)[cid = 42]" in explained.operators()
        assert "$0" not in explained.render()
        assert explained.result.tuples == {("c42",)}

    def test_a_literal_of_another_type_gets_its_own_entry(self):
        wb = customers()
        wb.sql(point(41))
        assert wb.sql(point("'42'")).tuples == set()
        assert len(wb.db["sys_plan_cache"].tuples) == 2
        assert wb.plan_cache.stats()["hits"] == 0

    def test_every_front_end_binds_its_own_value(self):
        wb = customers()
        for executor in (True, "compiled"):
            for key in (3, 4):
                assert wb.run(
                    "{(n) | customer(%d, n)}" % key, executor=executor
                ).tuples == {("c%d" % key,)}
                assert wb.run(
                    ra.Projection(select("orders", eq("ocid", key)),
                                  ("oid",)),
                    executor=executor,
                ).tuples == {(key,), (key + 100,), (key + 200,)}

    def test_dml_sources_bind_their_values(self):
        wb = customers()
        wb.db.add(Relation(RelationSchema("vip", ("cid", "cname")), []))
        for key in (5, 6):
            wb.sql(
                "INSERT INTO vip SELECT cid, cname FROM customer"
                " WHERE cid = %d" % key
            )
        assert wb.db["vip"].tuples == {(5, "c5"), (6, "c6")}
        # The source reads customer only, so the write to vip keeps its
        # template: the second statement was a hit.
        assert wb.plan_cache.stats()["hits"] == 1

    def test_a_write_invalidates_the_template(self):
        wb = customers()
        wb.sql(point(41))
        wb.sql("DELETE FROM customer WHERE cid = 99")
        assert wb.sql(point(42)).tuples == {("c42",)}
        assert wb.plan_cache.stats()["hits"] == 0

    def test_lowered_datalog_rules_share_a_kernel(self):
        wb = customers()
        answers = [
            wb.run("name(N) :- customer(%d, N)." % key).get("name")
            for key in (7, 8)
        ]
        assert answers == [{("c7",)}, {("c8",)}]
        assert wb.kernel_cache.stats()["codegens"] == 1


def values_source(*rows):
    return ra.ConstantRelation(
        Relation(RelationSchema("values", ("a", "b")), rows)
    )


def targets(**kwargs):
    """A workbench over an empty ``t(a: INTEGER, b: STRING)``."""
    kwargs.setdefault("metrics", MetricsRegistry())
    schema = RelationSchema("t", ("a", "b"), (INTEGER, STRING))
    return MetatheoryWorkbench(Database([Relation(schema, [])]), **kwargs)


class TestValuesTemplates:
    """An ``INSERT … VALUES`` source is a literal relation; its values
    lift into parameter slots like condition literals."""

    def test_one_shape_one_plan_and_one_kernel(self):
        wb = targets()
        wb.sql("INSERT INTO t VALUES (1, 'a')")
        wb.sql("INSERT INTO t VALUES (2, 'b')")
        assert wb.db["t"].tuples == {(1, "a"), (2, "b")}
        assert len(wb.db["sys_plan_cache"].tuples) == 1
        assert len(wb.db["sys_kernels"].tuples) == 1
        assert wb.kernel_cache.stats()["codegens"] == 1
        assert wb.plan_cache.stats()["hits"] == 1

    def test_each_value_type_gets_its_own_entry(self):
        wb = MetatheoryWorkbench.from_dict({"t": (("a", "b"), [])})
        wb.sql("INSERT INTO t VALUES (1, 'a')")
        wb.sql("INSERT INTO t VALUES (1.0, 'a')")
        assert len(wb.db["sys_plan_cache"].tuples) == 2
        # SQL has no boolean literal; the algebra front-end has.  Every
        # front end is planned by one optimizer, so an int or float
        # VALUES row shares the SQL statement's entry.
        rows = [(1, "a"), (1.0, "a"), (True, "a"), (2, "b")]
        served = [wb.algebra(values_source(row)).tuples for row in rows]
        assert [
            [(type(a), a, b) for a, b in answer] for answer in served
        ] == [[(type(a), a, b)] for a, b in rows]
        assert len(wb.db["sys_plan_cache"].tuples) == 3
        assert wb.plan_cache.stats()["hits"] == 3

    def test_nan_and_none_stay_inline(self):
        template, values = parameterize(values_source((NAN, "a")))
        [row] = template.relation.tuples
        assert row[0] is NAN and row[1] == ra.Param(0, str)
        assert values == ("a",)
        template, values = parameterize(values_source((None, 7)))
        assert template.relation.tuples == {(None, ra.Param(0, int))}
        assert values == (7,)
        plan = values_source((None, None))
        assert parameterize(plan) == (plan, ())
        # Rows that differ only in a lifted value share a template.
        wb = MetatheoryWorkbench.from_dict({"t": (("a", "b"), [])})
        for value in (7, 8):
            wb.algebra(values_source((None, value)))
        assert wb.plan_cache.stats()["hits"] == 1
        assert wb.kernel_cache.stats()["codegens"] == 1

    def test_two_rows_are_their_own_shape(self):
        wb = targets()
        wb.sql("INSERT INTO t VALUES (1, 'a')")
        wb.sql("INSERT INTO t VALUES (2, 'b'), (3, 'c')")
        wb.sql("INSERT INTO t VALUES (4, 'd'), (5, 'e')")
        assert len(wb.db["t"]) == 5
        assert len(wb.db["sys_plan_cache"].tuples) == 2
        assert wb.kernel_cache.stats()["codegens"] == 2
        assert wb.plan_cache.stats()["hits"] == 1

    @pytest.mark.parametrize("executor", [True, False])
    def test_a_row_outside_the_domain_still_raises(self, executor):
        # ``False``: the delta the tree walk of the same cached plan
        # computes meets the same validation, applied and staged.
        wb = targets()
        wb.sql("INSERT INTO t VALUES (1, 'a')")
        bad = "INSERT INTO t VALUES ('x', 'b')"
        if executor:
            with pytest.raises(SchemaError):
                wb.sql(bad)
            with pytest.raises(SchemaError):
                with wb.begin() as txn:
                    txn.sql(bad)
        else:
            inserted, deleted, _matched = dml_delta(wb, bad)
            assert inserted
            with pytest.raises(SchemaError):
                wb.db.apply_delta(
                    "t", insert_rows=inserted, delete_rows=deleted
                )
            with pytest.raises(SchemaError):
                wb.db["t"].with_delta(inserted, deleted)
        assert wb.db["t"].tuples == {(1, "a")}

    def test_template_leg_covers_a_values_source(self):
        # The relational-differential template leg: the case twice and
        # an active-domain sibling through one workbench share the
        # template and its kernel, and the optimized template binds to
        # the optimized concrete plan.
        db = small_db([(1, "p"), (2, "q")], [(3, 4)])
        template, values = parameterize(values_source((1, "q")))
        assert values == (1, "q")
        assert RelationalDifferentialOracle._template_leg(
            0, db, template, values
        ) == []


class TestParseCacheBound:
    def test_fifo_bound_and_explain_flags_after_eviction(self):
        def text(n):
            return "SELECT cname FROM customer WHERE cid = %d" % n

        wb = customers()
        for n in range(PARSE_CACHE_SIZE + 5):
            wb.sql(text(n))
        assert len(wb._parse_cache) == PARSE_CACHE_SIZE
        assert wb.explain_analyze(text(0)).parse_cache_hit is False
        assert wb.explain_analyze(text(0)).parse_cache_hit is True
        assert wb.explain_analyze(text(PARSE_CACHE_SIZE)).parse_cache_hit
        assert len(wb._parse_cache) == PARSE_CACHE_SIZE
