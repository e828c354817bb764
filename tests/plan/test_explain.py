"""EXPLAIN ANALYZE: output shape, cache flags, and the differential pin.

Three layers of guarantees:

* shape — on a fixed three-table SQL join, the annotated tree names the
  operators, reports correct row counts, and times are *inclusive*
  (a parent's elapsed is at least each child's);
* caches — plan/parse cache flags flip from miss to hit on the second
  run, and the counters an explained run charges equal a plain run's;
* differential — explained execution returns exactly the plain result
  on the PR 2 random-algebra generator, with tracing on and off, and
  ``explain_datalog`` agrees with ``lowered_evaluate``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.random_instances import (
    random_algebra_expression,
    random_database,
)
from repro.core.workbench import MetatheoryWorkbench
from repro.datalog import EngineStatistics, FactStore, parse_program
from repro.datalog.lowering import lowered_evaluate
from repro.obs import NULL_TRACER, Tracer
from repro.plan import canonicalize, execute, run_explained
from repro.relational import Projection, RelationRef

THREE_TABLE_SQL = (
    "SELECT emp.eid, loc.name FROM emp, dept, loc "
    "WHERE emp.dept = dept.dept AND dept.loc = loc.loc"
)

CALCULUS_TEXT = "{(x) | exists d . emp(x, d)}"

DATALOG_TEXT = "colleagues(X, Y) :- emp(X, D), emp(Y, D)."


def three_table_workbench():
    return MetatheoryWorkbench.from_dict(
        {
            "emp": (("eid", "dept"), [(1, 10), (2, 10), (3, 20)]),
            "dept": (("dept", "loc"), [(10, 100), (20, 200)]),
            "loc": (("loc", "name"), [(100, "hq"), (200, "lab")]),
        }
    )


class TestShape:
    def test_operator_names_and_row_counts(self):
        wb = three_table_workbench()
        result = wb.explain_analyze(THREE_TABLE_SQL)
        assert result.kind == "sql"
        assert result.result == wb.sql(THREE_TABLE_SQL)
        operators = result.operators()
        assert operators[0] == "Result"
        # The aliased base relations on the right of each join are
        # probed through their cached indexes: only the leftmost input
        # is scanned, and an index join reports no right-side child.
        assert [op for op in operators if op.startswith("Scan(")] == [
            "Scan(emp)"
        ]
        joins = result.find("ThetaJoin:index[")
        assert len(joins) == 2
        assert all(len(join.children) == 1 for join in joins)
        assert result.report.rows == len(result.result) == 3
        # The leaf scan reports the base-table cardinality; each index
        # join probes once per left row and builds its index once.
        by_label = {r.label: r.rows for _, r in result.report.walk()}
        assert by_label["Scan(emp)"] == 3
        for join in joins:
            assert join.stats.index_probes == 3
            assert join.stats.index_builds == 1
            assert join.stats.tuples_materialized == 0

    def test_timing_is_inclusive_and_monotonic(self):
        wb = three_table_workbench()
        result = wb.explain_analyze(THREE_TABLE_SQL)
        for _, report in result.report.walk():
            assert report.elapsed >= 0.0
            for child in report.children:
                assert report.elapsed >= child.elapsed, report.label
        assert result.elapsed == result.report.elapsed

    def test_render_and_as_dict(self):
        wb = three_table_workbench()
        result = wb.explain_analyze(THREE_TABLE_SQL)
        text = result.render()
        assert text.startswith("EXPLAIN ANALYZE (sql)")
        assert "plan_cache=miss" in text and "parse_cache=miss" in text
        assert "Scan(emp)" in text and "rows=3" in text
        data = result.as_dict()
        assert data["kind"] == "sql"
        assert data["rows"] == 3
        assert data["plan"]["operator"] == "Result"
        assert data["totals"]["facts_scanned"] > 0

    def test_find_filters_by_label_prefix(self):
        wb = three_table_workbench()
        result = wb.explain_analyze(THREE_TABLE_SQL)
        scans = result.find("Scan(")
        assert {s.label for s in scans} == {"Scan(emp)"}
        assert {j.label for j in result.find("ThetaJoin:index[")} == {
            "ThetaJoin:index[emp.dept = dept.dept]",
            "ThetaJoin:index[dept.loc = loc.loc]",
        }
        assert result.find("Nope") == []

    def test_equality_selection_is_an_index_lookup(self):
        wb = three_table_workbench()
        text = "SELECT e.eid FROM emp e WHERE e.dept = 10 AND e.eid > 1"
        result = wb.explain_analyze(text)
        assert result.result == wb.sql(text, executor=False)
        (lookup,) = result.find("IndexLookup(")
        assert lookup.label == "IndexLookup(emp)[eid > 1 AND dept = 10]"
        assert lookup.children == []
        # One probe; the first use builds the index (a pass over emp)
        # and the bucket's two tuples are scanned.
        assert lookup.stats.index_probes == 1
        assert lookup.stats.index_builds == 1
        assert lookup.stats.facts_scanned == 3 + 2
        assert lookup.rows == 1
        again = wb.explain_analyze(text)
        (lookup,) = again.find("IndexLookup(")
        assert lookup.stats.index_builds == 0
        assert lookup.stats.facts_scanned == 2


class TestCachesAndStats:
    def test_cache_flags_flip_to_hit_on_second_run(self):
        wb = three_table_workbench()
        first = wb.explain_analyze(THREE_TABLE_SQL)
        assert first.plan_cache_hit is False
        assert first.parse_cache_hit is False
        second = wb.explain_analyze(THREE_TABLE_SQL)
        assert second.plan_cache_hit is True
        assert second.parse_cache_hit is True
        assert second.result == first.result
        assert wb.plan_cache.stats()["hits"] >= 1

    def test_algebra_kind_has_no_parse_cache(self):
        wb = three_table_workbench()
        result = wb.explain_analyze(Projection(RelationRef("emp"), ("eid",)))
        assert result.kind == "algebra"
        assert result.parse_cache_hit is None
        assert result.plan_cache_hit is False

    def test_explained_stats_equal_plain_stats(self):
        # Separate databases: a run warms the base relations' cached
        # indexes, and a cold run charges their builds.
        wb = three_table_workbench()
        plain_stats = EngineStatistics()
        wb.sql(THREE_TABLE_SQL, stats=plain_stats)
        fresh = three_table_workbench()
        explained_stats = EngineStatistics()
        fresh.explain_analyze(THREE_TABLE_SQL, stats=explained_stats)
        assert explained_stats == plain_stats
        assert plain_stats.index_builds == 2
        # Warm runs agree too, and charge no builds.
        warm_plain, warm_explained = EngineStatistics(), EngineStatistics()
        wb.sql(THREE_TABLE_SQL, stats=warm_plain)
        fresh.explain_analyze(THREE_TABLE_SQL, stats=warm_explained)
        assert warm_explained == warm_plain
        assert warm_plain.index_builds == 0

    def test_tracer_mirror_matches_report(self):
        tracer = Tracer()
        wb = three_table_workbench()
        result = wb.explain_analyze(THREE_TABLE_SQL, tracer=tracer)
        (execute_span,) = tracer.spans(name="execute")
        assert execute_span.attributes["kind"] == "sql"
        op_spans = [s for s in tracer.spans() if s.name.startswith("op:")]
        assert [s.name for s in op_spans] == [
            "op:%s" % label for label in result.operators()
        ]
        # Both walks are pre-order, so spans and reports pair up 1:1.
        for span, (_, report) in zip(op_spans, result.report.walk()):
            assert span.elapsed == report.elapsed
            assert span.attributes["rows"] == report.rows


class TestFrontEnds:
    def test_all_four_kinds_detected_and_explained(self):
        wb = three_table_workbench()
        cases = {
            "sql": THREE_TABLE_SQL,
            "calculus": CALCULUS_TEXT,
            "algebra": Projection(RelationRef("emp"), ("eid",)),
            "datalog": DATALOG_TEXT,
        }
        for kind, query in cases.items():
            result = wb.explain_analyze(query)
            assert result.kind == kind, query
            assert len(result.operators()) > 1

    def test_calculus_matches_query_method(self):
        wb = three_table_workbench()
        result = wb.explain_analyze(CALCULUS_TEXT)
        assert result.result == wb.calculus(CALCULUS_TEXT)
        assert result.parse_cache_hit is False
        again = wb.explain_analyze(CALCULUS_TEXT)
        assert again.parse_cache_hit is True

    def test_datalog_matches_engine(self):
        wb = three_table_workbench()
        result = wb.explain_analyze(DATALOG_TEXT)
        assert result.kind == "datalog"
        expected = wb.datalog(DATALOG_TEXT).evaluate()
        assert result.result == expected
        assert result.report.label == "Program"
        assert [c.label for c in result.report.children] == [
            "Datalog(colleagues)"
        ]
        assert result.report.children[0].rows == len(
            expected.get("colleagues")
        )

    def test_unknown_input_raises(self):
        import pytest

        wb = three_table_workbench()
        with pytest.raises(TypeError):
            wb.explain_analyze(42)
        with pytest.raises(ValueError):
            wb.explain_analyze("SELECT 1", kind="prolog")


class TestExplainDatalog:
    def test_agrees_with_lowered_evaluate(self):
        source = """
            reach2(X, Z) :- edge(X, Y), edge(Y, Z).
            popular(Y) :- edge(X, Y), edge(Z, Y), X != Z.
            """
        program, _ = parse_program(source)
        edb = FactStore({"edge": [(1, 2), (2, 3), (3, 4), (1, 3)]})
        plain = lowered_evaluate(program, edb.to_database())
        explained = MetatheoryWorkbench(edb.to_database()).explain_analyze(
            source
        )
        assert explained.result == plain
        assert explained.report.rows == plain.count()
        # The program root sums its predicate subtrees.
        for child in explained.report.children:
            assert child.label.startswith("Datalog(")
            assert explained.report.elapsed >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    db_seed=st.integers(min_value=0, max_value=10**6),
    expr_seed=st.integers(min_value=0, max_value=10**6),
    size=st.integers(min_value=1, max_value=5),
    traced=st.booleans(),
)
def test_explained_matches_plain_execution(db_seed, expr_seed, size, traced):
    """Differential pin: instrumentation never changes answers."""
    db = random_database(num_relations=3, rows=8, domain_size=5, seed=db_seed)
    expr = random_algebra_expression(db, seed=expr_seed, size=size)
    plan = canonicalize(expr, db.schema())

    plain = execute(expr, db)
    tracer = Tracer() if traced else NULL_TRACER
    stats = EngineStatistics()
    explained = run_explained(plan, db, stats=stats, tracer=tracer)
    assert explained.result == plain, expr
    assert explained.result.schema.attributes == plain.schema.attributes
    assert explained.report.rows == len(plain)
    if traced:
        assert tracer.spans(name="execute")
