"""Compiled kernels end to end: every front-end, observably.

The workbench contract for compiled execution, its one route
(``wb.run``'s ``executor=True``, spelled ``"compiled"`` too): a plan
shape compiles on its first run and every later run reuses the kernel;
identical results to the tree walk of the same cached plan
(:mod:`tests.treewalk`) and to a one-shot kernel on every front-end,
``"compiled"`` visible as the route in the query history, the kernel's
fingerprint in ``sys_plan_cache``, kernel status in EXPLAIN ANALYZE
and ``sys_kernels``, and zero code generation on a repeated query.
"""

from repro.core.workbench import MetatheoryWorkbench
from repro.datalog.stats import EngineStatistics
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import seminaive_evaluate
from repro.obs.metrics import MetricsRegistry
from repro.opt import Optimizer, rule_names
from repro.plan import canonicalize
from repro.plan.executor import execute_physical
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.calculus import evaluate_query
from repro.relational.calculus_parser import parse_calculus
from repro.relational.sql_frontend import parse_sql

from ..treewalk import walk, walk_datalog


def make_wb(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return MetatheoryWorkbench(
        Database.from_dict(
            {
                "person": (
                    ("pid", "name"),
                    [(i, "n%d" % i) for i in range(30)],
                ),
                "likes": (
                    ("pid", "item"),
                    [(i % 30, "i%d" % (i % 7)) for i in range(60)],
                ),
            }
        ),
        **kwargs,
    )


SQL = (
    "SELECT person.name, likes.item FROM person, likes"
    " WHERE person.pid = likes.pid"
)


def streamed(wb, expr):
    """A one-shot kernel's answer for ``expr`` over ``wb``'s database."""
    relation, _tally = execute_physical(
        canonicalize(expr, wb.db.schema()), wb.db
    )
    return relation


def twice(wb, run):
    """Run a query twice: the first run compiles its kernel, the second
    reuses it.  Returns both answers and both routes."""
    first = run()
    route = wb.history.last().route
    second = run()
    return first, second, (route, wb.history.last().route)


class TestFrontEnds:
    def test_sql_compiled_matches_streaming(self):
        wb = make_wb(history=True)
        cold, compiled, routes = twice(
            wb, lambda: wb.run(SQL, executor="compiled")
        )
        assert routes == ("compiled", "compiled")
        assert compiled == cold == walk(wb, SQL)
        assert compiled == streamed(wb, parse_sql(SQL))

    def test_algebra_compiled_matches_streaming(self):
        wb = make_wb(history=True)
        expr = ra.Projection(
            ra.NaturalJoin(ra.RelationRef("person"), ra.RelationRef("likes")),
            ("name", "item"),
        )
        cold, compiled, routes = twice(
            wb, lambda: wb.run(expr, executor="compiled")
        )
        assert routes == ("compiled", "compiled")
        assert compiled == cold == walk(wb, expr)
        assert compiled == streamed(wb, expr)

    def test_calculus_compiled_matches_streaming(self):
        wb = make_wb(history=True)
        query = "{(n) | exists p . person(p, n)}"
        cold, compiled, routes = twice(
            wb, lambda: wb.run(query, executor="compiled")
        )
        assert routes == ("compiled", "compiled")
        assert compiled == cold == walk(wb, query)
        assert compiled == evaluate_query(parse_calculus(query), wb.db)

    def test_datalog_compiled_matches_lowered(self):
        wb = make_wb(history=True)
        source = "pair(N, I) :- person(P, N), likes(P, I)."
        _cold, compiled, routes = twice(
            wb, lambda: wb.run(source, executor="compiled")
        )
        assert routes == ("datalog:fixpoint", "datalog:fixpoint")
        program, _queries = parse_program(source)
        # The standalone driver runs the same lowered rule plans on
        # one-shot kernels.
        assert compiled == seminaive_evaluate(program, db=make_wb().db)
        assert compiled == walk_datalog(wb, source)

    def test_optimized_and_unoptimized_compiled_agree(self):
        # Unoptimized: the plan as written, by a no-rule optimizer.
        expr = ra.Selection(
            ra.NaturalJoin(ra.RelationRef("person"), ra.RelationRef("likes")),
            ra.Comparison(ra.Attr("item"), "=", ra.Const("i3")),
        )
        as_written = make_wb(optimizer=Optimizer(disable=rule_names()))
        assert make_wb().run(expr, executor="compiled") == as_written.run(
            expr, executor="compiled"
        )


class TestKernelReuse:
    def test_repeat_query_does_zero_codegen(self):
        wb = make_wb()
        wb.sql(SQL)
        codegens = wb.kernel_cache.stats()["codegens"]
        assert codegens == 1  # compiled on the first run
        wb.sql(SQL)
        stats = wb.kernel_cache.stats()
        assert stats["codegens"] == codegens
        assert stats["hits"] >= 1

    def test_unrelated_schema_change_keeps_kernels(self):
        # Surgical coherence: adding a relation the query never reads
        # leaves its compiled kernel hot.
        wb = make_wb()
        wb.sql(SQL)
        codegens = wb.kernel_cache.stats()["codegens"]
        assert len(wb.kernel_cache) >= 1
        wb.db.add(Relation(RelationSchema("extra", ("x",)), [(1,)]))
        wb.sql(SQL)
        stats = wb.kernel_cache.stats()
        assert stats["codegens"] == codegens
        assert stats["hits"] >= 1

    def test_reshaping_referenced_relation_invalidates_kernels(self):
        # ... but reshaping a relation the query reads drops the kernel
        # (attribute positions were compiled in) and recompiles.
        wb = make_wb()
        wb.sql(SQL)
        codegens = wb.kernel_cache.stats()["codegens"]
        wb.db.remove("likes")
        wb.db.add(
            Relation(
                RelationSchema("likes", ("pid", "item", "weight")),
                [(i % 30, "i%d" % (i % 7), i) for i in range(60)],
            )
        )
        wb.sql(SQL)
        assert wb.kernel_cache.stats()["codegens"] > codegens


class TestObservability:
    def test_explain_analyze_reports_kernel_status(self):
        # EXPLAIN ANALYZE runs the plan's cached kernel (compiling it on
        # the first sight, like any run) and reports it.
        wb = make_wb()
        explained = wb.explain_analyze(SQL)
        kernel = explained.kernel
        assert kernel["status"] == "compiled"
        assert (kernel["hits"], wb.kernel_cache.stats()["codegens"]) == (0, 1)
        assert len(kernel["fingerprint"]) == 12
        assert kernel["pipelines"] >= 1
        assert "Kernel: compiled %s" % kernel["fingerprint"] in (
            explained.render()
        )
        assert explained.as_dict()["kernel"]["status"] == "compiled"

        wb.sql(SQL)
        again = wb.explain_analyze(SQL).kernel
        assert again["fingerprint"] == kernel["fingerprint"]
        assert again["hits"] == 2
        assert wb.kernel_cache.stats()["codegens"] == 1

    def test_sys_kernels_joins_sys_plan_cache(self):
        wb = make_wb()
        wb.sql(SQL)
        joined = wb.sql(
            "SELECT kernels.status, cache.entry, cache.hits FROM"
            " sys_kernels kernels, sys_plan_cache cache WHERE"
            " kernels.plan_fingerprint = cache.kernel_fingerprint"
        )
        assert ("compiled", 0, 0) in joined.tuples  # SQL's entry

    def test_sys_metrics_publishes_kernel_cache(self):
        wb = make_wb()
        wb.sql(SQL)
        rows = wb.sql(
            "SELECT name, value FROM sys_metrics"
            " WHERE stat = 'value' AND name = 'kernel_cache_codegens'"
        )
        assert rows.tuples and all(v >= 1 for _n, v in rows.tuples)


def refuse_one_shot(monkeypatch):
    """Make one-shot kernel compilation raise: whatever still answers
    ran on a kernel from the session's cache."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a one-shot kernel ran")

    monkeypatch.setattr("repro.plan.executor.execute_physical", refuse)


class TestDefaultRoute:
    """Every query runs the cached plan's kernel, compiled on the plan
    shape's first run; the armed flight recorder runs the same kernel's
    instrumented variant."""

    def test_default_route_compiles_on_the_first_run(self, monkeypatch):
        wb = make_wb(history=True)
        refuse_one_shot(monkeypatch)
        first = wb.sql(SQL)
        assert wb.history.last().route == "compiled"
        stats = wb.kernel_cache.stats()
        assert (stats["misses"], stats["codegens"]) == (1, 1)
        [(_i, fingerprint, status, _p, hits)] = wb.db["sys_kernels"].tuples
        assert (status, hits) == ("compiled", 0)
        second = wb.sql(SQL)
        assert wb.history.last().route == "compiled"
        assert second == first == walk(wb, SQL)
        assert wb.kernel_cache.stats()["codegens"] == 1
        [(_i, _f, status, _p, hits)] = wb.db["sys_kernels"].tuples
        assert (status, hits) == ("compiled", 1)
        [row] = wb.db["sys_plan_cache"].tuples
        assert row[3] == fingerprint
        assert wb.kernel_cache.stats()["fallback_runs"] == 0

    def test_no_shared_semijoin_runs_on_its_kernel(self):
        # A semijoin with no shared attribute only asks whether its
        # right side is empty; it compiles like every canonical plan.
        # The no-rule optimizer keeps each plan as written.
        wb = make_wb(
            history=True, optimizer=Optimizer(disable=rule_names())
        )
        expr = ra.Semijoin(
            ra.RelationRef("person"),
            ra.Rename(ra.RelationRef("likes"), {"pid": "p2", "item": "it2"}),
        )
        empty = ra.Selection(
            ra.Rename(ra.RelationRef("likes"), {"pid": "p2", "item": "it2"}),
            ra.Comparison(ra.Attr("it2"), "=", ra.Const("none")),
        )
        for right in (expr.right, empty):
            for node in (ra.Semijoin, ra.Antijoin):
                query = node(ra.RelationRef("person"), right)
                _first, result, routes = twice(wb, lambda: wb.run(query))
                assert routes == ("compiled", "compiled")
                assert result == walk(wb, query)
        assert {row[2] for row in wb.db["sys_kernels"].tuples} == {
            "compiled"
        }
        assert wb.kernel_cache.stats()["codegens"] == 4

    def test_armed_recorder_still_reports_operators(self):
        wb = make_wb(slow_query_ms=0)
        for _ in range(2):
            result = wb.sql(SQL)
            record = wb.history.last()
            assert record.route == "compiled"
            assert record.instrumented and record.slow
            assert record.report is not None
            assert record.report.rows == len(result)
        assert result == walk(wb, SQL)
        # The variant hangs off the one cached kernel.
        stats = wb.kernel_cache.stats()
        assert (stats["codegens"], len(wb.kernel_cache)) == (1, 1)

    def test_dml_in_a_transaction_sees_its_own_view(self, monkeypatch):
        wb = make_wb(history=True)
        query = "SELECT item FROM likes WHERE pid = %d"
        delete = "DELETE FROM likes WHERE pid = %d"
        refuse_one_shot(monkeypatch)
        before = wb.sql(query % 3).tuples
        assert before == {("i3",), ("i5",)}
        with wb.begin() as txn:
            txn.sql(delete % 3)
            assert wb.history.last().route == "dml:delete:compiled"
            assert txn.sql(query % 3).tuples == set()
            assert wb.history.last().route == "compiled"
            assert wb.sql(query % 3).tuples == before  # not committed
        assert wb.sql(query % 3).tuples == set()

    def test_datalog_engine_reads_its_pinned_snapshot(self):
        wb = make_wb()
        text = "fan(N) :- person(P, N), likes(P, i3)."
        engine = wb.datalog(text)
        before = engine.evaluate().get("fan")
        # A standalone engine runs one-shot kernels, not the session's.
        assert len(wb.kernel_cache) == 0
        wb.sql("INSERT INTO likes VALUES (29, 'i3')")
        wb.sql("DELETE FROM likes WHERE pid = 3")
        assert engine.evaluate(stats=EngineStatistics()).get("fan") == before
        fresh = wb.datalog(text).evaluate(stats=EngineStatistics())
        assert fresh.get("fan") == (before | {("n29",)}) - {("n3",)}
        assert wb.run(text).get("fan") == fresh.get("fan")
        # The two DML statements' kernels and wb.run's one rule plan.
        assert wb.kernel_cache.stats()["codegens"] == 3


class TestLookupCost:
    """The default route pays no second walk of the plan per statement:
    the kernel lookup lives on the plan-cache entry, and the schema the
    pipeline built for canonicalization serves it."""

    def counting(self, monkeypatch, target, name):
        calls = []
        original = getattr(target, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, counted)
        return calls

    def test_repeat_statement_walks_neither_plan_nor_schema(
        self, monkeypatch
    ):
        from repro.compile import cache

        wb = make_wb()
        text = (
            "SELECT person.name FROM person, likes WHERE"
            " person.pid = likes.pid AND likes.item = 'i%d'"
        )
        wb.sql(text % 1)  # compiles
        walks = self.counting(monkeypatch, cache, "plan_key")
        schemas = self.counting(monkeypatch, Database, "schema")
        for run in range(3, 6):
            wb.sql(text % run)
        assert walks == []
        assert len(schemas) == 3  # one per run, for canonicalize
        stats = wb.kernel_cache.stats()
        assert (stats["codegens"], stats["hits"]) == (1, 3)

    def test_lookup_follows_the_schema_of_the_database_run_on(self):
        # One plan over two databases whose referenced relation has
        # another attribute order: the cached lookup still keys each
        # kernel on the shape it runs on.
        from repro.compile import KernelCache

        one = Database.from_dict({"r": (("a", "b"), [(1, 2)])})
        two = Database.from_dict({"r": (("b", "a"), [(2, 1)])})
        plan = ra.Projection(ra.RelationRef("r"), ("a",))
        cache = KernelCache()
        lookup = KernelCache.lookup_for(plan)
        for db in (one, two, one):
            kernel = cache.resolve(plan, db, db.schema(), lookup)
            assert kernel.execute(db)[0].tuples == {(1,)}
        assert cache.stats()["codegens"] == 2
        assert cache.stats()["hits"] == 1
