"""``executor="compiled"`` end to end: every front-end, observably.

The workbench contract for compiled execution: identical results to the
streaming executor on every front-end, ``"compiled"`` visible as the
route in the query history and ``sys_plan_cache``, kernel status in
EXPLAIN ANALYZE and ``sys_kernels``, fallbacks counted in the
``compile_fallbacks_total`` metric (and routed ``"compiled-fallback"``),
and zero code generation on a repeated query.
"""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.obs.metrics import MetricsRegistry
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


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


class TestFrontEnds:
    def test_sql_compiled_matches_streaming(self):
        wb = make_wb(history=True)
        compiled = wb.sql(SQL, executor="compiled")
        assert wb.history.last().route == "compiled"
        assert compiled == wb.sql(SQL)

    def test_algebra_compiled_matches_streaming(self):
        wb = make_wb(history=True)
        expr = ra.Projection(
            ra.NaturalJoin(ra.RelationRef("person"), ra.RelationRef("likes")),
            ("name", "item"),
        )
        compiled = wb.run(expr, executor="compiled")
        assert wb.history.last().route == "compiled"
        assert compiled == wb.run(expr)

    def test_calculus_compiled_matches_streaming(self):
        wb = make_wb(history=True)
        query = "{(n) | exists p . person(p, n)}"
        compiled = wb.calculus(query, executor="compiled")
        assert wb.history.last().route == "compiled"
        assert compiled == wb.calculus(query)

    def test_datalog_compiled_matches_lowered(self):
        wb = make_wb(history=True)
        source = "pair(N, I) :- person(P, N), likes(P, I)."
        compiled = wb.run(source, executor="compiled")
        assert wb.history.last().route == "datalog:compiled"
        baseline = make_wb().run(source)
        assert compiled == baseline

    def test_optimized_and_unoptimized_compiled_agree(self):
        wb = make_wb()
        expr = ra.Selection(
            ra.NaturalJoin(ra.RelationRef("person"), ra.RelationRef("likes")),
            ra.Comparison(ra.Attr("item"), "=", ra.Const("i3")),
        )
        assert wb.run(expr, executor="compiled") == wb.run(
            expr, executor="compiled", optimized=False
        )


class TestKernelReuse:
    def test_repeat_query_does_zero_codegen(self):
        wb = make_wb()
        wb.sql(SQL, executor="compiled")
        codegens = wb.kernel_cache.stats()["codegens"]
        assert codegens >= 1
        wb.sql(SQL, executor="compiled")
        stats = wb.kernel_cache.stats()
        assert stats["codegens"] == codegens
        assert stats["hits"] >= 1

    def test_unrelated_schema_change_keeps_kernels(self):
        # Surgical coherence: adding a relation the query never reads
        # leaves its compiled kernel hot.
        wb = make_wb()
        wb.sql(SQL, executor="compiled")
        codegens = wb.kernel_cache.stats()["codegens"]
        assert len(wb.kernel_cache) >= 1
        wb.db.add(Relation(RelationSchema("extra", ("x",)), [(1,)]))
        wb.sql(SQL, executor="compiled")
        stats = wb.kernel_cache.stats()
        assert stats["codegens"] == codegens
        assert stats["hits"] >= 1

    def test_reshaping_referenced_relation_invalidates_kernels(self):
        # ... but reshaping a relation the query reads drops the kernel
        # (attribute positions were compiled in) and recompiles.
        wb = make_wb()
        wb.sql(SQL, executor="compiled")
        codegens = wb.kernel_cache.stats()["codegens"]
        wb.db.remove("likes")
        wb.db.add(
            Relation(
                RelationSchema("likes", ("pid", "item", "weight")),
                [(i % 30, "i%d" % (i % 7), i) for i in range(60)],
            )
        )
        wb.sql(SQL, executor="compiled")
        assert wb.kernel_cache.stats()["codegens"] > codegens


class TestFallback:
    def fallback_expr(self):
        # Shared-attribute-less semijoin: refused by the generator.
        return ra.Semijoin(
            ra.RelationRef("person"),
            ra.Rename(ra.RelationRef("likes"), {"pid": "p2", "item": "it2"}),
        )

    def test_fallback_runs_interpreted_and_counts(self):
        wb = make_wb(history=True)
        expr = self.fallback_expr()
        result = wb.run(expr, executor="compiled", optimized=False)
        assert wb.history.last().route == "compiled-fallback"
        assert wb.metrics.value("compile_fallbacks_total") == 1
        assert result == wb.run(expr, optimized=False)

    def test_fallback_metric_counts_every_run(self):
        wb = make_wb()
        expr = self.fallback_expr()
        wb.run(expr, executor="compiled", optimized=False)
        wb.run(expr, executor="compiled", optimized=False)
        assert wb.metrics.value("compile_fallbacks_total") == 2
        assert wb.kernel_cache.stats()["fallbacks"] == 1  # cached verdict


class TestObservability:
    def test_explain_analyze_reports_kernel_status(self):
        wb = make_wb()
        explained = wb.explain_analyze(SQL)
        assert explained.kernel["status"] == "cold"
        assert "Kernel: cold" in explained.render()

        wb.sql(SQL, executor="compiled")
        explained = wb.explain_analyze(SQL)
        kernel = explained.kernel
        assert kernel["status"] == "compiled"
        assert len(kernel["fingerprint"]) == 12
        assert kernel["pipelines"] >= 1
        assert "Kernel: compiled %s" % kernel["fingerprint"] in (
            explained.render()
        )
        assert explained.as_dict()["kernel"]["status"] == "compiled"

    def test_explain_analyze_reports_fallback_reason(self):
        wb = make_wb()
        expr = ra.Semijoin(
            ra.RelationRef("person"),
            ra.Rename(ra.RelationRef("likes"), {"pid": "p2", "item": "it2"}),
        )
        wb.run(expr, executor="compiled", optimized=False)
        explained = wb.explain_analyze(expr, optimized=False)
        assert explained.kernel["status"] == "fallback"
        assert "semijoin" in explained.kernel["reason"]
        assert "Kernel: fallback" in explained.render()

    def test_sys_kernels_joins_sys_plan_cache(self):
        wb = make_wb()
        wb.sql(SQL, executor="compiled")
        joined = wb.sql(
            "SELECT kernels.status, cache.last_route FROM sys_kernels"
            " kernels, sys_plan_cache cache WHERE"
            " kernels.plan_fingerprint = cache.kernel_fingerprint"
        )
        assert ("compiled", "compiled") in joined.tuples

    def test_sys_metrics_publishes_kernel_cache(self):
        wb = make_wb()
        wb.sql(SQL, executor="compiled")
        rows = wb.sql(
            "SELECT name, value FROM sys_metrics"
            " WHERE stat = 'value' AND name = 'kernel_cache_codegens'"
        )
        assert rows.tuples and all(v >= 1 for _n, v in rows.tuples)
