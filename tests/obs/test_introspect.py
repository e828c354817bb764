"""Tests for the ``sys_`` system relations (repro.obs.introspect)."""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.datalog.facts import FactStore
from repro.errors import DatalogError, SchemaError
from repro.obs import SYSTEM_RELATION_NAMES
from repro.obs.introspect import materialize_system_facts, render_labels
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.relational.database import Database, is_system_name
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


def make_wb(**kwargs):
    db = Database.from_dict(
        {
            "person": (("pid", "name"), [(1, "ada"), (2, "bob"), (3, "eve")]),
            "likes": (("pid", "what"), [(1, "sql"), (2, "datalog")]),
        }
    )
    kwargs.setdefault("metrics", MetricsRegistry())
    return MetatheoryWorkbench(db, **kwargs)


class TestReservedNamespace:
    def test_add_rejects_sys_names(self):
        db = Database()
        with pytest.raises(SchemaError, match="reserved 'sys_' namespace"):
            db.add(Relation(RelationSchema("sys_mine", ("a",)), [(1,)]))

    def test_replace_rejects_sys_names(self):
        db = Database()
        with pytest.raises(SchemaError, match="reserved 'sys_' namespace"):
            db.replace(Relation(RelationSchema("sys_metrics", ("a",)), ()))

    def test_insert_rejects_sys_names(self):
        wb = make_wb()
        with pytest.raises(SchemaError, match="reserved 'sys_' namespace"):
            wb.db.insert("sys_query_log", [(1,)])

    def test_system_escape_hatch_for_scratch_databases(self):
        db = Database()
        db.add(
            Relation(RelationSchema("sys_metrics", ("a",)), [(1,)]),
            system=True,
        )
        assert db.names() == ["sys_metrics"]

    def test_register_virtual_requires_sys_prefix_and_schema(self):
        db = Database()
        with pytest.raises(SchemaError, match="'sys_' namespace"):
            db.register_virtual(RelationSchema("plain", ("a",)), list)
        with pytest.raises(SchemaError, match="RelationSchema"):
            db.register_virtual("sys_x", list)

    def test_is_system_name(self):
        assert is_system_name("sys_metrics")
        assert not is_system_name("system")
        assert not is_system_name(("sys_", "tuple"))


class TestVirtualVisibility:
    def test_installed_on_every_workbench(self):
        wb = make_wb()
        assert tuple(wb.db.virtual_names()) == SYSTEM_RELATION_NAMES

    def test_schema_includes_virtuals_by_default(self):
        wb = make_wb()
        schema = wb.db.schema()
        assert "sys_query_log" in schema
        assert "person" in schema
        user_only = wb.db.schema(virtual=False)
        assert "sys_query_log" not in user_only

    def test_enumeration_sees_user_data_only(self):
        wb = make_wb()
        assert wb.db.names() == ["likes", "person"]
        assert sorted(wb.db) == ["likes", "person"]
        assert len(wb.db) == 2
        assert "sys_metrics" in wb.db  # but resolvable by name

    def test_hypergraph_and_full_join_exclude_sys(self):
        wb = make_wb()
        hypergraph = wb.schema_hypergraph()
        assert not any(is_system_name(edge) for edge in hypergraph.names())
        joined = wb.full_join(method="naive")
        assert set(joined.schema.attributes) == {"pid", "name", "what"}

    def test_fact_store_ingestion_excludes_sys(self):
        wb = make_wb()
        store = FactStore.from_database(wb.db)
        assert sorted(store.predicates()) == ["likes", "person"]

    def test_copy_and_active_domain_exclude_sys(self):
        wb = make_wb()
        copied = wb.db.copy()
        assert copied.names() == ["likes", "person"]
        assert copied.virtual_names() == []
        assert "ada" in wb.db.active_domain()

    def test_conformance_generators_cannot_emit_sys_names(self):
        from repro.conformance.workloads import GENERATORS, generate_case
        from repro.core.random_instances import random_database

        for seed in range(5):
            db = random_database(seed=seed)
            assert not any(is_system_name(n) for n in db.names())
        for family in sorted(GENERATORS):
            case = generate_case(family, seed=7)
            db = case.payload.get("db")
            if db is not None:
                assert not any(is_system_name(n) for n in db.names())


class TestFourFrontEnds:
    """Every front-end can query at least sys_metrics and sys_query_log."""

    def prepared(self):
        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        wb.run("p(X) :- person(X, N).")
        return wb

    def test_sql(self):
        wb = self.prepared()
        log = wb.sql("SELECT kind, status FROM sys_query_log")
        assert sorted(log.tuples) == [("datalog", "ok"), ("sql", "ok")]
        metrics = wb.sql(
            "SELECT name, value FROM sys_metrics"
            " WHERE name = 'queries_total'"
        )
        # Three finished queries at materialization time: the two from
        # prepared() plus the sys_query_log query just above (the log
        # query records itself once it completes).
        assert sum(v for _n, v in metrics.tuples) == 3

    def test_algebra(self):
        from repro.relational.algebra import Projection, RelationRef

        wb = self.prepared()
        log = wb.algebra(
            Projection(RelationRef("sys_query_log"), ("qid", "kind"))
        )
        assert sorted(log.tuples) == [(0, "sql"), (1, "datalog")]
        metrics = wb.algebra(
            Projection(RelationRef("sys_metrics"), ("name", "stat"))
        )
        assert ("queries_total", "value") in metrics.tuples

    def test_calculus(self):
        wb = self.prepared()
        metrics = wb.calculus(
            "{(n, v) | exists k . exists l . exists s ."
            " sys_metrics(n, k, l, s, v)}"
        )
        assert any(n == "queries_total" for n, _v in metrics.tuples)
        log = wb.calculus(
            "{(q, k) | exists s . exists h . exists t . exists w ."
            " exists r . exists tm . exists rf . exists pch . exists prh ."
            " exists pf . exists ro . exists sl . exists e ."
            " sys_query_log(q, k, s, h, t, w, r, tm, rf, pch, prh, pf,"
            " ro, sl, e)}"
        )
        # The sys_metrics calculus query above already finished, so the
        # log it reads includes it.
        assert sorted(log.tuples) == [
            (0, "sql"), (1, "datalog"), (2, "calculus"),
        ]

    def test_datalog(self):
        wb = self.prepared()
        model = wb.run(
            'kinds(K) :- sys_query_log(Q, K, "ok", H, T, W, R, TM, RF,'
            " PCH, PRH, PF, RO, SL, E)."
        )
        assert sorted(model.get("kinds")) == [("datalog",), ("sql",)]
        counts = wb.run(
            'totals(N, V) :- sys_metrics(N, K, L, "value", V).'
        )
        assert any(n == "queries_total" for n, _v in counts.get("totals"))

    def test_datalog_head_into_sys_raises(self):
        wb = self.prepared()
        with pytest.raises(DatalogError, match="read-only 'sys_'"):
            wb.datalog("sys_query_log(X) :- person(X, N).")
        with pytest.raises(DatalogError, match="read-only 'sys_'"):
            # A ground fact is a bodyless rule: also a rejected head.
            wb.run('sys_metrics("a", "b", "c", "d", 1).', kind="datalog")

    def test_unreferenced_sys_tables_not_materialized(self):
        wb = self.prepared()
        program = wb.datalog("p(X) :- person(X, N).")
        assert not any(
            is_system_name(p) for p in program.edb.predicates()
        )


class TestQueryLogDifferential:
    """The acceptance pin: sys_query_log matches the runs that happened,
    including a deliberately failed and a deliberately slow query."""

    def test_log_matches_actual_runs(self):
        wb = make_wb(slow_query_ms=0.0)  # every query is "slow"
        ran = [
            "SELECT name FROM person",
            "SELECT person.name FROM person, likes"
            " WHERE person.pid = likes.pid",
        ]
        results = [wb.sql(text) for text in ran]
        with pytest.raises(SchemaError):
            wb.sql("SELECT ghost FROM no_such_relation")  # deliberate fail

        rows = sorted(
            wb.sql(
                "SELECT qid, status, text, rows, slow FROM sys_query_log"
            ).tuples
        )
        assert len(rows) == 3
        for (qid, status, text, rowcount, slow), expected_text, result in zip(
            rows[:2], ran, results
        ):
            assert status == "ok"
            assert text == expected_text
            assert rowcount == len(result)
            assert slow == 1
        qid, status, text, rowcount, slow = rows[2]
        assert status == "error"
        assert rowcount is None

        # The deliberately slow queries carry their full OpReport trees
        # (the log query itself recorded as qid 3 after materializing).
        slow_records = wb.history.slow_queries()
        ok_records = [
            r for r in slow_records if r.status == "ok" and r.qid < 2
        ]
        assert len(ok_records) == 2
        for record, result in zip(ok_records, results):
            assert record.report is not None
            assert record.report.rows == len(result)
            assert record.report.as_dict()["operator"]

    def test_log_query_sees_only_finished_queries(self):
        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        log = wb.sql("SELECT qid FROM sys_query_log")
        # The log query itself records after materialization.
        assert sorted(log.tuples) == [(0,)]
        assert wb.history.last().text == "SELECT qid FROM sys_query_log"

    def test_log_joins_plan_cache_by_fingerprint(self):
        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        wb.sql("SELECT name FROM person")
        joined = wb.sql(
            "SELECT log.qid, cache.hits FROM sys_query_log log,"
            " sys_plan_cache cache"
            " WHERE log.plan_fingerprint = cache.plan_fingerprint"
        )
        assert sorted(joined.tuples) == [(0, 1), (1, 1)]


class TestSystemTables:
    def test_sys_metrics_values_are_scalars(self):
        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        rows = wb.db["sys_metrics"].tuples
        assert rows
        for name, kind, labels, stat, value in rows:
            assert isinstance(name, str) and isinstance(labels, str)
            assert kind in ("counter", "gauge", "histogram")
            assert isinstance(value, (int, float))
        stats = {
            stat for _n, kind, _l, stat, _v in rows if kind == "histogram"
        }
        assert {"count", "sum", "mean", "p50", "p95"} <= stats

    def test_sys_metrics_includes_plan_cache_gauges(self):
        wb = make_wb()
        wb.sql("SELECT name FROM person")
        rows = wb.sql(
            "SELECT name, value FROM sys_metrics"
            " WHERE name = 'plan_cache_misses'"
        ).tuples
        # Two misses at materialization time: the person query and the
        # sys_metrics query itself (planned before it executes).
        assert rows == {("plan_cache_misses", 2)}

    def test_sys_spans_mirror_the_tracer(self):
        wb = make_wb(tracer=Tracer())
        with wb.tracer.span("outer", workload="tc"):
            with wb.tracer.span("inner"):
                pass
        rows = sorted(wb.db["sys_spans"].tuples)
        names = {(name, parent, depth)
                 for _sid, parent, name, _k, depth, _ms, _a in rows}
        assert ("outer", None, 0) in names
        assert ("inner", 0, 1) in names
        outer = [r for r in rows if r[2] == "outer"][0]
        assert outer[6] == "workload=tc"

    def test_sys_plan_cache_counts_hits_per_entry(self):
        wb = make_wb()
        wb.sql("SELECT name FROM person")
        wb.sql("SELECT name FROM person")
        wb.sql("SELECT what FROM likes")
        rows = sorted(wb.db["sys_plan_cache"].tuples)
        assert [
            (entry, hits) for entry, _fp, hits, _route, _kernel in rows
        ] == [(0, 1), (1, 0)]
        # The default route compiles a plan on its first run and names
        # the kernel.
        assert [(row[3], row[4] is None) for row in rows] == [
            ("compiled", False), ("compiled", False),
        ]
        kernels = sorted(wb.db["sys_kernels"].tuples)
        assert [row[4] for row in rows] == [k[1] for k in kernels]

    def test_sys_catalog_stats_census_user_relations_only(self):
        wb = make_wb()
        rows = sorted(wb.db["sys_catalog_stats"].tuples)
        assert [(r, a) for r, a, _n, _d in rows] == [
            ("likes", "pid"), ("likes", "what"),
            ("person", "name"), ("person", "pid"),
        ]
        person_pid = [r for r in rows if r[:2] == ("person", "pid")][0]
        assert person_pid[2] == 3  # rows
        assert person_pid[3] == 3  # distinct pids

    def test_render_labels_is_sorted_and_stable(self):
        assert render_labels({"b": 2, "a": 1}) == "a=1,b=2"
        assert render_labels({}) == ""


class TestMaterializeSystemFacts:
    def test_adds_only_referenced_predicates(self):
        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        from repro.datalog.parser import parse_program

        program, _ = parse_program(
            "hot(H) :- sys_query_log(Q, K, S, H, T, W, R, TM, RF, PCH,"
            " PRH, PF, RO, SL, E)."
        )
        store = materialize_system_facts(wb.db, program, FactStore())
        assert store.predicates() == ["sys_query_log"]
        assert store.count("sys_query_log") == 1

    def test_multiple_referenced_sys_tables_all_materialize(self):
        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        engine = wb.datalog(
            "hot(H) :- sys_query_log(Q, K, S, H, T, W, R, TM, RF, PCH,"
            " PRH, PF, RO, SL, E).\n"
            'counts(V) :- sys_metrics(N, MK, L, "value", V).'
        )
        predicates = engine.edb.predicates()
        assert "sys_query_log" in predicates
        assert "sys_metrics" in predicates
        assert "sys_spans" not in predicates
