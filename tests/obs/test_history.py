"""Tests for the query-history flight recorder (repro.obs.history)."""

import json

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.errors import SchemaError
from repro.obs import QueryHistory, QueryRecord
from repro.obs.history import make_history, query_hash, query_text
from repro.obs.metrics import MetricsRegistry
from repro.plan.cache import PlanCache
from repro.relational.algebra import evaluate
from repro.relational.calculus import evaluate_query
from repro.relational.calculus_parser import parse_calculus
from repro.relational.database import Database

from ..treewalk import cached_plan, walk


def make_wb(**kwargs):
    db = Database.from_dict(
        {
            "person": (("pid", "name"), [(1, "ada"), (2, "bob"), (3, "eve")]),
            "likes": (("pid", "what"), [(1, "sql"), (2, "datalog")]),
        }
    )
    return MetatheoryWorkbench(db, **kwargs)


class TestRingBuffer:
    def test_capacity_keeps_most_recent(self):
        history = QueryHistory(capacity=3)
        for i in range(5):
            history.add("sql", "Q%d" % i, elapsed=0.001)
        assert len(history) == 3
        assert [r.text for r in history.records()] == ["Q2", "Q3", "Q4"]
        # qids keep counting across evictions.
        assert [r.qid for r in history.records()] == [2, 3, 4]
        assert history.last().qid == 4

    def test_clear_keeps_the_id_counter(self):
        history = QueryHistory()
        history.add("sql", "a", elapsed=0.0)
        history.clear()
        record = history.add("sql", "b", elapsed=0.0)
        assert record.qid == 1

    def test_iteration_and_last(self):
        history = QueryHistory()
        assert history.last() is None
        history.add("sql", "a", elapsed=0.0)
        assert [r.text for r in history] == ["a"]


class TestWorkbenchRecording:
    def test_disabled_by_default(self):
        wb = make_wb()
        wb.sql("SELECT name FROM person")
        assert wb.history.enabled is False
        assert len(wb.history) == 0

    def test_records_successful_queries(self):
        wb = make_wb(history=True)
        relation = wb.sql("SELECT name FROM person")
        record = wb.history.last()
        assert record.kind == "sql"
        assert record.status == "ok"
        assert record.rows == len(relation) == 3
        assert record.route == "compiled"  # compiled on its first run
        assert record.wall_ms >= 0.0
        assert record.plan_cache_hit == False  # noqa: E712 - stored flag
        assert record.plan_fingerprint is not None
        assert record.query_hash == query_hash("SELECT name FROM person")

    def test_failed_query_is_recorded_and_reraised(self):
        wb = make_wb(history=True)
        with pytest.raises(SchemaError):
            wb.sql("SELECT x FROM no_such_table")
        record = wb.history.last()
        assert record.status == "error"
        assert record.rows is None
        assert record.error.startswith("SchemaError:")

    def test_run_delegation_leaves_one_record(self):
        wb = make_wb(history=True)
        wb.run("SELECT name FROM person")
        assert len(wb.history) == 1
        assert wb.history.last().kind == "sql"

    def test_explain_analyze_leaves_one_record(self):
        # EXPLAIN ANALYZE enters the same gateway as the query methods.
        wb = make_wb(history=True)
        explained = wb.explain_analyze("SELECT name FROM person")
        [record] = wb.history.records()
        assert (record.kind, record.route) == ("sql", "compiled")
        assert record.instrumented
        assert record.rows == len(explained.result)

    def test_every_front_end_is_recorded(self):
        from repro.relational.algebra import Projection, RelationRef

        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        wb.algebra(Projection(RelationRef("person"), ("name",)))
        wb.calculus("{(x, y) | person(x, y)}")
        wb.run("mutual(X) :- person(X, N), likes(X, W).")
        assert [r.kind for r in wb.history.records()] == [
            "sql", "algebra", "calculus", "datalog",
        ]
        datalog = wb.history.last()
        assert datalog.route == "datalog:fixpoint"
        assert datalog.rows > 0  # model fact count

    def test_recursive_datalog_routes_to_fixpoint(self):
        wb = make_wb(history=True)
        wb.run("p(X, Y) :- likes(X, Y). p(X, Z) :- p(X, Y), p(Y, Z).")
        assert wb.history.last().route == "datalog:fixpoint"

    def test_plan_cache_flags_flip_on_repeat(self):
        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        wb.sql("SELECT name FROM person")
        first, second = wb.history.records()
        assert first.plan_cache_hit == 0
        assert second.plan_cache_hit == 1
        assert second.parse_cache_hit == 1
        assert first.plan_fingerprint == second.plan_fingerprint

    def test_treewalk_and_direct_routes(self):
        # The tree walk and the active-domain semantics are oracles a
        # test calls directly: they agree with the one route, which
        # every relational query records, and they leave no record.
        wb = make_wb(history=True)
        text = "{(x, y) | person(x, y)}"
        assert wb.sql("SELECT name FROM person") == walk(
            wb, "SELECT name FROM person"
        )
        assert wb.calculus(text) == evaluate_query(
            parse_calculus(text), wb.db
        )
        assert [r.route for r in wb.history.records()] == [
            "compiled", "compiled",
        ]

    def test_treewalk_runs_the_cached_plan(self):
        wb = make_wb(history=True)
        query = "SELECT name FROM person WHERE pid > 1"
        answer = wb.sql(query)
        plan, key = cached_plan(wb, query)
        assert answer == evaluate(plan, wb.db)
        [first] = wb.history.records()
        assert wb.plan_cache.stats()["hits"] == 1
        assert PlanCache.fingerprint(key) == first.plan_fingerprint

    def test_enable_disable_toggle(self):
        wb = make_wb()
        wb.sql("SELECT name FROM person")
        wb.history.enable()
        wb.sql("SELECT name FROM person")
        wb.history.disable()
        wb.sql("SELECT name FROM person")
        assert len(wb.history) == 1

    def test_caller_stats_object_is_still_honored(self):
        from repro.datalog import EngineStatistics

        wb = make_wb(history=True)
        stats = EngineStatistics()
        wb.sql("SELECT name FROM person", stats=stats)
        assert stats.tuples_materialized > 0
        assert wb.history.last().tuples_materialized == (
            stats.tuples_materialized
        )


class TestSlowQueryFlightRecorder:
    def test_slow_query_attaches_report(self):
        wb = make_wb(slow_query_ms=0.0)  # everything is "slow"
        assert wb.history.enabled  # slow_ms implies recording
        wb.sql("SELECT name FROM person")
        record = wb.history.last()
        assert record.slow is True
        assert record.instrumented is True
        assert record.report is not None
        assert record.report.rows == record.rows
        assert wb.history.slow_queries() == [record]

    def test_fast_queries_drop_their_reports(self):
        wb = make_wb(slow_query_ms=1e9)
        wb.sql("SELECT name FROM person")
        record = wb.history.last()
        assert record.slow is False
        assert record.report is None
        assert record.instrumented is True  # armed -> instrumented twin
        assert wb.history.slow_queries() == []

    def test_unarmed_history_never_instruments(self):
        wb = make_wb(history=True)
        wb.sql("SELECT name FROM person")
        record = wb.history.last()
        assert record.instrumented is False
        assert record.report is None

    def test_instrumented_result_matches_plain_run(self):
        wb_plain = make_wb()
        wb_armed = make_wb(slow_query_ms=0.0)
        text = "SELECT person.name FROM person, likes WHERE person.pid = likes.pid"
        assert sorted(wb_plain.sql(text).tuples) == sorted(
            wb_armed.sql(text).tuples
        )

    def test_datalog_records_without_reports(self):
        wb = make_wb(slow_query_ms=0.0)
        wb.run("p(X) :- person(X, N).")
        record = wb.history.last()
        assert record.slow is True
        assert record.report is None  # fixpoint/lowered: no OpReport tree


class TestMetricsBridge:
    def test_records_bump_the_registry(self):
        registry = MetricsRegistry()
        wb = make_wb(history=True, metrics=registry)
        wb.sql("SELECT name FROM person")
        with pytest.raises(SchemaError):
            wb.sql("SELECT x FROM nope")
        assert registry.value("queries_total", kind="sql") == 2
        assert registry.value("query_errors_total", kind="sql") == 1
        hist = registry.histogram("query_wall_ms", kind="sql")
        assert hist.count == 2

    def test_disabled_history_touches_no_metrics(self):
        registry = MetricsRegistry()
        wb = make_wb(metrics=registry)
        wb.sql("SELECT name FROM person")
        with pytest.raises(KeyError):
            registry.value("queries_total", kind="sql")


class TestExport:
    def test_as_json_lines_round_trips(self):
        wb = make_wb(slow_query_ms=0.0)
        wb.sql("SELECT name FROM person")
        with pytest.raises(SchemaError):
            wb.sql("SELECT x FROM nope")
        records = [
            json.loads(line)
            for line in wb.history.as_json_lines().splitlines()
        ]
        assert [r["status"] for r in records] == ["ok", "error"]
        ok = records[0]
        assert ok["slow"] is True
        assert ok["report"]["rows"] == 3  # the attached OpReport tree
        assert ok["qid"] == 0

    def test_record_dict_matches_row_fields(self):
        record = QueryRecord(0, "sql", "SELECT 1", 1.5)
        row = record.row()
        assert len(row) == 15
        data = record.as_dict()
        assert data["kind"] == "sql"
        assert data["report"] is None


class TestMakeHistory:
    def test_none_is_present_but_off(self):
        history = make_history(None)
        assert isinstance(history, QueryHistory)
        assert history.enabled is False

    def test_true_enables(self):
        assert make_history(True).enabled is True

    def test_slow_ms_implies_enabled(self):
        history = make_history(None, slow_ms=5.0)
        assert history.enabled is True
        assert history.slow_ms == 5.0

    def test_existing_instance_is_adopted(self):
        registry = MetricsRegistry()
        mine = QueryHistory(capacity=7, enabled=False)
        history = make_history(mine, slow_ms=3.0, registry=registry)
        assert history is mine
        assert history.slow_ms == 3.0
        assert history.registry is registry

    def test_query_text_of_objects_is_their_repr(self):
        from repro.relational.algebra import RelationRef

        expr = RelationRef("person")
        assert query_text(expr) == repr(expr)
        assert query_text("SELECT 1") == "SELECT 1"


class TestZeroCostWhenOff:
    def test_no_records_and_no_record_allocations(self, monkeypatch):
        """The disabled recorder's pin: the hot path never builds a
        QueryRecord, a capture dict, or its own statistics object."""
        from repro.datalog import EngineStatistics

        allocations = []
        original = QueryRecord.__init__

        def counting(self, *args, **kwargs):
            allocations.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(QueryRecord, "__init__", counting)

        # What the gateway hands each front end: the statistics object
        # and the capture dict.
        handed = []
        original_dispatch = MetatheoryWorkbench._dispatch

        def spying_dispatch(self, kind, query, stats, capture, txn):
            handed.append((stats, capture))
            return original_dispatch(self, kind, query, stats, capture, txn)

        monkeypatch.setattr(
            MetatheoryWorkbench, "_dispatch", spying_dispatch
        )

        wb = make_wb()
        wb.sql("SELECT name FROM person")
        wb.run("p(X) :- person(X, N).")
        wb.calculus("{(x, y) | person(x, y)}")
        assert allocations == []
        assert handed == [(None, None)] * 3

        # Sanity: the counters fire once recording is on.
        wb.history.enable()
        wb.sql("SELECT name FROM person")
        assert len(allocations) == 1
        stats, capture = handed[-1]
        assert isinstance(stats, EngineStatistics)
        assert isinstance(capture, dict)
