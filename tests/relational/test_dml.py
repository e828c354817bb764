"""DML through the shared plan pipeline: semantics and plumbing.

INSERT/DELETE/UPDATE are planned, optimized, cached, and executed like
queries — every executor route produces the same delta — and the
mutation side keeps the rest of the stack honest: cached key indexes
are carried forward to the new binding (and dropped from the old one),
only inserted rows are validated, catalog statistics are maintained
incrementally (no rescans), cache invalidation is surgical, and the
flight recorder and EXPLAIN ANALYZE see DML as first-class citizens.
"""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.errors import ParseError, SchemaError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.opt import Optimizer, rule_names
from repro.opt.catalog import TableStats
from repro.relational.database import Database
from repro.relational.dml import (
    DeleteStatement,
    DMLResult,
    InsertStatement,
    UpdateStatement,
)
from repro.relational.relation import Relation
from repro.relational.sql_frontend import parse_sql


def make_wb(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return MetatheoryWorkbench(
        Database.from_dict(
            {
                "emp": (
                    ("name", "dept", "salary"),
                    [
                        ("ann", "cs", 90),
                        ("bob", "cs", 80),
                        ("cal", "it", 70),
                    ],
                ),
                "dept": (("dept", "city"), [("cs", "sd"), ("it", "la")]),
            }
        ),
        **kwargs,
    )


class TestParsing:
    def test_insert_values(self):
        stmt = parse_sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        assert isinstance(stmt, InsertStatement)
        assert stmt.kind == "insert" and stmt.target == "emp"

    def test_insert_select(self):
        stmt = parse_sql(
            "INSERT INTO emp SELECT name, dept, salary FROM emp "
            "WHERE salary > 80"
        )
        assert isinstance(stmt, InsertStatement)

    def test_delete_and_update(self):
        assert isinstance(
            parse_sql("DELETE FROM emp WHERE dept = 'cs'"), DeleteStatement
        )
        stmt = parse_sql("UPDATE emp SET salary = 95 WHERE name = 'ann'")
        assert isinstance(stmt, UpdateStatement)

    def test_malformed_dml_raises(self):
        with pytest.raises(ParseError):
            parse_sql("INSERT INTO emp")
        with pytest.raises(ParseError):
            parse_sql("UPDATE emp WHERE name = 'ann'")


class TestSemantics:
    def test_insert_values_appends_rows(self):
        wb = make_wb()
        result = wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        assert isinstance(result, DMLResult)
        assert result.rows_inserted == 1 and result.rows_deleted == 0
        assert result.rows_affected == len(result) == 1
        assert ("dee", "it", 60) in wb.db["emp"].tuples

    def test_insert_duplicate_is_a_set_semantics_noop(self):
        wb = make_wb()
        result = wb.sql("INSERT INTO emp VALUES ('ann', 'cs', 90)")
        assert result.rows_affected == 0
        assert len(wb.db["emp"]) == 3

    def test_insert_select_runs_the_source_query(self):
        # Positional assignment, as in SQL: (name, dept) rows land in
        # dept's (dept, city) columns.
        wb = make_wb()
        result = wb.sql(
            "INSERT INTO dept SELECT name, dept FROM emp WHERE salary > 75"
        )
        assert result.rows_inserted == 2
        assert ("ann", "cs") in wb.db["dept"].tuples
        assert ("bob", "cs") in wb.db["dept"].tuples

    def test_delete_where_removes_matches(self):
        wb = make_wb()
        result = wb.sql("DELETE FROM emp WHERE dept = 'cs'")
        assert result.rows_deleted == 2
        assert result.rows_matched == 2
        assert wb.db["emp"].tuples == {("cal", "it", 70)}

    def test_delete_without_matches_affects_nothing(self):
        wb = make_wb()
        before = wb.db["emp"]
        result = wb.sql("DELETE FROM emp WHERE dept = 'hr'")
        assert result.rows_affected == 0
        assert wb.db["emp"] is before

    def test_update_rewrites_matched_rows(self):
        wb = make_wb()
        result = wb.sql("UPDATE emp SET salary = 99 WHERE dept = 'cs'")
        assert result.rows_matched == 2
        assert result.rows_inserted == 2 and result.rows_deleted == 2
        assert ("ann", "cs", 99) in wb.db["emp"].tuples
        assert ("bob", "cs", 99) in wb.db["emp"].tuples

    def test_identity_update_is_a_noop(self):
        wb = make_wb()
        before = wb.db["emp"]
        result = wb.sql("UPDATE emp SET dept = 'cs' WHERE dept = 'cs'")
        assert result.rows_matched == 2
        assert result.rows_affected == 0
        assert wb.db["emp"] is before

    def test_merging_update_keeps_set_cardinality(self):
        # Both cs rows collapse onto one image: 2 deleted, 1 inserted.
        wb = make_wb()
        result = wb.sql(
            "UPDATE emp SET name = 'x', salary = 0 WHERE dept = 'cs'"
        )
        assert result.rows_deleted == 2 and result.rows_inserted == 1
        assert len(wb.db["emp"]) == 2

    def test_dml_on_system_relations_is_rejected(self):
        wb = make_wb()
        with pytest.raises(SchemaError):
            wb.sql("DELETE FROM sys_tables WHERE rows = 0")

    def test_dml_on_unknown_relation_is_rejected(self):
        wb = make_wb()
        with pytest.raises(SchemaError):
            wb.sql("INSERT INTO ghost VALUES (1)")

    @pytest.mark.parametrize("text", [
        "INSERT INTO item VALUES ('x', 'two')",
        "UPDATE item SET qty = 'many' WHERE sku = 'a'",
    ])
    def test_invalid_row_raises_on_both_paths_and_commits_nothing(
        self, text
    ):
        # Only inserted rows are validated (the surviving tuples were
        # validated when they entered), on the autocommit and the
        # transactional path alike; a rejected row leaves no version.
        from repro.relational.schema import RelationSchema
        from repro.relational.types import INTEGER, STRING

        schema = RelationSchema("item", ("sku", "qty"), (STRING, INTEGER))
        db = Database([Relation(schema, [("a", 1), ("b", 2)])])
        wb = MetatheoryWorkbench(db, metrics=MetricsRegistry())
        wb.db["item"]._key_index((0,))
        store = wb.db.store()
        vid, versions = store.vid, dict(store.relation_versions)
        before = wb.db["item"]
        with pytest.raises(SchemaError):
            wb.sql(text)
        with pytest.raises(SchemaError):
            with wb.begin() as txn:
                txn.sql(text)
        assert txn.status == "aborted"
        assert (store.vid, store.relation_versions) == (vid, versions)
        assert wb.db["item"] is before
        assert before.cached_index_patterns() == [(0,)]


class TestExecutorRoutes:
    #: ``as_written`` runs the plan as written: the workbench's
    #: optimizer has no rule.
    ROUTES = [
        {"executor": True},
        {"executor": False},
        {"executor": True, "as_written": True},
        {"executor": "compiled"},
        {"executor": "compiled", "as_written": True},
    ]

    @pytest.mark.parametrize("kwargs", ROUTES)
    def test_all_routes_produce_the_same_delta(self, kwargs):
        kwargs = dict(kwargs)
        as_written = kwargs.pop("as_written", False)
        wb = make_wb(
            optimizer=Optimizer(disable=rule_names()) if as_written else None
        )
        result = wb.sql("DELETE FROM emp WHERE salary > 75", **kwargs)
        assert result.rows_deleted == 2
        assert wb.db["emp"].tuples == {("cal", "it", 70)}

    def test_compiled_insert_select_matches_streaming(self):
        # The tree walk is the oracle of the default (compiled) route.
        streaming, compiled = make_wb(), make_wb()
        text = (
            "INSERT INTO dept SELECT name, dept FROM emp WHERE salary > 75"
        )
        a = streaming.sql(text, executor=False)
        # The template compiles on its first run (no salary is over
        # 1000); the second runs the same kernel.
        compiled.sql(text.replace("75", "1000"), executor="compiled")
        b = compiled.sql(text, executor="compiled")
        assert (a.rows_inserted, a.rows_deleted) == (
            b.rows_inserted, b.rows_deleted,
        )
        assert streaming.db["dept"].tuples == compiled.db["dept"].tuples
        assert compiled.kernel_cache.stats()["codegens"] >= 1


def _bucket_sets(index):
    return {key: set(bucket) for key, bucket in index.items()}


class TestLazyIndexes:
    """The index lifetime contract.  Key indexes are built lazily, on
    first use by a read; a write carries every cached index forward to
    the new binding by patching only the changed keys
    (``Relation.with_delta``); and the superseded binding drops its
    indexes, so undo images and retained versions hold tuples only."""

    def test_insert_carries_key_indexes_forward(self):
        wb = make_wb()
        old = wb.db["emp"]
        old_index = old._key_index((1,))  # warm an index
        before = _bucket_sets(old_index)
        wb.db.insert("emp", [("dee", "it", 60)])
        fresh = wb.db["emp"]
        assert fresh is not old
        assert fresh.cached_index_patterns() == [(1,)]  # patched, not cold
        assert _bucket_sets(fresh._key_index((1,))) == _bucket_sets(
            Relation(fresh.schema, fresh.tuples)._key_index((1,))
        )
        # The superseded binding forgot its indexes; the index object it
        # had was never mutated (a reader holding it stays consistent).
        assert old.cached_index_patterns() == []
        assert _bucket_sets(old_index) == before

    def test_dml_statement_carries_indexes_forward(self):
        wb = make_wb()
        old = wb.db["emp"]
        old._key_index((0,))
        wb.sql("UPDATE emp SET salary = 99 WHERE name = 'ann'")
        # The WHERE clause ran as an IndexLookup on (0,): the index was
        # already warm, and it survives the write on the new binding.
        assert wb.db["emp"].cached_index_patterns() == [(0,)]
        assert wb.db["emp"]._key_index((0,))[("ann",)] == [
            ("ann", "cs", 99)
        ]
        assert old.cached_index_patterns() == []

    def test_index_rebuilds_lazily_and_correctly_after_delta(self):
        wb = make_wb()
        wb.db["emp"]._key_index((1,))
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        fresh = wb.db["emp"]
        # A write never builds an index that no read asked for ...
        assert fresh.cached_index_patterns() == [(1,)]
        index = fresh._key_index((1,))
        assert {row for row in index[("it",)]} == {
            ("cal", "it", 70), ("dee", "it", 60),
        }
        # ... and a pattern first used after the delta builds lazily.
        salaries = fresh._key_index((2,))
        assert salaries[(60,)] == [("dee", "it", 60)]
        assert fresh.cached_index_patterns() == [(1,), (2,)]

    def test_transaction_stages_carry_indexes_and_commit_drops_old(self):
        wb = make_wb()
        committed = wb.db["emp"]
        committed._key_index((0,))
        with wb.begin() as txn:
            txn.sql("UPDATE emp SET salary = 1 WHERE name = 'ann'")
            first = txn.binding("emp")
            assert first.cached_index_patterns() == [(0,)]
            txn.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
            # The staged predecessor (the journal's undo image) is
            # index-free; the staged successor carries the index.
            assert first.cached_index_patterns() == []
            assert txn.binding("emp").cached_index_patterns() == [(0,)]
        assert wb.db["emp"].cached_index_patterns() == [(0,)]
        assert committed.cached_index_patterns() == []
        assert ("dee", "it", 60) in wb.db["emp"]._key_index((0,))[("dee",)]

    def test_lifetime_bound_after_many_statements(self):
        # Only the live binding may hold indexes: after 500 DML
        # statements (autocommit and transactional, reads in between
        # warming lookups and joins) no journal undo image and no
        # retained version pins a superseded binding's indexes.
        from repro.storage.journal import ABSENT

        wb = make_wb()
        for i in range(500):
            if i % 5 == 4:
                with wb.begin() as txn:
                    txn.sql("UPDATE emp SET salary = %d WHERE name = 'ann'"
                            % i)
                    txn.sql("INSERT INTO emp VALUES ('t%d', 'it', %d)"
                            % (i, i))
            elif i % 5 == 3:
                wb.sql("DELETE FROM emp WHERE name = 'p%d'" % (i - 3))
            else:
                wb.sql("INSERT INTO emp VALUES ('p%d', 'cs', %d)" % (i, i))
            wb.sql(
                "SELECT e.name, d.city FROM emp e, dept d "
                "WHERE e.dept = d.dept AND e.name = 'p%d'" % i
            )
        live = wb.db["emp"]
        assert live.cached_index_patterns()
        store = wb.db.store()
        undo_images = [
            entry.undo for entry in store.journal.entries()
            if entry.undo is not ABSENT
        ]
        assert undo_images
        assert all(rel._indexes is None for rel in undo_images)
        retained = [
            relation
            for version in store.versions()
            for relation in version.bindings.values()
            if relation is not wb.db[relation.schema.name]
        ]
        assert retained
        assert all(rel._indexes is None for rel in retained)


class TestCatalogMaintenance:
    def test_delta_census_equals_fresh_census_without_rescans(self):
        wb = make_wb()
        catalog = wb.db.catalog()
        catalog.stats("emp")
        assert catalog.rescans == 1
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        wb.sql("UPDATE emp SET salary = 99 WHERE dept = 'cs'")
        wb.sql("DELETE FROM emp WHERE name = 'cal'")
        stats = catalog.stats("emp")
        fresh = TableStats.from_relation(wb.db["emp"])
        assert stats.rows == fresh.rows
        assert stats._values == fresh._values
        assert stats.distincts() == fresh.distincts()
        assert catalog.rescans == 1  # never rescanned on the delta path

    def test_transactional_commit_maintains_the_census_too(self):
        wb = make_wb()
        catalog = wb.db.catalog()
        catalog.stats("emp")
        with wb.begin() as txn:
            txn.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
            txn.sql("DELETE FROM emp WHERE name = 'ann'")
        stats = catalog.stats("emp")
        fresh = TableStats.from_relation(wb.db["emp"])
        assert stats.rows == fresh.rows
        assert stats._values == fresh._values
        assert catalog.rescans == 1


class TestCacheCoherence:
    def test_dml_invalidates_only_plans_touching_the_target(self):
        wb = make_wb()
        wb.sql("SELECT name FROM emp WHERE salary > 75")
        wb.sql("SELECT city FROM dept")
        assert wb.plan_cache.stats()["size"] == 2
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        wb.sql("SELECT city FROM dept")  # untouched relation: still hot
        stats = wb.plan_cache.stats()
        assert stats["hits"] >= 1
        wb.sql("SELECT name FROM emp WHERE salary > 75")  # re-planned
        assert wb.plan_cache.stats()["misses"] > stats["misses"]

    def test_same_shape_dml_keeps_compiled_kernels(self):
        wb = make_wb()
        wb.sql("SELECT name FROM emp WHERE salary > 75",
               executor="compiled")
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 99)")
        codegens = wb.kernel_cache.stats()["codegens"]
        out = wb.sql("SELECT name FROM emp WHERE salary > 75",
                     executor="compiled")
        assert ("dee",) in out.tuples
        # The insert changed data, not shape: the kernel is reused.
        assert wb.kernel_cache.stats()["codegens"] == codegens
        assert wb.kernel_cache.stats()["hits"] == 1

    def test_dml_plans_are_themselves_cached(self):
        wb = make_wb()
        wb.sql("DELETE FROM emp WHERE name = 'nobody'")
        misses = wb.plan_cache.stats()["misses"]
        wb.sql("DELETE FROM emp WHERE name = 'nobody'")
        stats = wb.plan_cache.stats()
        assert stats["misses"] == misses
        assert stats["hits"] >= 1


class TestObservability:
    def test_history_records_dml_with_route_and_fingerprint(self):
        wb = make_wb(history=True)
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        record = wb.history.last()
        assert record.kind == "sql"
        assert record.route == "dml:insert:compiled"
        assert record.plan_fingerprint
        assert record.rows == 1  # rows_affected is the cardinality
        wb.sql("DELETE FROM emp WHERE dept = 'it'", executor="compiled")
        assert wb.history.last().route == "dml:delete:compiled"
        wb.sql("DELETE FROM emp WHERE dept = 'hr'", executor="compiled")
        assert wb.history.last().route == "dml:delete:compiled"

    def test_metrics_count_statements_and_rows(self):
        wb = make_wb()
        wb.sql("INSERT INTO emp VALUES ('dee', 'it', 60)")
        wb.sql("DELETE FROM emp WHERE dept = 'it'")
        assert wb.metrics.counter(
            "dml_statements_total", kind="insert"
        ).value == 1
        assert wb.metrics.counter(
            "dml_statements_total", kind="delete"
        ).value == 1

    def test_explain_analyze_records_dml_like_the_plain_path(self):
        statements = (
            "INSERT INTO emp VALUES ('dee', 'it', 60)",
            "UPDATE emp SET salary = 1 WHERE dept = 'cs'",
            "DELETE FROM emp WHERE dept = 'it'",
        )
        recorded = []
        for run in ("sql", "explain_analyze"):
            tracer = Tracer()
            wb = make_wb(tracer=tracer)
            for text in statements:
                getattr(wb, run)(text)
            recorded.append((
                [
                    wb.metrics.counter("dml_statements_total", kind=kind).value
                    for kind in ("insert", "update", "delete")
                ],
                wb.metrics.counter("dml_rows_total").value,
                [
                    (span.attributes["kind"], span.attributes["rows_matched"])
                    for span in tracer.spans("dml")
                ],
            ))
        assert recorded[0] == recorded[1]
        assert recorded[0][0] == [1, 1, 1]

    def test_explain_analyze_applies_the_delta_and_reports(self):
        wb = make_wb()
        explained = wb.explain_analyze("DELETE FROM emp WHERE dept = 'cs'")
        result = explained.result
        assert isinstance(result, DMLResult)
        assert result.rows_deleted == 2
        assert wb.db["emp"].tuples == {("cal", "it", 70)}  # ANALYZE runs
        assert explained.plan_cache_hit is False
        assert explained.kernel["fingerprint"]
        assert explained.kernel["status"] == "compiled"
        assert explained.report is not None

    def test_explain_analyze_sees_warm_caches(self):
        wb = make_wb()
        wb.sql("DELETE FROM emp WHERE name = 'nobody'", executor="compiled")
        explained = wb.explain_analyze(
            "DELETE FROM emp WHERE name = 'nobody'"
        )
        assert explained.plan_cache_hit is True
        assert explained.parse_cache_hit is True
        assert explained.kernel["status"] == "compiled"
