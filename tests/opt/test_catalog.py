"""Catalog statistics: lazy scans, binding validation, incremental insert."""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.obs.metrics import MetricsRegistry
from repro.opt import Catalog, Optimizer, TableStats
from repro.relational import (
    Database,
    NaturalJoin,
    Relation,
    RelationRef,
    RelationSchema,
)
from repro.relational.database import is_system_name


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "r": (("a", "b"), [(i, i % 3) for i in range(12)]),
            "s": (("b", "c"), [(0, "x"), (1, "y"), (2, "z")]),
        }
    )


class TestTableStats:
    def test_census(self, db):
        stats = TableStats.from_relation(db["r"])
        assert stats.rows == 12
        assert stats.distinct("a") == 12
        assert stats.distinct("b") == 3
        assert stats.distincts() == {"a": 12, "b": 3}

    def test_unknown_attribute_is_zero(self, db):
        stats = TableStats.from_relation(db["r"])
        assert stats.distinct("nope") == 0

    def test_observe_folds_new_rows(self, db):
        stats = TableStats.from_relation(db["s"])
        stats.observe([(3, "w"), (4, "x")])
        assert stats.rows == 5
        assert stats.distinct("b") == 5
        assert stats.distinct("c") == 4  # "x" was already known


class TestCatalogCaching:
    def test_lazy_and_cached(self, db):
        catalog = db.catalog()
        assert catalog.rescans == 0
        assert catalog.rows("r") == 12
        assert catalog.rescans == 1
        assert catalog.distinct("r", "b") == 3
        assert catalog.rescans == 1  # same binding, no rescan

    def test_catalog_is_per_database_singleton(self, db):
        assert db.catalog() is db.catalog()

    def test_unknown_name(self, db):
        catalog = db.catalog()
        assert catalog.stats("nope") is None
        assert catalog.rows("nope") == 0
        assert catalog.distinct("nope", "a") == 0

    def test_replace_invalidates(self, db):
        catalog = db.catalog()
        assert catalog.rows("s") == 3
        schema = RelationSchema("s", ("b", "c"))
        db.replace(Relation(schema, [(9, "q")]))
        assert catalog.rows("s") == 1
        assert catalog.rescans == 2

    def test_remove_and_invalidate_all(self, db):
        catalog = db.catalog()
        catalog.stats("r")
        db.remove("r")
        assert catalog.stats("r") is None
        catalog.stats("s")
        catalog.invalidate()
        before = catalog.rescans
        catalog.stats("s")
        assert catalog.rescans == before + 1


class TestIncrementalInsert:
    def test_insert_maintains_without_rescan(self, db):
        catalog = db.catalog()
        catalog.stats("r")
        assert catalog.rescans == 1
        db.insert("r", [(100, 7), (101, 7)])
        stats = catalog.stats("r")
        assert catalog.rescans == 1  # folded, not rescanned
        fresh = TableStats.from_relation(db["r"])
        assert stats.rows == fresh.rows == 14
        assert stats.distincts() == fresh.distincts()

    def test_insert_dedups_existing_rows(self, db):
        catalog = db.catalog()
        catalog.stats("s")
        db.insert("s", [(0, "x"), (5, "v")])  # (0, "x") already present
        stats = catalog.stats("s")
        assert stats.rows == 4
        assert stats.distinct("b") == 4
        assert catalog.rescans == 1

    def test_insert_without_cached_entry_scans_lazily(self, db):
        catalog = db.catalog()
        db.insert("r", [(100, 7)])  # no entry yet: nothing to maintain
        assert catalog.rescans == 0
        assert catalog.rows("r") == 13
        assert catalog.rescans == 1

    def test_insert_without_catalog(self):
        db = Database.from_dict({"t": (("a",), [(1,)])})
        db.insert("t", [(2,)])  # must not create or need a catalog
        assert len(db["t"]) == 2

    def test_standalone_catalog_binding_check(self, db):
        catalog = Catalog(db)
        first = catalog.stats("r")
        assert catalog.stats("r") is first


class TestSystemRelations:
    """A ``sys_`` relation is a fresh snapshot on every lookup: planning
    and EXPLAIN must not materialize it, and the catalog keeps none."""

    @pytest.fixture
    def session(self):
        calls = []

        def provider():
            calls.append(1)
            return [(i, "ok") for i in range(4)]

        wb = MetatheoryWorkbench(
            Database.from_dict(
                {
                    "emp": (("eid", "dept"), [(i, i % 2) for i in range(6)]),
                    "dept": (("dept", "name"), [(0, "a"), (1, "b")]),
                }
            ),
            metrics=MetricsRegistry(),
        )
        wb.db.register_virtual(
            RelationSchema("sys_probe", ("eid", "status")), provider
        )
        return wb, calls

    def test_optimizing_never_runs_the_provider(self, session):
        wb, calls = session
        expr = NaturalJoin(
            NaturalJoin(RelationRef("emp"), RelationRef("sys_probe")),
            RelationRef("dept"),
        )
        catalog = wb.db.catalog()
        Optimizer().optimize(expr, wb.db)
        assert calls == []
        assert catalog.stats("sys_probe") is None
        assert not any(is_system_name(name) for name in catalog._entries)

    def test_explain_runs_the_provider_only_to_execute(self, session):
        wb, calls = session
        catalog = wb.db.catalog()
        catalog.stats("emp")
        rescans = catalog.rescans
        query = (
            "SELECT e.eid, p.status FROM emp e, sys_probe p "
            "WHERE e.eid = p.eid"
        )
        for run in (1, 2):  # a plan-cache miss, then a hit
            explained = wb.explain_analyze(query)
            assert len(explained.result) == 4
            assert len(calls) == run
        assert catalog.rescans == rescans
        assert not any(is_system_name(name) for name in catalog._entries)
