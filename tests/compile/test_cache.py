"""KernelCache behavior: keying, counters, eviction.

The acceptance-critical property lives here: resolving the *same* plan
against the *same* schema a second time performs **zero** code
generation — ``codegens`` stays put while ``hits`` advances — and a
schema change invalidates without poisoning.
"""

import pytest

from repro.compile import KernelCache, compile_plan
from repro.compile import cache as compile_cache
from repro.datalog.stats import EngineStatistics
from repro.errors import PlanError
from repro.plan import canonicalize, execute, run_explained
from repro.plan.executor import execute_physical
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


def small_db():
    return Database.from_dict(
        {
            "r": (("a", "b"), [(i, i % 3) for i in range(12)]),
            "s": (("b", "c"), [(i, i * 10) for i in range(3)]),
        }
    )


def join_plan(db):
    return canonicalize(
        ra.Projection(
            ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s")),
            ("a", "c"),
        ),
        db.schema(),
    )


def no_shared_plan(db):
    # Semijoin with no shared attributes: the right side's emptiness
    # decides.
    return canonicalize(
        ra.Semijoin(
            ra.RelationRef("r"),
            ra.Rename(ra.RelationRef("s"), {"b": "x", "c": "y"}),
        ),
        db.schema(),
    )


class TestResolve:
    def test_second_resolution_does_zero_codegen(self):
        db = small_db()
        cache = KernelCache()
        plan = join_plan(db)
        first = cache.resolve(plan, db)
        assert cache.stats()["codegens"] == 1
        again = cache.resolve(plan, db)
        assert again is first
        stats = cache.stats()
        assert stats["codegens"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_kernel_survives_content_change_same_schema(self):
        db = small_db()
        cache = KernelCache()
        plan = join_plan(db)
        kernel = cache.resolve(plan, db)
        db.replace(
            Relation(RelationSchema("r", ("a", "b")), [(7, 0), (8, 1)])
        )
        again = cache.resolve(plan, db)
        assert again is kernel  # same schema token: cache entry reused
        result, _tally = kernel.execute(db)
        assert result == ra.evaluate(plan, db)

    def test_unrelated_schema_change_keeps_the_kernel(self):
        # The key narrows to the plan's own relations: adding an
        # unrelated table must not orphan the compiled kernel.
        db = small_db()
        cache = KernelCache()
        plan = join_plan(db)
        kernel = cache.resolve(plan, db)
        db.add(
            Relation(RelationSchema("t", ("d",)), [(1,)])
        )
        again = cache.resolve(plan, db)
        assert again is kernel
        assert cache.stats()["codegens"] == 1
        assert cache.stats()["hits"] == 1

    def test_referenced_schema_change_misses_the_cache(self):
        # Reshaping a relation the plan reads invalidates: attribute
        # positions were compiled in.
        db = small_db()
        cache = KernelCache()
        plan = join_plan(db)
        cache.resolve(plan, db)
        db.remove("r")
        db.add(
            Relation(RelationSchema("r", ("a", "b", "extra")),
                     [(i, i % 3, 0) for i in range(12)])
        )
        cache.resolve(plan, db)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["codegens"] == 2

    def test_invalidate_relations_is_surgical(self):
        db = small_db()
        cache = KernelCache()
        cache.resolve(join_plan(db), db)
        assert cache.invalidate_relations({"unrelated"}) == 0
        assert len(cache) == 1
        assert cache.invalidate_relations({"r"}) == 1
        assert len(cache) == 0

    def test_fifo_eviction(self):
        db = small_db()
        cache = KernelCache(capacity=2)
        plans = [
            canonicalize(
                ra.Selection(
                    ra.RelationRef("r"),
                    ra.Comparison(ra.Attr("a"), "=", ra.Const(i)),
                ),
                db.schema(),
            )
            for i in range(3)
        ]
        for plan in plans:
            cache.resolve(plan, db)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # The oldest entry is gone: resolving it again re-generates.
        cache.resolve(plans[0], db)
        assert cache.stats()["codegens"] == 4

    def test_first_resolution_compiles(self):
        # A plan compiles on its first miss, whatever its shape; the
        # benchmark reads fallback_runs, which stays 0.
        db = small_db()
        cache = KernelCache()
        for plan in (join_plan(db), no_shared_plan(db)):
            kernel = cache.resolve(plan, db)
            assert kernel.execute(db)[0] == ra.evaluate(plan, db)
        stats = cache.stats()
        assert (stats["misses"], stats["codegens"]) == (2, 2)
        assert stats["fallback_runs"] == 0


class TestIntrospectionSurface:
    def test_entries_rows_and_fingerprints(self):
        db = small_db()
        cache = KernelCache()
        kernel = cache.resolve(join_plan(db), db)
        cache.resolve(no_shared_plan(db), db)
        rows = cache.entries()
        assert len(rows) == 2
        index, fingerprint, status, pipelines, hits = rows[0]
        assert (index, status, hits) == (0, "compiled", 0)
        assert fingerprint == kernel.fingerprint
        assert len(fingerprint) == 12
        assert pipelines == kernel.pipelines
        assert rows[1][2] == "compiled" and rows[1][3] >= 1

    def test_publish_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        db = small_db()
        cache = KernelCache()
        cache.resolve(join_plan(db), db)
        registry = cache.publish(MetricsRegistry())
        assert registry.value("kernel_cache_codegens") == 1
        assert registry.value("kernel_cache_size") == 1

    def test_clear_resets_everything(self):
        db = small_db()
        cache = KernelCache()
        cache.resolve(join_plan(db), db)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0


class TestExecuteCompiled:
    def test_adhoc_execution_without_cache(self):
        # execute_physical runs a one-shot kernel.
        db = small_db()
        plan = join_plan(db)
        result, tally = execute_physical(plan, db, EngineStatistics())
        assert result == ra.evaluate(plan, db)
        assert tally.stats.facts_scanned > 0

    def test_one_shot_kernels_are_cached_per_template(self, monkeypatch):
        # Two executions that differ only in a literal share one
        # template, so the second compiles nothing.
        monkeypatch.setattr(compile_cache, "ONE_SHOT", KernelCache())
        db = small_db()

        def select(value):
            return ra.Selection(
                ra.RelationRef("r"),
                ra.Comparison(ra.Attr("b"), "=", ra.Const(value)),
            )

        assert execute(select(1), db) == ra.evaluate(select(1), db)
        assert execute(select(2), db) == ra.evaluate(select(2), db)
        stats = compile_cache.ONE_SHOT.stats()
        assert stats["codegens"] == 1 and stats["hits"] == 1
        # EXPLAIN ANALYZE's one-shot run takes that kernel's variant.
        explained = run_explained(canonicalize(select(0), db.schema()), db)
        assert explained.result == ra.evaluate(select(0), db)
        assert compile_cache.ONE_SHOT.stats()["codegens"] == 1

    def test_fallback_raises_through_cache(self):
        # The generator refuses no canonical plan, so nothing falls back
        # to another executor; a node outside the canonical set fails at
        # plan time, through the cache as well as without it.
        db = small_db()
        plan = ra.Projection(NotCanonical(), ("a",))
        with pytest.raises(PlanError, match="canonicalize first"):
            KernelCache().resolve(plan, db)
        with pytest.raises(PlanError):
            execute_physical(plan, db)

    def test_kernel_source_is_inspectable(self):
        db = small_db()
        kernel = compile_plan(join_plan(db), db.schema())
        assert "def kernel(_db, _tally, _params):" in kernel.source
        assert kernel.pipelines >= 1
        assert "pipelines" in repr(kernel)


class NotCanonical(ra.RelationRef):
    """A relation reference subclass: not one of the canonical node
    types the generator dispatches on."""

    def __init__(self):
        super().__init__("r")
