"""Per-operator work accounting and results of compiled kernels.

The executor's contract has two halves: results identical to the tree
walk, and *bounded intermediates* — only operator buffers (hash build
sides, dedup sets, set-operation right sides, the result) are
materialized, and every unit of work lands in an EngineStatistics
counter.  These tests pin both, operator by operator.
"""

import pytest

from repro.compile import compile_plan
from repro.datalog.stats import EngineStatistics
from repro.plan import canonicalize, execute, measure_treewalk, run_explained
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


def small_db():
    db = Database()
    db.add(
        Relation(
            RelationSchema("r", ("a", "b")), [(1, 2), (2, 3), (3, 4)]
        )
    )
    db.add(Relation(RelationSchema("s", ("b", "c")), [(2, 10), (3, 20)]))
    return db


def column_db(**columns):
    """One unary relation per keyword: ``name=(attribute, values)``."""
    return Database.from_dict(
        {
            name: ((attribute,), [(v,) for v in values])
            for name, (attribute, values) in columns.items()
        }
    )


def run(expr, db):
    """The kernel's result and the work it charged."""
    stats = EngineStatistics()
    return execute(expr, db, stats), stats


def operators(expr, db):
    """EXPLAIN ANALYZE's operator labels for ``expr``, pre-order."""
    return run_explained(canonicalize(expr, db.schema()), db).operators()


class TestStreaming:
    def test_select_buffers_nothing(self):
        db = column_db(f=("a", range(100)))
        result, stats = run(
            ra.Selection(
                ra.RelationRef("f"),
                ra.Comparison(ra.Attr("a"), "<", ra.Const(50)),
            ),
            db,
        )
        assert len(result) == 50
        # The filter streams; only the result is a buffer.
        assert stats.tuples_materialized == 50
        assert stats.facts_scanned == 100

    def test_project_dedups_and_counts_buffer(self):
        db = Database.from_dict(
            {"f": (("a", "b"), [(1, 1), (1, 2), (2, 1)])}
        )
        result, stats = run(ra.Projection(ra.RelationRef("f"), ("a",)), db)
        assert sorted(result.tuples) == [(1,), (2,)]
        assert stats.tuples_materialized == 2 + 2  # dedup set + result

    def test_union_streams_left_before_touching_right(self):
        # The left input's pipeline runs to the end, unbuffered, before
        # the right input's starts; one dedup set serves both.
        db = column_db(f=("a", [1, 2]), g=("a", [2, 3]))
        expr = ra.Union(ra.RelationRef("f"), ra.RelationRef("g"))
        source = compile_plan(expr, db.schema()).source
        assert source.index("_db['f']") < source.index("_db['g']")
        assert source.count("set()") == 2  # the union's and the result's
        result, stats = run(expr, db)
        assert sorted(result.tuples) == [(1,), (2,), (3,)]
        assert stats.tuples_materialized == 3 + 3  # dedup set + result

    def test_difference_buffers_only_right(self):
        db = column_db(f=("a", range(10)), g=("a", [0, 1]))
        result, stats = run(
            ra.Difference(ra.RelationRef("f"), ra.RelationRef("g")), db
        )
        assert len(result) == 8
        assert stats.tuples_materialized == 2 + 8  # right set + result
        assert stats.index_probes == 10

    def test_degenerate_semijoin_reads_no_right_tuple(self):
        # No shared attribute: a stored right side's emptiness is its
        # length, so none of its tuples is read.
        db = column_db(f=("a", [1, 2]), g=("z", [7, 8, 9]), e=("z", []))
        for right, kept in (("g", 2), ("e", 0)):
            result, stats = run(
                ra.Semijoin(ra.RelationRef("f"), ra.RelationRef(right)), db
            )
            assert len(result) == kept
            assert stats.facts_scanned == (2 if kept else 0)
            result, _stats = run(
                ra.Antijoin(ra.RelationRef("f"), ra.RelationRef(right)), db
            )
            assert len(result) == 2 - kept


class TestHashJoin:
    def test_probes_base_relation_index(self):
        db = small_db()
        result, stats = run(
            ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s")), db
        )
        assert sorted(result.tuples) == [(1, 2, 10), (2, 3, 20)]
        assert stats.index_builds == 1
        assert stats.index_probes == 3  # one per left tuple
        # The build pass scanned s (2) on top of the r scan (3).
        assert stats.facts_scanned == 5
        assert stats.tuples_materialized == 2  # the result only
        assert db["s"].cached_index_patterns() == [(0,)]

    def test_cached_base_index_is_free(self):
        db = small_db()
        db["s"]._key_index((0,))  # pre-warm, as a prior query would
        _result, stats = run(
            ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s")), db
        )
        assert stats.index_builds == 0
        assert stats.facts_scanned == 3  # only the left scan

    def test_built_index_counts_buffered_tuples(self):
        db = small_db()
        expr = ra.NaturalJoin(
            ra.RelationRef("r"),
            ra.Selection(
                ra.RelationRef("s"),
                ra.Comparison(ra.Attr("c"), ">", ra.Const(0)),
            ),
        )
        stats = EngineStatistics()
        result = execute(expr, db, stats=stats)
        assert len(result) == 2
        assert stats.index_builds == 1
        assert stats.tuples_materialized == 2 + 2  # build table + result


class TestThetaJoin:
    def test_no_equi_conjunct_never_materializes_product(self):
        db = column_db(f=("a", range(20)), g=("z", range(20)))
        result, stats = run(
            ra.ThetaJoin(
                ra.RelationRef("f"),
                ra.RelationRef("g"),
                ra.Comparison(ra.Attr("a"), "=", ra.Const(-1)),
            ),
            db,
        )
        assert len(result) == 0
        # Only the right side is buffered — never the 400-pair product.
        assert stats.tuples_materialized == 20

    def test_equi_conjunct_selects_hash_strategy(self):
        db = column_db(f=("a", [1, 2]), g=("z", [1, 3]))
        expr = ra.ThetaJoin(
            ra.RelationRef("f"),
            ra.Selection(
                ra.RelationRef("g"),
                ra.Comparison(ra.Attr("z"), "<", ra.Const(10)),
            ),
            ra.Comparison(ra.Attr("a"), "=", ra.Attr("z")),
        )
        assert operators(expr, db)[1].startswith("ThetaJoin:hash[")
        assert execute(expr, db).tuples == {(1, 1)}

    def test_pure_inequality_uses_nested_loop(self):
        db = column_db(f=("a", [1]), g=("z", [2]))
        expr = ra.ThetaJoin(
            ra.RelationRef("f"),
            ra.RelationRef("g"),
            ra.Comparison(ra.Attr("a"), "<", ra.Attr("z")),
        )
        assert operators(expr, db)[1].startswith("ThetaJoin:loop[")
        assert execute(expr, db).tuples == {(1, 2)}


class TestExecute:
    def test_preserves_legacy_attribute_order(self):
        db = small_db()
        expr = ra.Projection(
            ra.NaturalJoin(ra.RelationRef("s"), ra.RelationRef("r")),
            ("c", "a"),
        )
        fast = execute(expr, db)
        legacy = ra.evaluate(expr, db)
        assert fast == legacy
        assert fast.schema.attributes == legacy.schema.attributes

    def test_result_counts_as_buffer(self):
        db = small_db()
        stats = EngineStatistics()
        result = execute(ra.RelationRef("r"), db, stats=stats)
        assert len(result) == 3
        assert stats.tuples_materialized == 3
        assert stats.facts_scanned == 3


class TestMeasureTreewalk:
    def test_counts_every_intermediate(self):
        db = small_db()
        expr = ra.Projection(
            ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s")),
            ("a",),
        )
        result, stats, peak = measure_treewalk(expr, db)
        assert result == ra.evaluate(expr, db)
        # join result (2) + projection result (2); leaves are free.
        assert stats.tuples_materialized == 4
        assert peak == 2

    def test_leaves_are_free(self):
        db = small_db()
        _, stats, peak = measure_treewalk(ra.RelationRef("r"), db)
        assert stats.tuples_materialized == 0
        assert peak == 0

    def test_failure_leaves_no_global_state_behind(self):
        # Regression guard: measurement must be purely local — a failing
        # run may not leak instrumentation into the algebra layer or
        # change how later evaluations behave (test pollution).
        import pytest

        from repro.errors import SchemaError

        db = small_db()
        good = ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s"))
        before = ra.evaluate(good, db)
        bad = ra.Projection(ra.RelationRef("r"), ("nope",))
        with pytest.raises(SchemaError):
            measure_treewalk(bad, db)
        assert ra.evaluate(good, db) == before
        result, stats, _peak = measure_treewalk(good, db)
        assert result == before
        assert stats.tuples_materialized == len(before)


class TestBuildPhysical:
    def test_every_operator_kind_runs(self):
        db = small_db()
        r, s = ra.RelationRef("r"), ra.RelationRef("s")
        s_renamed = ra.Rename(s, {"b": "y", "c": "z"})
        exprs = [
            ra.Selection(r, ra.Comparison(ra.Attr("a"), ">", ra.Const(1))),
            ra.Projection(r, ("b",)),
            ra.Rename(r, {"a": "x"}),
            ra.NaturalJoin(r, s),
            ra.ThetaJoin(
                r, s_renamed, ra.Comparison(ra.Attr("b"), "<", ra.Attr("y"))
            ),
            ra.Product(r, s_renamed),
            ra.Union(r, r),
            ra.Difference(
                r, ra.Selection(r, ra.Comparison(ra.Attr("a"), "=", ra.Const(1)))
            ),
            ra.Intersection(r, r),
            ra.Semijoin(r, s),
            ra.Antijoin(r, s),
            ra.Division(
                r,
                ra.ConstantRelation(
                    Relation(RelationSchema("d", ("b",)), [(2,)])
                ),
            ),
        ]
        for expr in exprs:
            assert execute(expr, db) == ra.evaluate(expr, db), expr

    def test_operator_tree_describe(self):
        db = small_db()
        expr = ra.Projection(
            ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s")),
            ("a",),
        )
        assert operators(expr, db) == [
            "Result", "Project[a]", "HashJoin:base[b]", "Scan(r)",
        ]


class TestBatchedAccounting:
    """Kernel counters are kept in locals and flushed once, but land
    exactly: one scan per stored tuple read, one probe per left tuple."""

    N = 601

    def wide_db(self):
        db = Database()
        db.add(
            Relation(
                RelationSchema("big", ("a", "b")),
                [(i, i % 7) for i in range(self.N)],
            )
        )
        db.add(
            Relation(
                RelationSchema("dim", ("b", "c")),
                [(i, i * 10) for i in range(7)],
            )
        )
        return db

    def test_scan_counts_exactly(self):
        db = self.wide_db()
        stats = EngineStatistics()
        execute(ra.RelationRef("big"), db, stats)
        assert stats.facts_scanned == self.N

    def test_hash_join_probes_once_per_left_tuple(self):
        db = self.wide_db()
        stats = EngineStatistics()
        execute(
            ra.NaturalJoin(ra.RelationRef("big"), ra.RelationRef("dim")),
            db,
            stats,
        )
        assert stats.index_probes == self.N
        # big scanned once; dim scanned once for its index build.
        assert stats.facts_scanned == self.N + 7

    def test_set_ops_probe_once_per_left_tuple(self):
        db = self.wide_db()
        big = ra.RelationRef("big")
        half = ra.Selection(
            big, ra.Comparison(ra.Attr("b"), "=", ra.Const(0))
        )
        # The right side of the set operations is an equality selection
        # over a stored relation: an IndexLookup, charged one probe.
        for expr, right_probes in (
            (ra.Difference(big, half), 1),
            (ra.Intersection(big, half), 1),
            (ra.Semijoin(big, ra.RelationRef("dim")), 0),
            (ra.Antijoin(big, ra.RelationRef("dim")), 0),
        ):
            stats = EngineStatistics()
            execute(expr, db, stats)
            assert stats.index_probes == self.N + right_probes, expr

    def test_theta_hash_probes_once_per_left_tuple(self):
        db = self.wide_db()
        stats = EngineStatistics()
        execute(
            ra.ThetaJoin(
                ra.RelationRef("big"),
                ra.Rename(ra.RelationRef("dim"), {"b": "d", "c": "e"}),
                ra.Comparison(ra.Attr("b"), "=", ra.Attr("d")),
            ),
            db,
            stats,
        )
        assert stats.index_probes == self.N
        # The renamed base relation is probed through its cached index:
        # built once (one pass over dim), never drained into a table.
        assert stats.index_builds == 1
        assert stats.facts_scanned == self.N + 7
        assert stats.tuples_materialized == self.N  # the result only
        assert db["dim"].cached_index_patterns() == [(0,)]

    def test_early_close_flushes_pending(self):
        # A kernel that stops early (here: a comparison raises on the
        # tenth row) still flushes the counters it accumulated.
        class Poison:
            def __eq__(self, other):
                raise ValueError("poisoned row")

            __hash__ = object.__hash__

        db = Database.from_dict(
            {"big": (("a",), [(i,) for i in range(9)] + [(Poison(),)])}
        )
        expr = ra.Selection(
            ra.RelationRef("big"),
            ra.Comparison(ra.Attr("a"), "!=", ra.Const("x")),
        )
        stats = EngineStatistics()
        with pytest.raises(ValueError):
            execute(expr, db, stats)
        assert stats.facts_scanned == 10
