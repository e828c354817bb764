"""Per-operator streaming semantics and work accounting.

The executor's contract has two halves: results identical to the legacy
tree walk, and *bounded intermediates* — only operator buffers (hash
build sides, dedup sets, the result) are materialized, and every unit
of work lands in an EngineStatistics counter.  These tests pin both,
operator by operator, using a Feed stub that records how many tuples
each child was asked for.
"""

from repro.datalog.stats import EngineStatistics
from repro.plan import execute, measure_treewalk
from repro.plan.physical import (
    DifferenceOp,
    HashJoin,
    Project,
    Scan,
    Select,
    SemijoinOp,
    Tally,
    ThetaJoinOp,
    UnionOp,
    _BaseIndex,
    _FLUSH_BLOCK,
    build_physical,
)
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


class Feed:
    """A physical-operator stand-in that counts pulls."""

    def __init__(self, attributes, tuples, name="feed"):
        self.schema = RelationSchema(name, attributes)
        self._tuples = list(tuples)
        self.pulled = 0

    def tuples(self):
        for t in self._tuples:
            self.pulled += 1
            yield t

    def describe(self):
        return "Feed"


def tally():
    return Tally(EngineStatistics())


def small_db():
    db = Database()
    db.add(
        Relation(
            RelationSchema("r", ("a", "b")), [(1, 2), (2, 3), (3, 4)]
        )
    )
    db.add(Relation(RelationSchema("s", ("b", "c")), [(2, 10), (3, 20)]))
    return db


class TestStreaming:
    def test_select_pulls_lazily(self):
        feed = Feed(("a",), [(1,), (2,), (3,), (4,)])
        op = Select(
            feed, ra.Comparison(ra.Attr("a"), ">", ra.Const(0)), tally()
        )
        gen = op.tuples()
        assert next(gen) == (1,)
        assert feed.pulled == 1  # nothing beyond the first match

    def test_select_buffers_nothing(self):
        t = tally()
        feed = Feed(("a",), [(i,) for i in range(100)])
        op = Select(
            feed, ra.Comparison(ra.Attr("a"), "<", ra.Const(50)), t
        )
        assert len(list(op.tuples())) == 50
        assert t.stats.tuples_materialized == 0
        assert t.peak_buffer == 0

    def test_project_dedups_and_counts_buffer(self):
        t = tally()
        feed = Feed(("a", "b"), [(1, 1), (1, 2), (2, 1)])
        op = Project(feed, ("a",), t)
        assert sorted(op.tuples()) == [(1,), (2,)]
        assert t.stats.tuples_materialized == 2  # the dedup set
        assert t.peak_buffer == 2

    def test_union_streams_left_before_touching_right(self):
        left = Feed(("a",), [(1,), (2,)])
        right = Feed(("a",), [(2,), (3,)], name="feed2")
        op = UnionOp(left, right, tally())
        gen = op.tuples()
        next(gen)
        assert right.pulled == 0
        assert sorted([t for t in gen] + [(1,)]) == [(1,), (2,), (3,)]

    def test_difference_buffers_only_right(self):
        t = tally()
        left = Feed(("a",), [(i,) for i in range(10)])
        right = Feed(("a",), [(0,), (1,)], name="feed2")
        op = DifferenceOp(left, right, t)
        assert len(list(op.tuples())) == 8
        assert t.stats.tuples_materialized == 2
        assert t.stats.index_probes == 10

    def test_degenerate_semijoin_pulls_one_right_tuple(self):
        left = Feed(("a",), [(1,), (2,)])
        right = Feed(("z",), [(7,), (8,), (9,)], name="feed2")
        op = SemijoinOp(left, right, None, tally())
        assert sorted(op.tuples()) == [(1,), (2,)]
        assert right.pulled == 1  # emptiness test only


class TestHashJoin:
    def test_probes_base_relation_index(self):
        db = small_db()
        t = tally()
        left = Scan(db["r"], t)
        index = _BaseIndex(db["s"], (0,), t)
        op = HashJoin(left, db["s"].schema, index, t)
        assert sorted(op.tuples()) == [(1, 2, 10), (2, 3, 20)]
        assert t.stats.index_builds == 1
        assert t.stats.index_probes == 3  # one per left tuple
        # The build pass scanned s (2) on top of the r scan (3).
        assert t.stats.facts_scanned == 5
        assert db["s"].cached_index_patterns() == [(0,)]

    def test_cached_base_index_is_free(self):
        db = small_db()
        db["s"]._key_index((0,))  # pre-warm, as a prior query would
        t = tally()
        op = HashJoin(
            Scan(db["r"], t),
            db["s"].schema,
            _BaseIndex(db["s"], (0,), t),
            t,
        )
        list(op.tuples())
        assert t.stats.index_builds == 0
        assert t.stats.facts_scanned == 3  # only the left scan

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
        t = tally()
        left = Feed(("a",), [(i,) for i in range(20)])
        right = Feed(("z",), [(i,) for i in range(20)], name="feed2")
        op = ThetaJoinOp(
            left,
            right,
            ra.Comparison(ra.Attr("a"), "=", ra.Const(-1)),
            t,
        )
        assert list(op.tuples()) == []
        # Only the right side is buffered — never the 400-pair product.
        assert t.stats.tuples_materialized == 20
        assert t.peak_buffer == 20

    def test_equi_conjunct_selects_hash_strategy(self):
        left = Feed(("a",), [(1,), (2,)])
        right = Feed(("z",), [(1,), (3,)], name="feed2")
        op = ThetaJoinOp(
            left,
            right,
            ra.And(
                ra.Comparison(ra.Attr("a"), "=", ra.Attr("z")),
                ra.Comparison(ra.Attr("z"), "<", ra.Const(10)),
            ),
            tally(),
        )
        assert "hash" in op.describe()
        assert list(op.tuples()) == [(1, 1)]

    def test_pure_inequality_uses_nested_loop(self):
        op = ThetaJoinOp(
            Feed(("a",), [(1,)]),
            Feed(("z",), [(2,)], name="feed2"),
            ra.Comparison(ra.Attr("a"), "<", ra.Attr("z")),
            tally(),
        )
        assert "loop" in op.describe()
        assert list(op.tuples()) == [(1, 2)]


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


class TestPhysicalOpSlots:
    def test_every_operator_is_slotted(self):
        import repro.plan.physical as physical

        ops = [
            obj for obj in vars(physical).values()
            if isinstance(obj, type)
            and issubclass(obj, physical.PhysicalOp)
        ]
        assert len(ops) > 10
        for op in ops:
            assert "__slots__" in op.__dict__, op

    def test_subclass_without_slots_is_rejected_at_class_creation(self):
        import pytest

        from repro.plan.physical import PhysicalOp

        with pytest.raises(TypeError, match="__slots__"):
            type("Sloppy", (PhysicalOp,), {})

        class Fine(PhysicalOp):
            __slots__ = ()

        assert Fine.child_slots == ()


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
        root = build_physical(
            ra.Projection(
                ra.NaturalJoin(ra.RelationRef("r"), ra.RelationRef("s")),
                ("a",),
            ),
            db,
            tally(),
        )
        assert root.describe() == "Project[a](HashJoin(Scan(r)))"


class TestBatchedAccounting:
    """Hot-loop counters are flushed in blocks but land exactly.

    The scan/probe loops accumulate a local pending count and flush it
    to the Tally every ``_FLUSH_BLOCK`` tuples plus once at generator
    exit.  These tests pin the contract: final counter values are
    identical to per-tuple charging — on sizes that are *not* block
    multiples, across every batched operator, and when a consumer
    closes the generator early.
    """

    N = 2 * _FLUSH_BLOCK + 89  # crosses two flush blocks, odd remainder

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
        db = self.wide_db()
        t = tally()
        gen = Scan(db["big"], t).tuples()
        for _ in range(10):
            next(gen)
        gen.close()
        assert t.stats.facts_scanned == 10
