"""Index access paths: equality lookups and index joins.

An equality selection over a stored relation (directly or through any
chain of renames) runs as an ``IndexLookup``; a natural or equi theta
join whose right input is such a relation probes the relation's cached
key index.  The contract has three parts, each pinned here:

* semantics — the tree walk, the interpreted executor, and the compiled
  kernel agree on every answer, including NaN, unhashable, and
  cross-type (``1``/``1.0``/``True``) constants, and the two executors
  charge identical counters;
* eligibility — NaN and unhashable constants (and virtual ``sys_``
  relations) stay on scans;
* index lifetime — an index carried forward by ``Relation.with_delta``
  equals one built from scratch, and the old version's index is never
  mutated.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_plan
from repro.core.workbench import MetatheoryWorkbench
from repro.datalog.stats import EngineStatistics
from repro.plan import canonicalize
from repro.plan.executor import execute_physical
from repro.plan.physical import (
    IndexJoinOp,
    IndexLookup,
    Select,
    Tally,
    build_physical,
)
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

NAN = float("nan")


class Unhashable:
    """An unhashable constant that still compares with ``==``."""

    __hash__ = None

    def __eq__(self, other):
        return other == 1

    def __repr__(self):
        return "Unhashable()"


#: Stored values: small ints, a float equal to an int, bools, strings,
#: and one shared NaN object (a dict finds it by identity, ``==`` never
#: matches it).
VALUES = st.sampled_from([0, 1, 2, 3, 1.0, 2.5, True, False, "x", NAN])
#: Constants: the stored values plus NaN objects, unhashable values,
#: and cross-type spellings of the same number.
#: Join inputs hold no NaN: every hash join (the tree walk's natural
#: join included) finds a NaN key by identity where ``==`` would not.
JOIN_VALUES = st.sampled_from([0, 1, 2, 3, 1.0, 2.5, True, False, "x"])
CONSTANTS = st.one_of(
    VALUES,
    st.sampled_from([float("nan"), [1], Unhashable(), 1.0, True, 0.0]),
)


def rows(arity, values=VALUES):
    return st.lists(
        st.tuples(*[values] * arity), min_size=0, max_size=12
    )


def make_db(r_rows, s_rows):
    return Database(
        [
            Relation(RelationSchema("r", ("a", "b", "c")), r_rows),
            Relation(RelationSchema("s", ("d", "e")), s_rows),
        ]
    )


def renamed(name, mapping, depth):
    """``name`` under ``depth`` renames; the last applies ``mapping``."""
    expr = ra.RelationRef(name)
    for _ in range(depth - 1):
        expr = ra.Rename(expr, {})
    return ra.Rename(expr, mapping) if depth else expr


def run_three(expr, db):
    """Tree walk, interpreted, and compiled results plus both counters.

    Each executor leg runs on its own copy of the database so both start
    index-cold and the counters compare exactly.
    """
    expected = ra.evaluate(expr, db)
    plan = canonicalize(expr, db.schema())
    i_stats, c_stats = EngineStatistics(), EngineStatistics()
    interp, i_tally = execute_physical(plan, make_copy(db), i_stats)
    kernel = compile_plan(plan, db.schema())
    compiled, c_tally = kernel.execute(make_copy(db), c_stats)
    return expected, (interp, i_stats, i_tally), (compiled, c_stats, c_tally)


def make_copy(db):
    return Database(
        [Relation(r.schema, r.tuples, validate=False) for r in db.relations()]
    )


def assert_agree(expr, db):
    expected, (interp, i_stats, i_tally), (compiled, c_stats, c_tally) = (
        run_three(expr, db)
    )
    assert interp == expected, expr
    assert compiled == expected, expr
    assert interp.schema.attributes == expected.schema.attributes
    assert c_stats.as_dict() == i_stats.as_dict(), expr
    assert c_tally.peak_buffer == i_tally.peak_buffer, expr


def equalities(attrs, data):
    """A conjunction of ``attr = const`` (either orientation) plus an
    optional residual comparison."""
    parts = []
    for attr in data.draw(
        st.lists(st.sampled_from(attrs), min_size=1, max_size=3)
    ):
        const = ra.Const(data.draw(CONSTANTS))
        if data.draw(st.booleans()):
            parts.append(ra.Comparison(ra.Attr(attr), "=", const))
        else:
            parts.append(ra.Comparison(const, "=", ra.Attr(attr)))
    if data.draw(st.booleans()):
        parts.append(
            ra.Comparison(
                ra.Attr(data.draw(st.sampled_from(attrs))),
                data.draw(st.sampled_from(["!=", "<", ">="])),
                ra.Const(data.draw(VALUES)),
            )
        )
    return parts[0] if len(parts) == 1 else ra.And(*parts)


@settings(max_examples=150, deadline=None)
@given(
    r_rows=rows(3),
    s_rows=rows(2),
    depth=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_equality_selection_three_way(r_rows, s_rows, depth, data):
    db = make_db(r_rows, s_rows)
    mapping = {"a": "x", "b": "y"} if depth else {}
    attrs = ["x", "y", "c"] if depth else ["a", "b", "c"]
    expr = ra.Selection(renamed("r", mapping, depth), equalities(attrs, data))
    assert_agree(expr, db)
    assert_agree(ra.Projection(expr, (attrs[1],)), db)


@settings(max_examples=150, deadline=None)
@given(
    r_rows=rows(3, JOIN_VALUES),
    s_rows=rows(2, JOIN_VALUES),
    depth=st.integers(min_value=1, max_value=3),
    two_keys=st.booleans(),
    residual=st.booleans(),
    data=st.data(),
)
def test_equi_join_over_renamed_base_three_way(
    r_rows, s_rows, depth, two_keys, residual, data
):
    db = make_db(r_rows, s_rows)
    left = ra.Rename(ra.RelationRef("r"), {"a": "ra", "b": "rb", "c": "rc"})
    right = renamed("s", {"d": "sd", "e": "se"}, depth)
    parts = [ra.Comparison(ra.Attr("rb"), "=", ra.Attr("sd"))]
    if two_keys:
        parts.append(ra.Comparison(ra.Attr("se"), "=", ra.Attr("ra")))
    if residual:
        parts.append(
            ra.Comparison(ra.Attr("rc"), "!=", ra.Const(data.draw(VALUES)))
        )
    condition = parts[0] if len(parts) == 1 else ra.And(*parts)
    assert_agree(ra.ThetaJoin(left, right, condition), db)
    # Natural join through a rename chain onto the base relation.
    natural = ra.NaturalJoin(
        ra.RelationRef("r"), renamed("s", {"d": "b"}, depth)
    )
    assert_agree(natural, db)
    # Selection on the left feeding the index join (the point-read shape).
    selected = ra.ThetaJoin(
        ra.Selection(left, equalities(["ra", "rb", "rc"], data)),
        right,
        condition,
    )
    assert_agree(selected, db)


def physical(expr, db):
    return build_physical(
        canonicalize(expr, db.schema()), db, Tally(EngineStatistics())
    )


class TestEligibility:
    def db(self):
        return make_db([(1, 2, 3), (NAN, 2, 4), (True, 5, 6)], [(2, 9)])

    def selection(self, value):
        return ra.Selection(
            ra.Rename(ra.RelationRef("r"), {"a": "x"}),
            ra.Comparison(ra.Attr("x"), "=", ra.Const(value)),
        )

    def test_probe_safe_constants_take_the_index(self):
        db = self.db()
        for value in (1, 1.0, True, "x", (1, 2)):
            op = physical(self.selection(value), db)
            assert isinstance(op, IndexLookup), value

    def test_nan_and_unhashable_constants_stay_scans(self):
        db = self.db()
        for value in (NAN, float("nan"), [1], Unhashable()):
            op = physical(self.selection(value), db)
            assert isinstance(op, Select), value
            assert "Scan(r)" in op.describe()
            # Same answer as the tree walk (NaN matches nothing, not
            # even the identical stored NaN object).
            assert_agree(self.selection(value), db)

    def test_cross_type_constants_find_equal_keys(self):
        db = self.db()
        for value in (1, 1.0, True):
            result = execute_physical(
                canonicalize(self.selection(value), db.schema()), db
            )[0]
            # 1 == 1.0 == True: both stored spellings match every one.
            assert result.tuples == {(1, 2, 3), (True, 5, 6)}

    def test_non_equality_conjuncts_only_stay_scans(self):
        db = self.db()
        expr = ra.Selection(
            ra.RelationRef("r"),
            ra.Or(
                ra.Comparison(ra.Attr("a"), "=", ra.Const(1)),
                ra.Comparison(ra.Attr("b"), "=", ra.Const(5)),
            ),
        )
        assert isinstance(physical(expr, db), Select)

    def test_index_join_has_no_right_child(self):
        db = self.db()
        expr = ra.ThetaJoin(
            ra.RelationRef("r"),
            ra.Rename(ra.RelationRef("s"), {"d": "sd", "e": "se"}),
            ra.Comparison(ra.Attr("b"), "=", ra.Attr("sd")),
        )
        op = physical(expr, db)
        assert isinstance(op, IndexJoinOp)
        assert op.child_slots == ("left",)
        assert op.describe() == "ThetaJoin:index(Scan(r), s)"
        assert op.label() == "ThetaJoin:index[b = sd]"

    def test_system_relations_stay_on_scans(self):
        wb = MetatheoryWorkbench(self.db())
        text = (
            "SELECT t.attribute FROM sys_catalog_stats t "
            "WHERE t.relation = 's'"
        )
        result = wb.explain_analyze(text)
        assert result.result.tuples == {("d",), ("e",)}
        assert not result.find("IndexLookup(")
        assert result.find("Scan(sys_catalog_stats)")


class TestCounters:
    def test_lookup_charges_build_once_then_probe_and_bucket(self):
        db = make_db([(i, i % 3, 0) for i in range(30)], [])
        expr = ra.Selection(
            ra.RelationRef("r"), ra.Comparison(ra.Attr("b"), "=", ra.Const(1))
        )
        plan = canonicalize(expr, db.schema())
        cold = EngineStatistics()
        execute_physical(plan, db, cold)
        assert (cold.index_builds, cold.index_probes) == (1, 1)
        assert cold.facts_scanned == 30 + 10
        assert cold.tuples_materialized == 10  # the result only
        warm = EngineStatistics()
        compile_plan(plan, db.schema()).execute(db, warm)
        assert (warm.index_builds, warm.index_probes) == (0, 1)
        assert warm.facts_scanned == 10


# -- index lifetime -----------------------------------------------------------

PATTERNS = [(0,), (1,), (0, 1), (1, 0), ()]
SMALL = st.sampled_from([0, 1, 2, 3, 1.0, True, "x", NAN])


def bucket_sets(index):
    """Buckets as sets (their order is build order), with no duplicates."""
    out = {}
    for key, bucket in index.items():
        assert bucket, key  # empty buckets are deleted, not kept
        assert len(set(bucket)) == len(bucket), key
        out[key] = frozenset(bucket)
    return out


@settings(max_examples=100, deadline=None)
@given(
    initial=st.lists(st.tuples(SMALL, SMALL), max_size=15),
    deltas=st.lists(
        st.tuples(
            st.lists(st.tuples(SMALL, SMALL), max_size=4),
            st.lists(st.integers(min_value=0, max_value=20), max_size=4),
        ),
        min_size=1,
        max_size=6,
    ),
    warm=st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=3),
)
def test_carried_forward_index_equals_fresh_build(initial, deltas, warm):
    relation = Relation(RelationSchema("p", ("u", "v")), initial)
    for positions in warm:
        relation._key_index(positions)
    for inserts, delete_picks in deltas:
        current = sorted(relation.tuples, key=repr)
        deletes = [current[i] for i in delete_picks if i < len(current)]
        before = {
            p: bucket_sets(relation._key_index(p)) for p in set(warm)
        }
        old_indexes = {p: relation._key_index(p) for p in set(warm)}
        nxt, added, removed = relation.with_delta(inserts, deletes)
        assert nxt.tuples == (relation.tuples - set(deletes)) | set(inserts)
        assert nxt.tuples == (relation.tuples - removed) | added
        assert added.isdisjoint(relation.tuples)
        assert removed <= relation.tuples
        if not added and not removed:
            assert nxt is relation
        assert sorted(nxt.cached_index_patterns()) == sorted(set(warm))
        fresh = Relation(nxt.schema, nxt.tuples, validate=False)
        for positions in set(warm):
            assert bucket_sets(nxt._key_index(positions)) == bucket_sets(
                fresh._key_index(positions)
            ), positions
            # The old version's index object was never mutated.
            assert bucket_sets(old_indexes[positions]) == before[positions]
        relation = nxt
