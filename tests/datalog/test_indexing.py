"""Tests for the key indexes semi-naive rounds probe and carry forward.

The load-bearing property: a relation's cached key index, built once on
its first probe, stays valid when a round merges new tuples into it
(:meth:`GrowingRelation.grow`) — patched in place, never rebuilt —
which is what lets the semi-naive loop probe instead of rescanning.
Also covers the fact store's copies and the delta contract of the
driver's differential variants: a variant reads the delta exactly where
asked and never derives facts the full rule would not.
"""

import copy

from repro.datalog import (
    EngineStatistics,
    FactStore,
    naive_evaluate,
    parse_program,
    parse_rule,
    seminaive_evaluate,
)
from repro.datalog.lowering import lower_rule
from repro.datalog.seminaive import _source, _variants
from repro.plan import canonicalize, execute_physical
from repro.relational import algebra as ra
from repro.relational.database import Database
from repro.relational.relation import GrowingRelation, Relation
from repro.relational.schema import RelationSchema


def relation(name, rows, attributes=("c0", "c1")):
    return Relation(RelationSchema(name, attributes), rows)


def _brute_force_index(tuples, positions):
    table = {}
    for tup in tuples:
        table.setdefault(tuple(tup[p] for p in positions), []).append(tup)
    return table


def probe_e(e, stats):
    """Run a kernel that probes ``e``'s cached index on its first column
    (the right side of ``d ⋈ e``)."""
    d = relation("d", [(0, 1), (0, 2)], ("a", "b"))
    db = Database.bound([d, e])
    plan = canonicalize(
        ra.NaturalJoin(
            ra.RelationRef("d"),
            ra.Rename(ra.RelationRef("e"), {"c0": "b", "c1": "c"}),
        ),
        db.schema(),
    )
    return execute_physical(plan, db, stats)[0]


class TestIndexFor:
    def test_matches_brute_force(self):
        e = relation("e", [(1, 2), (1, 3), (2, 3), (4, 4)])
        for positions in [(0,), (1,), (0, 1), (1, 0)]:
            expected = _brute_force_index(e.tuples, positions)
            actual = e._key_index(positions)
            assert {k: sorted(v) for k, v in actual.items()} == {
                k: sorted(v) for k, v in expected.items()
            }

    def test_indexes_are_lazy(self):
        e = relation("e", [(1, 2)])
        assert e.cached_index_patterns() == []
        e._key_index((0,))
        assert e.cached_index_patterns() == [(0,)]

    def test_build_charged_once(self):
        e = relation("e", [(1, 2), (2, 3)])
        stats = EngineStatistics()
        probe_e(e, stats)
        probe_e(e, stats)  # warm: no new build
        assert stats.index_builds == 1
        assert e.cached_index_patterns() == [(0,)]

    def test_empty_predicate_index(self):
        assert relation("nothing", [])._key_index((0,)) == {}


class TestIncrementalMaintenance:
    def growing(self, rows):
        return GrowingRelation(RelationSchema("e", ("c0", "c1")), rows)

    def test_add_updates_existing_indexes(self):
        e = self.growing([(1, 2)])
        e._key_index((0,))
        e.grow({(1, 3), (5, 6)})
        index = e._key_index((0,))
        assert sorted(index[(1,)]) == [(1, 2), (1, 3)]
        assert index[(5,)] == [(5, 6)]
        assert e.tuples == {(1, 2), (1, 3), (5, 6)}

    def test_no_rebuild_after_adds(self):
        e = self.growing([(1, 2)])
        probe_e(e, EngineStatistics())
        e.grow({(2, 3)})
        assert e.has_key_index((0,))  # patched, not rebuilt
        stats = EngineStatistics()
        result = probe_e(e, stats)
        assert stats.index_builds == 0
        assert result.tuples == {(0, 1, 2), (0, 2, 3)}

    def test_duplicate_add_leaves_indexes_alone(self):
        e = self.growing([(1, 2)])
        index = e._key_index((0,))
        e.grow(frozenset())
        assert e._key_index((0,)) is index
        assert index == {(1,): [(1, 2)]}
        # Growing a relation never touches another relation's index.
        f = relation("f", [(1, 2)])
        f_index = f._key_index((0,))
        e.grow({(1, 3)})
        assert f_index == {(1,): [(1, 2)]}

    def test_maintenance_covers_all_patterns(self):
        e = self.growing([(1, 2)])
        e._key_index((0,))
        e._key_index((1,))
        e.grow({(3, 2)})
        assert e.cached_index_patterns() == [(0,), (1,)]
        assert e._key_index((0,))[(3,)] == [(3, 2)]
        assert sorted(e._key_index((1,))[(2,)]) == [(1, 2), (3, 2)]


class TestCopies:
    def test_copy_is_independent_and_unindexed(self):
        store = FactStore({"e": [(1, 2)]})
        clone = store.copy()
        assert clone.get("e") == {(1, 2)}
        clone.add("e", (9, 9))
        assert not store.contains("e", (9, 9))
        e = relation("e", [(1, 2)])
        e._key_index((0,))
        assert copy.copy(e).cached_index_patterns() == []  # rebuilt lazily

    def test_restrict_keeps_only_named_predicates(self):
        store = FactStore({"e": [(1, 2)], "f": [(3,)]})
        sub = store.restrict(["e"])
        assert sub.predicates() == ["e"]

    def test_engines_do_not_mutate_edb(self):
        program, _ = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."
        )
        edb = FactStore({"edge": [(0, 1), (1, 2)]})
        naive_evaluate(program, edb)
        seminaive_evaluate(program, edb)
        assert edb.count() == 2 and edb.predicates() == ["edge"]


class TestDeltaContract:
    """A differential variant reads the delta exactly where asked."""

    RULE = "p(X, Z) :- e(X, Y), e(Y, Z)."

    def fire(self, full, delta=None):
        """Each variant's tuples when the delta is ``delta`` (by the
        position of its delta literal), or the full rule's."""
        rule = parse_rule(self.RULE)
        relations = {"e": relation("e", full)}
        if delta is None:
            expr = lower_rule(rule, _source(relations, None, {}))
            return ra.evaluate(expr, Database.bound(relations.values())).tuples
        deltas = {"e": RelationSchema("e~delta", ("c0", "c1"))}
        relations["e~delta"] = Relation(deltas["e"], delta)
        db = Database.bound(relations.values())
        derived = {}
        for literal, variant in _variants(rule, {"e"}):
            expr = lower_rule(
                variant, _source(relations, literal.atom, deltas)
            )
            derived[rule.body.index(literal)] = ra.evaluate(expr, db).tuples
        return derived

    def test_delta_restricts_one_position(self):
        derived = self.fire([(1, 2), (2, 3)], delta=[(1, 2)])
        assert derived[0] == {(1, 3)}  # delta (1,2) then full e
        assert derived[1] == set()  # full e then delta at position 1

    def test_delta_union_covers_full_firing(self):
        """Firing once per delta position reproduces the full result when
        the delta is the whole relation — and never exceeds it."""
        edges = [(1, 2), (2, 3), (3, 4)]
        full = self.fire(edges)
        union = set()
        for derived in self.fire(edges, delta=edges).values():
            assert derived <= full
            union |= derived
        assert union == full

    def test_seminaive_never_double_derives(self):
        """Every fact lands in exactly one round's delta: with the whole
        EDB as round-0 input, total derivations equal the fixpoint size."""
        program, _ = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."
        )
        edb = FactStore({"edge": [(i, i + 1) for i in range(8)]})
        store = seminaive_evaluate(program, edb)
        reference = naive_evaluate(program, edb)
        assert store == reference
