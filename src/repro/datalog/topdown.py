"""Top-down Datalog evaluation with tabling (QSQ style).

The Prolog-style alternative to bottom-up evaluation: resolve the query
goal against rule heads, recursively solving subgoals — but with
*memoization tables* keyed by (predicate, binding pattern, bound values),
so recursion terminates and each subgoal is solved once.  This is the
query-subquery (QSQ) family of methods; magic sets is its bottom-up
simulation, and a classical result says the two explore the same relevant
facts.

The implementation runs a worklist fixpoint over the table of subgoals:
each pass re-resolves every discovered subgoal against the current answer
tables, which is the simplest terminating formulation of tabling (answers
grow monotonically, so the fixpoint is the correct minimal model restricted
to relevant subgoals).

Every literal is solved through the in-order scan matcher naive
evaluation uses (:func:`~repro.datalog.matching.extend_bindings`), in
body order: in top-down evaluation the literal order is the
sideways-information-passing strategy that decides which subgoals get
tabled, so it is part of the method, not a free physical choice.

Scope: positive programs, like the magic module (and for the same
classical reasons).
"""

from __future__ import annotations

from ..errors import DatalogError
from ..obs.trace import NULL_TRACER
from .ast import Comparison, Constant
from .facts import FactStore
from .magic import match_query
from .matching import extend_bindings


class _Subgoal:
    """A call pattern: predicate plus per-position bound values (or None)."""

    __slots__ = ("predicate", "pattern")

    def __init__(self, predicate, pattern):
        self.predicate = predicate
        self.pattern = tuple(pattern)

    def key(self):
        return (self.predicate, self.pattern)

    def matches(self, values):
        return all(
            p is None or p == v for p, v in zip(self.pattern, values)
        )

    def __repr__(self):
        rendered = ",".join(
            "_" if p is None else repr(p) for p in self.pattern
        )
        return "%s(%s)" % (self.predicate, rendered)


class TopDownEngine:
    """Tabled top-down evaluation of one program over one EDB.

    The engine is reusable across queries; tables persist and accumulate
    (sound, since Datalog is monotone).
    """

    def __init__(self, program, edb, stats=None, tracer=NULL_TRACER):
        if program.has_negation():
            raise DatalogError(
                "top-down tabling is implemented for positive programs"
            )
        self.program = program
        self.idb = program.idb_predicates()
        self.stats = stats
        self.tracer = tracer
        self.tables = {}  # subgoal key -> set of answer tuples
        self.subgoals = {}  # subgoal key -> _Subgoal
        self._new_subgoals = False
        # EDB + program-text facts, in one store.  Text facts for IDB
        # predicates seed the answer tables instead (resolution only
        # fires body-ful rules, so they would otherwise be lost — the
        # differential suite pins this).
        facts = edb.copy() if edb is not None else FactStore()
        self._idb_facts = {}
        for predicate, values in program.facts():
            if predicate in self.idb:
                self._idb_facts.setdefault(predicate, set()).add(values)
            else:
                facts.add(predicate, values)
        self.edb = facts

    # -- public API ------------------------------------------------------

    def query(self, query_atom):
        """All ground tuples of the query predicate matching the atom."""
        subgoal = self._subgoal_for(query_atom)
        if query_atom.predicate not in self.idb:
            facts = self._edb_facts(query_atom.predicate)
            return {t for t in facts if subgoal.matches(t)}
        with self.tracer.span(
            "topdown_query", stats=self.stats, goal=repr(subgoal)
        ) as span:
            self._register(subgoal)
            self._fixpoint()
            answers = self.tables[subgoal.key()]
            span.set(tables=len(self.tables), answers=len(answers))
        # Repeated variables in the query still need filtering.
        pseudo = match_query(_StoreView(query_atom.predicate, answers), query_atom)
        return pseudo

    def table_count(self):
        """Number of distinct subgoals tabled so far (work measure)."""
        return len(self.tables)

    # -- internals -------------------------------------------------------------

    def _edb_facts(self, predicate):
        return self.edb.get(predicate)

    def _subgoal_for(self, atom, binding=None):
        binding = binding or {}
        pattern = []
        for term in atom.terms:
            if isinstance(term, Constant):
                pattern.append(term.value)
            elif term.name in binding:
                pattern.append(binding[term.name])
            else:
                pattern.append(None)
        return _Subgoal(atom.predicate, pattern)

    def _register(self, subgoal):
        key = subgoal.key()
        if key not in self.tables:
            self.tables[key] = {
                values
                for values in self._idb_facts.get(subgoal.predicate, ())
                if subgoal.matches(values)
            }
            self.subgoals[key] = subgoal
            self._new_subgoals = True
            return True
        return False

    def _fixpoint(self):
        changed = True
        rounds = 0
        while changed:
            changed = False
            self._new_subgoals = False
            rounds += 1
            if self.stats is not None:
                self.stats.iterations += 1
            with self.tracer.span(
                "iteration", stats=self.stats, round=rounds
            ) as span:
                grew = 0
                # Iterate over a snapshot: resolution can add subgoals.
                for key in list(self.tables):
                    subgoal = self.subgoals[key]
                    before = len(self.tables[key])
                    self._resolve(subgoal)
                    after = len(self.tables[key])
                    if after != before:
                        changed = True
                        grew += after - before
                span.set(subgoals=len(self.tables), new_answers=grew)
            # A freshly discovered subgoal needs at least one resolution
            # pass even if no table grew this round.
            changed = changed or self._new_subgoals

    def _resolve(self, subgoal):
        for rule in self.program.rules_for(subgoal.predicate):
            if self.stats is not None:
                self.stats.rule_firings += 1
            bindings = self._unify_head(rule.head, subgoal)
            if bindings is None:
                continue
            bindings = [bindings]
            for item in rule.body:
                if not bindings:
                    break
                if isinstance(item, Comparison):
                    bindings = [b for b in bindings if item.evaluate(b)]
                    continue
                bindings = self._solve_literal(item, bindings)
            for binding in bindings:
                self.tables[subgoal.key()].add(
                    rule.head.ground_tuple(binding)
                )

    def _unify_head(self, head, subgoal):
        """Unify the head with the call pattern; None on clash."""
        binding = {}
        for term, bound in zip(head.terms, subgoal.pattern):
            if bound is None:
                continue
            if isinstance(term, Constant):
                if term.value != bound:
                    return None
            else:
                if binding.setdefault(term.name, bound) != bound:
                    return None
        return binding

    def _solve_literal(self, literal, bindings):
        atom = literal.atom
        if atom.predicate not in self.idb:
            return extend_bindings(
                bindings, atom, self._edb_facts(atom.predicate), self.stats
            )
        # Group bindings by call pattern so each subgoal is registered
        # (and its answer table joined) once; the fixpoint loop
        # re-resolves until the tables are stable.
        groups = {}
        for binding in bindings:
            subgoal = self._subgoal_for(atom, binding)
            self._register(subgoal)
            groups.setdefault(subgoal.key(), []).append(binding)
        out = []
        for key, group in groups.items():
            out.extend(
                extend_bindings(group, atom, self.tables[key], self.stats)
            )
        return out


class _StoreView:
    """Minimal FactStore-like view over one predicate's tuple set."""

    __slots__ = ("predicate", "tuples")

    def __init__(self, predicate, tuples):
        self.predicate = predicate
        self.tuples = tuples

    def get(self, predicate):
        if predicate == self.predicate:
            return self.tuples
        return frozenset()


def topdown_query(program, edb, query_atom, stats=None, tracer=NULL_TRACER):
    """One-shot top-down query (fresh tables)."""
    engine = TopDownEngine(program, edb, stats=stats, tracer=tracer)
    return engine.query(query_atom)
