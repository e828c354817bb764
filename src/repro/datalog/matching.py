"""Rule-body matching: the in-order scan matcher of the oracle engines.

Rule evaluation is a left-to-right pipeline of hash joins over binding
lists: each positive literal scans its fact set once into a transient
index on the currently-bound positions and probes it with every
binding; comparisons and negated literals filter as soon as their
variables are bound (safety guarantees they eventually are).  As in
every hash index of the relational layer, equality never pairs NaN: a
tuple whose join key holds a NaN joins nothing, and a negated atom
whose ground tuple holds one is absent, though a dict or set would
find the same NaN object by identity.

Naive evaluation (:mod:`~repro.datalog.naive`) and top-down tabling
(:mod:`~repro.datalog.topdown`) run on this matcher, independently of
the relational plans the semi-naive driver runs
(:mod:`~repro.datalog.seminaive`), so naive evaluation stays an oracle
for them.  Work is charged to an optional
:class:`~repro.datalog.stats.EngineStatistics`: every tuple a scan
reads, and every binding a join produces.
"""

from __future__ import annotations

from operator import eq

from ..errors import DatalogError
from .ast import Comparison, Constant, Literal, Variable


def _key_specs(atom, bound_vars):
    """Classify each atom position against the current bound set.

    Returns:
        ``(key_specs, out_specs)`` where ``key_specs`` holds
        ``(position, kind, payload)`` with kind in ``const|var|dup`` and
        ``out_specs`` holds ``(position, name)`` for fresh variables.
    """
    key_specs = []
    out_specs = []
    first_position = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            key_specs.append((i, "const", term.value))
        elif term.name in bound_vars:
            key_specs.append((i, "var", term.name))
        elif term.name in first_position:
            key_specs.append((i, "dup", first_position[term.name]))
        else:
            first_position[term.name] = i
            out_specs.append((i, term.name))
    return key_specs, out_specs


def extend_bindings(bindings, atom, tuples, stats=None):
    """Hash-join a binding list with the facts for one positive literal.

    Args:
        bindings: list of dicts (variable name -> value); all dicts bind
            the same variable set (an invariant of rule evaluation).
        atom: the literal's atom.
        tuples: the fact source for the literal's predicate, a tuple
            collection; it is scanned once into a transient index.
        stats: optional work counters.

    Returns:
        The extended binding list.
    """
    if not bindings or not len(tuples):
        return []
    bound_vars = set(bindings[0])
    key_specs, out_specs = _key_specs(atom, bound_vars)
    var_names = [payload for _, kind, payload in key_specs if kind == "var"]
    index = {}
    scanned = 0
    for tup in tuples:
        scanned += 1
        admissible = True
        for position, kind, payload in key_specs:
            if kind == "const" and tup[position] != payload:
                admissible = False
                break
            if kind == "dup" and tup[position] != tup[payload]:
                admissible = False
                break
        if not admissible:
            continue
        key = tuple(
            tup[position]
            for position, kind, _ in key_specs
            if kind == "var"
        )
        if not all(map(eq, key, key)):  # a NaN key joins nothing
            continue
        index.setdefault(key, []).append(tup)
    extended = []
    for binding in bindings:
        key = tuple(binding[name] for name in var_names)
        for tup in index.get(key, ()):
            new_binding = dict(binding)
            for position, name in out_specs:
                new_binding[name] = tup[position]
            extended.append(new_binding)
    if stats is not None:
        stats.facts_scanned += scanned
        stats.tuples_materialized += len(extended)
    return extended


def _filter_negative(bindings, atom, tuples):
    """Keep bindings under which the (fully bound) atom is absent; a
    ground tuple holding a NaN always is."""
    kept = []
    for binding in bindings:
        fact = atom.ground_tuple(binding)
        if fact not in tuples or not all(map(eq, fact, fact)):
            kept.append(binding)
    return kept


def _filter_comparison(bindings, comparison):
    return [b for b in bindings if comparison.evaluate(b)]


def evaluate_rule(rule, lookup, stats=None):
    """All head tuples derivable by one rule against the given facts.

    Args:
        rule: the rule to fire.
        lookup: callable ``predicate -> tuple collection``.
        stats: optional :class:`~repro.datalog.stats.EngineStatistics`.

    Returns:
        A set of ground head tuples.
    """
    if stats is not None:
        stats.rule_firings += 1
    bindings = [{}]
    pending = []  # comparisons / negative literals awaiting their variables

    def flush_pending():
        nonlocal bindings, pending
        still = []
        bound = set(bindings[0]) if bindings else set()
        for item in pending:
            if not bindings:
                return
            if item.variables() <= bound:
                if isinstance(item, Comparison):
                    bindings = _filter_comparison(bindings, item)
                else:
                    bindings = _filter_negative(
                        bindings, item.atom, lookup(item.atom.predicate)
                    )
            else:
                still.append(item)
        pending = still

    for item in rule.body:
        if not bindings:
            return set()
        if isinstance(item, Literal) and item.positive:
            bindings = extend_bindings(
                bindings, item.atom, lookup(item.atom.predicate), stats
            )
            flush_pending()
        elif isinstance(item, Comparison):
            bound = set(bindings[0]) if bindings else set()
            if item.variables() <= bound:
                bindings = _filter_comparison(bindings, item)
            elif item.op == "=" and _binds_fresh(item, bound):
                bindings = _apply_binding_equality(bindings, item)
            else:
                pending.append(item)
        elif isinstance(item, Literal):
            bound = set(bindings[0]) if bindings else set()
            if item.variables() <= bound:
                bindings = _filter_negative(
                    bindings, item.atom, lookup(item.atom.predicate)
                )
            else:
                pending.append(item)
        else:
            raise DatalogError("unknown body item %r" % (item,))

    flush_pending()
    if pending and bindings:
        # Safety postcondition: no guard may remain once bindings survive.
        raise DatalogError(
            "rule %s left unbound body items %s (safety bug)"
            % (rule, "; ".join(map(str, pending)))
        )
    return {rule.head.ground_tuple(b) for b in bindings}


def _binds_fresh(comparison, bound):
    """Is this an ``X = c`` (or ``c = X``) that can bind a fresh variable?"""
    left, right = comparison.left, comparison.right
    if isinstance(left, Variable) and left.name not in bound:
        return isinstance(right, Constant) or (
            isinstance(right, Variable) and right.name in bound
        )
    if isinstance(right, Variable) and right.name not in bound:
        return isinstance(left, Constant) or (
            isinstance(left, Variable) and left.name in bound
        )
    return False


def _apply_binding_equality(bindings, comparison):
    """Extend bindings through an ``X = value`` equality."""
    left, right = comparison.left, comparison.right
    bound = set(bindings[0]) if bindings else set()
    if isinstance(left, Variable) and left.name not in bound:
        fresh, other = left, right
    else:
        fresh, other = right, left
    extended = []
    for binding in bindings:
        if isinstance(other, Constant):
            value = other.value
        else:
            value = binding[other.name]
        new_binding = dict(binding)
        new_binding[fresh.name] = value
        extended.append(new_binding)
    return extended
