"""Semi-naive (differential) Datalog evaluation.

The first of the two classical optimizations of the paper's logic-database
era.  The insight: a rule can only derive a *new* fact in round k if at
least one of its body literals matches a fact that was itself new in round
k-1.  So instead of re-firing every rule on the whole store, each round
fires, for every rule and every positive body literal over a recursive
predicate, a differential version in which that literal reads only the
previous round's *delta*.

Negation and comparisons need no differential treatment: negated
predicates live in strictly lower strata (already complete), and
comparisons are filters.

With ``indexed=True`` (default) the working store is an
:class:`~repro.datalog.indexing.IndexedFactStore`: its persistent
per-position indexes are maintained *incrementally* as each round's delta
merges in, so — unlike the seed path, which rebuilt a transient index per
rule firing — no index is ever rebuilt across iterations.  The planner
puts the delta literal first, turning every other body literal into an
index probe on bound variables (the ``test_indexed_store`` benchmark
quantifies the scan reduction).
"""

from __future__ import annotations

from ..obs.trace import NULL_TRACER
from .analysis import rules_by_stratum
from .ast import Literal
from .facts import FactStore
from .indexing import working_store
from .matching import evaluate_rule


def seminaive_evaluate(
    program, edb=None, stats=None, indexed=True, planned=True,
    tracer=NULL_TRACER,
):
    """Compute the stratified minimal model by semi-naive iteration.

    Semantically identical to
    :func:`~repro.datalog.naive.naive_evaluate` (a property test checks
    this on random programs); asymptotically cheaper on recursive
    programs.

    Returns:
        A :class:`FactStore` with EDB plus all derived facts.
    """
    store, _ = seminaive_iterations(
        program, edb, stats=stats, indexed=indexed, planned=planned,
        tracer=tracer,
    )
    return store


def seminaive_iterations(
    program, edb=None, stats=None, indexed=True, planned=True,
    tracer=NULL_TRACER,
):
    """Semi-naive evaluation, also counting differential rounds.

    With a real ``tracer``, emits one span per stratum and one per
    differential round carrying the round's delta size (and counter
    deltas, when ``stats`` is given).

    Returns:
        ``(store, rounds)``.
    """
    store = working_store(edb, indexed)
    lookup = store.view if indexed else store.get
    for predicate, values in program.facts():
        store.add(predicate, values)
    rounds = 0

    for index, stratum_rules in enumerate(rules_by_stratum(program)):
        if not stratum_rules:
            continue
        stratum_idb = {rule.head.predicate for rule in stratum_rules}
        stratum_span = tracer.begin(
            "stratum", stats=stats, strategy="seminaive", index=index,
            rules=len(stratum_rules),
        )
        stratum_rounds = 1

        # Round 0: one full pass seeds the deltas.
        delta = FactStore()
        rounds += 1
        if stats is not None:
            stats.iterations += 1
        with tracer.span("iteration", stats=stats, round=0) as round_span:
            for rule in stratum_rules:
                derived = evaluate_rule(
                    rule, lookup, stats=stats, planned=planned
                )
                for values in derived:
                    if not store.contains(rule.head.predicate, values):
                        delta.add(rule.head.predicate, values)
            store.merge(delta)
            round_span.set(delta=delta.count())

        # Differential rounds until the delta dries up.  Deltas stay
        # plain stores: the planner drives each differential firing off
        # the delta literal, so deltas are enumerated, never probed.
        while delta.count():
            rounds += 1
            stratum_rounds += 1
            if stats is not None:
                stats.iterations += 1
            with tracer.span(
                "iteration", stats=stats, round=stratum_rounds - 1
            ) as round_span:
                new_delta = FactStore()
                for rule in stratum_rules:
                    for position, item in enumerate(rule.body):
                        if not (isinstance(item, Literal) and item.positive):
                            continue
                        predicate = item.atom.predicate
                        if predicate not in stratum_idb:
                            continue
                        if not delta.count(predicate):
                            continue
                        derived = evaluate_rule(
                            rule,
                            lookup,
                            delta_lookup=delta.get,
                            delta_at=position,
                            stats=stats,
                            planned=planned,
                        )
                        for values in derived:
                            if not store.contains(rule.head.predicate, values):
                                new_delta.add(rule.head.predicate, values)
                store.merge(new_delta)
                round_span.set(delta=new_delta.count())
            delta = new_delta
        stratum_span.set(rounds=stratum_rounds)
        tracer.end(stratum_span)
    return store, rounds

