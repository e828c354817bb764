"""Naive bottom-up Datalog evaluation.

The textbook fixpoint: fire every rule against the *entire* current store,
repeat until nothing new appears.  Simple, obviously correct, and — as the
``test_datalog_strategies`` benchmark shows — increasingly wasteful as the
database grows, because round k re-derives everything rounds 1..k-1
already produced.  It exists here as the semantics oracle and the baseline
the paper-era optimizations (semi-naive, magic sets) are measured against.

Stratified negation is supported: strata are evaluated in order, so
negated predicates are complete before any rule reads them.

Rules fire on the in-order scan matcher
(:func:`~repro.datalog.matching.evaluate_rule`), not on the relational
plans the semi-naive driver runs, so the two engines check each other;
``stats`` collects work counters.
"""

from __future__ import annotations

from ..obs.trace import NULL_TRACER
from .analysis import rules_by_stratum
from .facts import FactStore
from .matching import evaluate_rule


def naive_evaluate(
    program,
    edb=None,
    max_iterations=None,
    stats=None,
    tracer=NULL_TRACER,
):
    """Compute the (stratified) minimal model of ``program`` over ``edb``.

    Args:
        program: a :class:`~repro.datalog.ast.Program`.
        edb: a :class:`~repro.datalog.facts.FactStore` of extensional
            facts (program-text facts are added on top).
        max_iterations: optional safety cap per stratum; the fixpoint of a
            Datalog program always terminates, so this is only a guard for
            debugging engine changes.
        stats: optional :class:`~repro.datalog.stats.EngineStatistics`.
        tracer: optional :class:`~repro.obs.trace.Tracer`; emits one
            span per stratum and per fixpoint round (with the new-fact
            count and, when ``stats`` is given, the round's counter
            deltas).  No-op by default.

    Returns:
        A :class:`FactStore` holding EDB and all derived IDB facts.
    """
    store, _ = _fixpoint(program, edb, max_iterations, stats, tracer)
    return store


def naive_iterations(program, edb=None, stats=None, tracer=NULL_TRACER):
    """Like :func:`naive_evaluate` but also count fixpoint rounds.

    Returns:
        ``(store, rounds)`` where ``rounds`` sums the per-stratum rounds
        (including each stratum's final no-change round).  Used by the
        benchmarks to report work alongside wall-clock time.
    """
    return _fixpoint(program, edb, None, stats, tracer)


def _fixpoint(program, edb, max_iterations, stats, tracer=NULL_TRACER):
    store = edb.copy() if edb is not None else FactStore()
    for predicate, values in program.facts():
        store.add(predicate, values)

    rounds = 0
    for index, stratum_rules in enumerate(rules_by_stratum(program)):
        if not stratum_rules:
            continue
        stratum_span = tracer.begin(
            "stratum", stats=stats, strategy="naive", index=index,
            rules=len(stratum_rules),
        )
        iterations = 0
        changed = True
        while changed:
            changed = False
            iterations += 1
            rounds += 1
            if stats is not None:
                stats.iterations += 1
            if max_iterations is not None and iterations > max_iterations:
                raise RuntimeError(
                    "naive evaluation exceeded %d iterations" % max_iterations
                )
            with tracer.span(
                "iteration", stats=stats, round=iterations
            ) as round_span:
                before = store.count()
                for rule in stratum_rules:
                    derived = evaluate_rule(rule, store.get, stats=stats)
                    if store.add_all(rule.head.predicate, derived):
                        changed = True
                round_span.set(new_facts=store.count() - before)
        stratum_span.set(rounds=iterations)
        tracer.end(stratum_span)
    return store, rounds
