"""Per-construct coverage tracking for the conformance workloads.

A fuzzer is only as good as the corpus it actually generates: a
generator that never emits an antijoin never tests the antijoin
operator, no matter how many cases it runs.  The tracker counts, per
oracle family, how many generated cases exercised each syntactic
construct (node types, condition shapes, join regimes, negation
patterns, schedule mixes), publishes the counts through an
:class:`~repro.obs.metrics.MetricsRegistry`, and audits the counts
against the *universe* — the constructs each family is supposed to be
able to reach.  ``unseen()`` is the generator-bias detector: it is how
the compound-condition and multi-equi-theta blind spots of
:func:`~repro.core.random_instances.random_algebra_expression` were
found (and then fixed).
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry

#: Everything the relational workload generator is expected to reach.
#: ``cond:*`` entries describe selection/theta conditions; ``theta:*``
#: classify the cross-side conjunct bundle of a theta join;
#: ``divide:multi-attr`` is division by an arity-2 divisor;
#: ``access:*`` are the index access paths the executors take on the
#: canonical plan (equality lookups and index joins over stored
#: relations); ``template:lifted`` marks a canonical plan with at least
#: one literal lifted into a template parameter.
ALGEBRA_UNIVERSE = frozenset(
    [
        "node:selection",
        "node:projection",
        "node:rename",
        "node:naturaljoin",
        "node:thetajoin",
        "node:product",
        "node:union",
        "node:difference",
        "node:intersection",
        "node:semijoin",
        "node:antijoin",
        "node:division",
        "node:constantrelation",
        "node:relationref",
        "cond:and",
        "cond:or",
        "cond:not",
        "cond:=",
        "cond:!=",
        "cond:<",
        "cond:<=",
        "cond:>",
        "cond:>=",
        "cond:attr-attr",
        "cond:attr-const",
        "theta:equi",
        "theta:non-equi",
        "theta:multi-equi",
        "divide:multi-attr",
        "access:index-lookup",
        "access:index-join",
        "template:lifted",
    ]
)

#: Datalog program shapes the workload generator must reach.
DATALOG_UNIVERSE = frozenset(
    [
        "rule:recursive",
        "rule:nonrecursive",
        "rule:negation",
        "program:text-fact-idb",
        "program:text-fact-edb",
        "query:bound",
        "query:free",
    ]
)

#: Transaction-schedule mixes.
SCHEDULE_UNIVERSE = frozenset(
    [
        "op:read",
        "op:write",
        "workload:read-heavy",
        "workload:write-heavy",
        "workload:hot-contention",
        "workload:uniform",
    ]
)

#: Live concurrent-transaction workload shapes.
LIVE_TXN_UNIVERSE = frozenset(
    [
        "live:insert",
        "live:delete",
        "live:update",
        "live:select",
        "live:multi-txn",
    ]
)

#: Universe per family name (families without an entry are unaudited).
UNIVERSES = {
    "relational-differential": ALGEBRA_UNIVERSE,
    "metamorphic-relational": ALGEBRA_UNIVERSE,
    "metamorphic-optimizer": ALGEBRA_UNIVERSE,
    "datalog-differential": DATALOG_UNIVERSE,
    "metamorphic-datalog": DATALOG_UNIVERSE,
    "transactions-differential": SCHEDULE_UNIVERSE,
    "transactions-live": LIVE_TXN_UNIVERSE,
}


class CoverageTracker:
    """Counts construct occurrences per oracle family.

    Every observation is mirrored into ``registry`` as labeled counters
    (``conformance_construct{family=..., construct=...}`` and
    ``conformance_cases{family=...}``), so a long-running fuzz session
    exposes its corpus composition through the same metrics surface as
    the engines it is fuzzing.
    """

    __slots__ = ("registry", "_counts", "_cases")

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counts = {}
        self._cases = {}

    def observe(self, family, constructs):
        """Record one generated case's construct set."""
        counts = self._counts.setdefault(family, {})
        self._cases[family] = self._cases.get(family, 0) + 1
        self.registry.counter("conformance_cases", family=family).inc()
        for construct in constructs:
            counts[construct] = counts.get(construct, 0) + 1
            self.registry.counter(
                "conformance_construct", family=family, construct=construct
            ).inc()

    def cases(self, family=None):
        """Cases observed for one family (or the total)."""
        if family is not None:
            return self._cases.get(family, 0)
        return sum(self._cases.values())

    def counts(self, family):
        """``{construct: count}`` for one family (a copy)."""
        return dict(self._counts.get(family, {}))

    def families(self):
        return sorted(self._counts)

    def unseen(self, family, universe=None):
        """Universe constructs this corpus has never exercised.

        The generator-bias audit: a non-empty result after a sizable
        sweep means the generator cannot (or almost never does) reach
        those constructs.
        """
        if universe is None:
            universe = UNIVERSES.get(family, frozenset())
        return sorted(set(universe) - set(self._counts.get(family, {})))

    def snapshot(self):
        """``{family: {construct: count}}`` (deep copy; report fodder)."""
        return {
            family: dict(counts) for family, counts in self._counts.items()
        }

    def delta(self, before):
        """Coverage gained since a prior :meth:`snapshot`."""
        out = {}
        for family, counts in self._counts.items():
            prior = before.get(family, {})
            gained = {
                construct: count - prior.get(construct, 0)
                for construct, count in counts.items()
                if count != prior.get(construct, 0)
            }
            if gained:
                out[family] = gained
        return out

    def report(self):
        """The coverage block of the driver's JSON run report."""
        return {
            family: {
                "cases": self._cases.get(family, 0),
                "constructs": dict(sorted(counts.items())),
                "unseen": self.unseen(family),
            }
            for family, counts in sorted(self._counts.items())
        }

    def __repr__(self):
        return "CoverageTracker(%d families, %d cases)" % (
            len(self._counts),
            self.cases(),
        )
