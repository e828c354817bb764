"""repro.opt: the unified cost-based optimizer.

One optimization layer for the whole pipeline, replacing the private
planners that grew up in ``relational/optimizer.py`` and
``datalog/planner.py``:

* :mod:`repro.opt.catalog` — per-relation cardinalities and
  per-attribute distinct counts on :class:`~repro.relational.database.
  Database`, incrementally maintained on insert;
* :mod:`repro.opt.rules` / :mod:`repro.opt.rewrite` — named,
  individually-toggleable rewrite rules driven to fixpoint;
* :mod:`repro.opt.cost` — the one cardinality model every consumer
  shares (rewrites, join ordering, the Datalog body planner);
* :mod:`repro.opt.joins` — Selinger DP / greedy join ordering and
  Yannakakis semijoin routing for acyclic join-connected queries.

The front door is :class:`Optimizer` (configurable rule set, DP
threshold, catalog use) or the module-level :func:`optimize` with the
default profile.  ``repro.relational.optimizer`` remains as a thin
deprecated shim over the :data:`CLASSIC_RULES` profile, which reproduces
the historical pipeline (cascade → pushdown → join formation → greedy
reordering with fixed selectivities) bit for bit.
"""

from __future__ import annotations

from .catalog import Catalog, TableStats
from .cost import (
    EQUALITY_SELECTIVITY,
    RANGE_SELECTIVITY,
    CostModel,
    Estimate,
    estimate_literal_matches,
)
from .joins import DP_THRESHOLD
from .rewrite import RewriteEngine
from .rules import Context, get_rules, rule_names

#: The full default pipeline, in order.
DEFAULT_RULES = rule_names()

#: The historical ``relational/optimizer.py`` pipeline: selection
#: cascade + pushdown, join formation, greedy reordering, classical
#: fixed selectivities (dp_threshold=0 ⇒ greedy), no catalog.
CLASSIC_RULES = (
    "split-selections",
    "push-selections",
    "form-joins",
    "order-joins",
)


class OptimizationInfo:
    """What one optimization run did: rules fired, enumeration notes."""

    __slots__ = ("fired", "notes", "rules")

    def __init__(self, fired=None, notes=None, rules=()):
        self.fired = dict(fired or {})
        self.notes = dict(notes or {})
        self.rules = tuple(rules)

    @property
    def join_method(self):
        """"yannakakis", "dp", "greedy", or None when no tree was
        enumerated."""
        return self.notes.get("join_method")

    @property
    def join_order(self):
        """Leaf labels in chosen join order (None when not enumerated)."""
        return self.notes.get("join_order")

    def summary(self):
        """One-line human rendering for EXPLAIN headers."""
        parts = []
        if self.fired:
            parts.append(
                "rules=[%s]"
                % ", ".join(
                    "%s×%d" % (name, count)
                    for name, count in sorted(self.fired.items())
                )
            )
        if self.join_method:
            parts.append("join=%s" % self.join_method)
        if self.join_order:
            parts.append("order=%s" % "→".join(self.join_order))
        return "  ".join(parts)

    def as_dict(self):
        return {
            "rules_fired": dict(self.fired),
            "join_method": self.join_method,
            "join_order": (
                list(self.join_order) if self.join_order else None
            ),
            "rules_enabled": list(self.rules),
        }

    def __repr__(self):
        return "OptimizationInfo(%s)" % (self.summary() or "no-op")


class Optimizer:
    """The configurable front door: rewrite + enumerate + cost.

    Args:
        rules: iterable of rule names to enable (default: all, pipeline
            order is always the registry order).
        disable: names to subtract from ``rules`` — the handle the
            rule-toggle metamorphic oracle uses.
        dp_threshold: max join-tree leaves for exact DP ordering
            (0 disables DP entirely; greedy everywhere).
        use_catalog: consult :meth:`Database.catalog` statistics for
            selectivities (False reproduces the classical fixed
            selectivity model).
        yannakakis_threshold: minimum estimated net tuple savings
            before an acyclic join tree routes through the Yannakakis
            semijoin program (see ``opt.joins._routing_pays``); None
            disables the gate and routes every qualifying tree.

    Raises:
        ValueError: on unknown rule names.
    """

    __slots__ = ("rules", "dp_threshold", "use_catalog",
                 "yannakakis_threshold", "_engine")

    def __init__(self, rules=None, disable=(), dp_threshold=DP_THRESHOLD,
                 use_catalog=True, yannakakis_threshold=0.0):
        wanted = set(rules) if rules is not None else set(DEFAULT_RULES)
        dropped = set(disable)
        unknown = (wanted | dropped) - set(rule_names())
        if unknown:
            raise ValueError(
                "unknown optimizer rules: %s" % ", ".join(sorted(unknown))
            )
        # Normalized to registry order: the pipeline order is fixed, so
        # the enabled set is the only real configuration.
        self.rules = tuple(
            n for n in rule_names() if n in wanted and n not in dropped
        )
        self.dp_threshold = dp_threshold
        self.use_catalog = bool(use_catalog)
        self.yannakakis_threshold = yannakakis_threshold
        self._engine = RewriteEngine(get_rules(self.rules))

    def config_token(self):
        """Hashable fingerprint for plan-cache keys."""
        return (self.rules, self.dp_threshold, self.use_catalog,
                self.yannakakis_threshold)

    def context(self, db=None, db_schema=None):
        """A fresh rule :class:`~repro.opt.rules.Context` for one run."""
        catalog = (
            db.catalog() if (db is not None and self.use_catalog) else None
        )
        return Context(
            db=db,
            db_schema=db_schema,
            cost=CostModel(catalog),
            dp_threshold=self.dp_threshold,
            yannakakis_threshold=self.yannakakis_threshold,
        )

    def optimize(self, expr, db=None):
        """Optimize a plan; returns the rewritten expression."""
        plan, _info = self.optimize_info(expr, db)
        return plan

    def optimize_info(self, expr, db=None):
        """Optimize and report: ``(plan, OptimizationInfo)``."""
        ctx = self.context(db)
        plan = self._engine.run(expr, ctx)
        return plan, OptimizationInfo(ctx.fired, ctx.notes, self.rules)

    def __repr__(self):
        return "Optimizer(rules=%d, dp<=%d, catalog=%s)" % (
            len(self.rules), self.dp_threshold, self.use_catalog
        )


def classic_optimizer():
    """The historical pipeline as an Optimizer (the shim's engine)."""
    return Optimizer(rules=CLASSIC_RULES, dp_threshold=0, use_catalog=False)


def optimize(expr, db=None):
    """Optimize with the full default profile (module-level convenience)."""
    return Optimizer().optimize(expr, db)


__all__ = [
    "CLASSIC_RULES",
    "Catalog",
    "Context",
    "CostModel",
    "DEFAULT_RULES",
    "DP_THRESHOLD",
    "EQUALITY_SELECTIVITY",
    "Estimate",
    "OptimizationInfo",
    "Optimizer",
    "RANGE_SELECTIVITY",
    "RewriteEngine",
    "TableStats",
    "classic_optimizer",
    "estimate_literal_matches",
    "optimize",
    "rule_names",
]
