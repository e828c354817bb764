"""repro.opt: the unified cost-based optimizer.

One optimization layer, in one configuration, for the whole pipeline:

* :mod:`repro.opt.catalog` — per-relation cardinalities and
  per-attribute distinct counts on :class:`~repro.relational.database.
  Database`, incrementally maintained on insert;
* :mod:`repro.opt.rules` / :mod:`repro.opt.rewrite` — named,
  individually-toggleable rewrite rules driven to fixpoint;
* :mod:`repro.opt.cost` — the one cardinality model every consumer
  shares (rewrites, join ordering, EXPLAIN's estimates);
* :mod:`repro.opt.joins` — greedy cost-based join ordering.

The front door is :class:`Optimizer` — every rule, catalog estimates,
greedy ordering; ``disable=`` switches single rules off for the
rule-toggle oracle — or the module-level :func:`optimize`.
"""

from __future__ import annotations

from .catalog import Catalog, TableStats
from .cost import (
    EQUALITY_SELECTIVITY,
    RANGE_SELECTIVITY,
    CostModel,
    Estimate,
)
from .rewrite import RewriteEngine
from .rules import Context, get_rules, rule_names

#: The full default pipeline, in order.
DEFAULT_RULES = rule_names()


class OptimizationInfo:
    """What one optimization run did: rules fired, enumeration notes."""

    __slots__ = ("fired", "notes", "rules")

    def __init__(self, fired=None, notes=None, rules=()):
        self.fired = dict(fired or {})
        self.notes = dict(notes or {})
        self.rules = tuple(rules)

    @property
    def join_method(self):
        """"greedy", or None when no join tree was reordered."""
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
    """The front door: rewrite + enumerate + cost.

    Args:
        disable: rule names to switch off — the handle the rule-toggle
            metamorphic oracle uses.  Every other rule runs, in
            registry order.

    Raises:
        ValueError: on unknown rule names.
    """

    __slots__ = ("rules", "_engine")

    def __init__(self, disable=()):
        dropped = set(disable)
        unknown = dropped - set(rule_names())
        if unknown:
            raise ValueError(
                "unknown optimizer rules: %s" % ", ".join(sorted(unknown))
            )
        self.rules = tuple(n for n in rule_names() if n not in dropped)
        self._engine = RewriteEngine(get_rules(self.rules))

    def config_token(self):
        """Hashable fingerprint for plan-cache keys."""
        return self.rules

    def optimize(self, expr, db=None):
        """Optimize a plan; returns the rewritten expression."""
        plan, _info = self.optimize_info(expr, db)
        return plan

    def optimize_info(self, expr, db=None):
        """Optimize and report: ``(plan, OptimizationInfo)``."""
        ctx = Context(db)
        plan = self._engine.run(expr, ctx)
        return plan, OptimizationInfo(ctx.fired, ctx.notes, self.rules)

    def __repr__(self):
        return "Optimizer(rules=%d)" % len(self.rules)


def optimize(expr, db=None):
    """Optimize with every rule enabled (module-level convenience)."""
    return Optimizer().optimize(expr, db)


__all__ = [
    "Catalog",
    "Context",
    "CostModel",
    "DEFAULT_RULES",
    "EQUALITY_SELECTIVITY",
    "Estimate",
    "OptimizationInfo",
    "Optimizer",
    "RANGE_SELECTIVITY",
    "RewriteEngine",
    "TableStats",
    "optimize",
    "rule_names",
]
