"""The one cost surface: cardinality estimation for every consumer.

Everything in the library that needs a size guess asks this module:

* the rewrite/enumeration pipeline (:mod:`repro.opt.joins`) costs join
  orders with :class:`CostModel`;
* EXPLAIN ANALYZE prints the same model's estimates as ``est=``, and
  the plans of Datalog rules (lowered or semi-naive) are ordered by it
  like any other plan.

:class:`CostModel` reads the database's
:class:`~repro.opt.catalog.Catalog`: an equality against a constant
keeps ``1/V(R, a)`` of the rows, an equi-join divides by the larger
distinct count of each join attribute, and distinct counts are
propagated through operators so estimates stay grounded as plans
deepen.  The classical System R constants (1/10 per equality, 1/3 per
range) remain as the fallbacks where no distinct count is known.
"""

from __future__ import annotations

from ..relational import algebra as ra

#: Selectivity of an equality predicate whose operands have no known
#: distinct count (classical System R value).
EQUALITY_SELECTIVITY = 0.1
#: Default selectivity of a range predicate.
RANGE_SELECTIVITY = 1.0 / 3.0


class Estimate:
    """An estimated relation: row count plus per-attribute distincts."""

    __slots__ = ("rows", "distinct")

    def __init__(self, rows, distinct=None):
        self.rows = float(rows)
        self.distinct = distinct if distinct is not None else {}

    def clamped(self):
        """Cap every distinct count at the row count (a hard invariant)."""
        self.distinct = {
            a: min(d, self.rows) for a, d in self.distinct.items()
        }
        return self

    def __repr__(self):
        return "Estimate(rows=%.1f)" % self.rows


class CostModel:
    """Cardinality estimation over canonical (and extension) plans,
    from the statistics of ``db.catalog()``."""

    __slots__ = ()

    # -- public surface ------------------------------------------------------

    def rows(self, expr, db):
        """Estimated output cardinality of ``expr`` over ``db``."""
        return self.estimate(expr, db).rows

    def estimate(self, expr, db):
        """Full :class:`Estimate` (rows + distincts) for ``expr``."""
        if isinstance(expr, ra.RelationRef):
            return self._base(expr.name, db)
        if isinstance(expr, ra.ConstantRelation):
            relation = expr.relation
            distinct = {}
            for position, attribute in enumerate(
                relation.schema.attributes
            ):
                distinct[attribute] = float(
                    len({t[position] for t in relation.tuples})
                )
            return Estimate(len(relation), distinct)
        if isinstance(expr, ra.Selection):
            child = self.estimate(expr.child, db)
            selectivity = self.selectivity(expr.condition, child)
            out = Estimate(child.rows * selectivity, dict(child.distinct))
            return out.clamped()
        if isinstance(expr, ra.Projection):
            child = self.estimate(expr.child, db)
            distinct = {
                a: child.distinct[a]
                for a in expr.attributes
                if a in child.distinct
            }
            return Estimate(child.rows, distinct)
        if isinstance(expr, ra.Rename):
            child = self.estimate(expr.child, db)
            distinct = {
                expr.mapping.get(a, a): d
                for a, d in child.distinct.items()
            }
            return Estimate(child.rows, distinct)
        if isinstance(expr, ra.Product):
            left = self.estimate(expr.left, db)
            right = self.estimate(expr.right, db)
            distinct = dict(left.distinct)
            distinct.update(right.distinct)
            return Estimate(left.rows * right.rows, distinct)
        if isinstance(expr, ra.NaturalJoin):
            return self._join(expr, db)
        if isinstance(expr, ra.ThetaJoin):
            return self._theta(expr, db)
        if isinstance(expr, ra.Union):
            left = self.estimate(expr.left, db)
            right = self.estimate(expr.right, db)
            distinct = {
                a: left.distinct.get(a, 0.0) + right.distinct.get(a, 0.0)
                for a in set(left.distinct) | set(right.distinct)
            }
            return Estimate(left.rows + right.rows, distinct).clamped()
        if isinstance(expr, (ra.Difference, ra.Semijoin, ra.Antijoin)):
            left = self.estimate(expr.left, db)
            self.estimate(expr.right, db)
            return Estimate(left.rows, dict(left.distinct))
        if isinstance(expr, ra.Intersection):
            left = self.estimate(expr.left, db)
            right = self.estimate(expr.right, db)
            rows = min(left.rows, right.rows)
            distinct = {
                a: min(left.distinct.get(a, rows), right.distinct.get(a, rows))
                for a in set(left.distinct) | set(right.distinct)
            }
            return Estimate(rows, distinct).clamped()
        if isinstance(expr, ra.Division):
            left = self.estimate(expr.left, db)
            return Estimate(max(left.rows, 1.0), dict(left.distinct))
        # Unknown/extension nodes: recurse into children pessimistically.
        children = expr.children()
        if children:
            estimates = [self.estimate(c, db) for c in children]
            best = max(estimates, key=lambda e: e.rows)
            return Estimate(best.rows, dict(best.distinct))
        return Estimate(1.0)

    # -- selectivity ---------------------------------------------------------

    def selectivity(self, condition, source):
        """Fraction of ``source`` rows a condition keeps.

        ``source`` is the child's :class:`Estimate`; equalities read
        its distinct counts.
        """
        if isinstance(condition, ra.Comparison):
            return self._comparison_selectivity(condition, source)
        if isinstance(condition, ra.And):
            out = 1.0
            for part in condition.parts:
                out *= self.selectivity(part, source)
            return out
        if isinstance(condition, ra.Or):
            out = 1.0
            for part in condition.parts:
                out *= 1.0 - self.selectivity(part, source)
            return 1.0 - out
        if isinstance(condition, ra.Not):
            return 1.0 - self.selectivity(condition.part, source)
        return 0.5

    def _comparison_selectivity(self, condition, source):
        equality = self._equality_selectivity(condition, source)
        if condition.op == "=":
            return equality
        if condition.op == "!=":
            return 1.0 - equality
        return RANGE_SELECTIVITY

    def _equality_selectivity(self, condition, source):
        distincts = []
        for operand in (condition.left, condition.right):
            if isinstance(operand, ra.Attr):
                d = source.distinct.get(operand.name)
                if d is not None and d > 0:
                    distincts.append(d)
        if not distincts:
            return EQUALITY_SELECTIVITY
        return 1.0 / max(distincts)

    # -- node helpers --------------------------------------------------------

    def _base(self, name, db):
        stats = db.catalog().stats(name) if db is not None else None
        if stats is None:
            # Unknown names and sys_ relations, which the catalog never
            # materializes to plan.
            return Estimate(1.0)
        return Estimate(
            stats.rows, {a: float(d) for a, d in stats.distincts().items()}
        )

    def _join(self, expr, db):
        left = self.estimate(expr.left, db)
        right = self.estimate(expr.right, db)
        # No shared attributes means the join *is* the cross product, and
        # it is estimated as one.
        rows = left.rows * right.rows
        for attribute in set(left.distinct) & set(right.distinct):
            rows /= max(
                left.distinct[attribute], right.distinct[attribute], 1.0
            )
        distinct = {}
        for a, d in left.distinct.items():
            distinct[a] = min(d, right.distinct.get(a, d))
        for a, d in right.distinct.items():
            distinct.setdefault(a, d)
        return Estimate(rows, distinct).clamped()

    def _theta(self, expr, db):
        left = self.estimate(expr.left, db)
        right = self.estimate(expr.right, db)
        distinct = dict(left.distinct)
        distinct.update(right.distinct)
        combined = Estimate(left.rows * right.rows, distinct)
        selectivity = self.selectivity(expr.condition, combined)
        return Estimate(combined.rows * selectivity, distinct).clamped()

