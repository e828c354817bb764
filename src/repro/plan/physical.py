"""Work accounting and the access-path rules kernels share.

:class:`Tally` is what a kernel charges its work to: an
:class:`~repro.datalog.stats.EngineStatistics` (the same counters the
Datalog engines use) plus the largest single operator buffer.  The
counters' meanings are in :mod:`repro.compile.codegen`.

Two *access paths* replace scans over a stored base relation, reached
directly or through any chain of ``Rename`` nodes (SQL aliases), since
renames keep attribute order (:func:`stored_base_name`):

* an equality selection (``attr = const`` conjuncts, split off by
  :func:`lookup_keys`) probes the relation's cached
  :meth:`~repro.relational.relation.Relation._key_index` once and
  filters the bucket by the residual conjuncts;
* a natural join, or a theta join with cross-side equalities
  (:func:`theta_keys`), whose right input is such a relation probes that
  relation's cached index instead of draining it into a fresh table.

Cached indexes are shared by every later query on the same binding and
carried across writes by
:meth:`~repro.relational.relation.Relation.with_delta`.  Virtual
``sys_`` relations stay on scans: each lookup materializes a fresh
relation, so an index on one would never be reused.
"""

from __future__ import annotations

from ..relational import algebra as ra
from ..relational.database import is_system_name


class Tally:
    """Executor work counters: an EngineStatistics plus the buffer
    peak."""

    __slots__ = ("stats", "peak_buffer")

    def __init__(self, stats):
        self.stats = stats
        self.peak_buffer = 0


def _split_equi_conjuncts(condition, left_attrs, right_attrs):
    """Partition a theta condition into hashable cross-side equalities
    and a residual condition (None when fully consumed)."""
    parts = (
        list(condition.parts) if isinstance(condition, ra.And) else [condition]
    )
    equi = []
    residual = []
    for part in parts:
        pair = _cross_equality(part, left_attrs, right_attrs)
        if pair is not None:
            equi.append(pair)
        else:
            residual.append(part)
    if not residual:
        return equi, None
    return equi, residual[0] if len(residual) == 1 else ra.And(*residual)


def _cross_equality(part, left_attrs, right_attrs):
    if (
        isinstance(part, ra.Comparison)
        and part.op == "="
        and isinstance(part.left, ra.Attr)
        and isinstance(part.right, ra.Attr)
    ):
        a, b = part.left.name, part.right.name
        if a in left_attrs and b in right_attrs:
            return (a, b)
        if b in left_attrs and a in right_attrs:
            return (b, a)
    return None


def theta_keys(condition, left_schema, right_schema):
    """``(left_positions, right_positions, residual)`` of a theta join.

    The key positions come from the cross-side equality conjuncts,
    ordered by right position so every plan probing the same right
    relation on the same attributes shares one cached index pattern.
    Both are empty for a pure nested-loop condition.
    """
    equi, residual = _split_equi_conjuncts(
        condition, set(left_schema.attributes), set(right_schema.attributes)
    )
    pairs = sorted(
        (right_schema.position(b), left_schema.position(a)) for a, b in equi
    )
    return (
        tuple(left for _right, left in pairs),
        tuple(right for right, _left in pairs),
        residual,
    )


def stored_base_name(expr):
    """Name of the stored relation ``expr`` reads, or None.

    ``expr`` qualifies when it is a :class:`RelationRef` under any chain
    of renames (renames keep attribute order, so positions against the
    renamed schema address the stored tuples directly) and does not
    name a virtual ``sys_`` relation.
    """
    while isinstance(expr, ra.Rename):
        expr = expr.child
    if isinstance(expr, ra.RelationRef) and not is_system_name(expr.name):
        return expr.name
    return None


def lookup_keys(condition, schema):
    """Split a selection condition for an index lookup.

    Returns ``(positions, key, residual)`` — the ``attr = const``
    conjuncts as sorted positions and their constant key, and the
    remaining conjuncts (None when fully consumed) — or None when no
    conjunct qualifies.  A constant qualifies only when it is hashable
    and equal to itself: a NaN (never ``==`` to anything, yet found by
    identity in a dict) or an unhashable value stays a scan predicate.
    A template's :class:`~repro.relational.algebra.Param` always
    qualifies (only such values are lifted) and stands in the key for
    its value.
    """
    parts = (
        list(condition.parts) if isinstance(condition, ra.And) else [condition]
    )
    keyed = {}
    residual = []
    for part in parts:
        pair = _attr_const_equality(part, schema)
        if pair is not None and pair[0] not in keyed:
            keyed[pair[0]] = pair[1]
        else:
            residual.append(part)
    if not keyed:
        return None
    positions = tuple(sorted(keyed))
    rest = None
    if residual:
        rest = residual[0] if len(residual) == 1 else ra.And(*residual)
    return positions, tuple(keyed[p] for p in positions), rest


def _attr_const_equality(part, schema):
    """``(position, value)`` for a probe-safe ``attr = const``, else None."""
    if not isinstance(part, ra.Comparison) or part.op != "=":
        return None
    attr, const = part.left, part.right
    if isinstance(attr, (ra.Const, ra.Param)):
        attr, const = const, attr
    if not (isinstance(attr, ra.Attr) and attr.name in schema):
        return None
    if isinstance(const, ra.Param):
        return schema.position(attr.name), const
    if not isinstance(const, ra.Const):
        return None
    value = const.value
    try:
        hash(value)
        if not value == value:
            return None
    except (TypeError, ValueError):  # unhashable; no truth value
        return None
    return schema.position(attr.name), value
