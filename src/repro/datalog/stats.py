"""Engine statistics: making the physical layer's work observable.

Every Datalog engine, and every kernel and plan run, accepts an optional
:class:`EngineStatistics` and charges its physical work to it — so
claims like "the delta drives each differential round" are measured,
not anecdotal.

Counter semantics (the kernels' counters are defined in
:mod:`repro.compile.codegen`):

* ``facts_scanned`` — tuples read out of a relation or fact set: full
  scans, index buckets probed, and every tuple read while building an
  index (a kernel's hash table, a stored relation's cached key index
  on its first use, or the scan matcher's transient index).
* ``index_probes`` — hash lookups a kernel makes into an index (one
  per probing tuple).  Probes are O(1) and deliberately *not* counted
  as scans.
* ``index_builds`` — indexes built.  A cached key index that a
  semi-naive round patches in place
  (:meth:`~repro.relational.relation.GrowingRelation.grow`) is not
  built again.
* ``tuples_materialized`` — tuples a run buffers: join bindings of the
  scan matcher, and each kernel's pipeline-breaker buffers and result.
* ``iterations`` — fixpoint rounds, summed across strata (bottom-up) or
  resolution passes (top-down).
* ``rule_firings`` — rule evaluations: calls to the scan matcher's
  :func:`~repro.datalog.matching.evaluate_rule` (naive, top-down), and
  runs of a rule's plan or differential variant (semi-naive).
"""

from __future__ import annotations

import json

#: Counter fields, in display order.
FIELDS = (
    "facts_scanned",
    "index_probes",
    "index_builds",
    "tuples_materialized",
    "iterations",
    "rule_firings",
)


class EngineStatistics:
    """Mutable work counters threaded through one engine run."""

    __slots__ = FIELDS

    def __init__(self, **initial):
        for field in FIELDS:
            setattr(self, field, 0)
        for field, value in initial.items():
            if field not in FIELDS:
                raise TypeError("unknown statistics field %r" % (field,))
            setattr(self, field, value)

    def as_dict(self):
        """Counters as a plain dict (stable field order)."""
        return {field: getattr(self, field) for field in FIELDS}

    def merge(self, other):
        """Add another run's counters into this one; returns self."""
        for field in FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def copy(self):
        snapshot = EngineStatistics()
        for field in FIELDS:
            setattr(snapshot, field, getattr(self, field))
        return snapshot

    def diff(self, before):
        """Counter deltas since the ``before`` snapshot (a new instance).

        The span-attachment primitive: ``snapshot = stats.copy()`` when a
        span opens, ``stats.diff(snapshot)`` when it closes — each span
        carries exactly the work accrued during its lifetime.
        """
        delta = EngineStatistics()
        for field in FIELDS:
            setattr(
                delta, field, getattr(self, field) - getattr(before, field)
            )
        return delta

    def as_json(self):
        """The counters as a JSON object string (stable field order)."""
        return json.dumps(self.as_dict())

    def __eq__(self, other):
        if not isinstance(other, EngineStatistics):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        parts = ["%s=%d" % (f, getattr(self, f)) for f in FIELDS]
        return "EngineStatistics(%s)" % ", ".join(parts)

    def format(self):
        """One counter per line, aligned — for benchmark artifacts.

        Delegates to :meth:`as_dict`, so the text, JSON, and dict views
        always agree on fields and order.
        """
        counters = self.as_dict()
        width = max(len(field) for field in counters)
        return "\n".join(
            "%s  %d" % (field.ljust(width), value)
            for field, value in counters.items()
        )
