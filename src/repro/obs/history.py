"""The query-history flight recorder: a bounded log of workbench runs.

Every query that enters a recording :class:`~repro.core.workbench
.MetatheoryWorkbench` — through any front-end, succeeding or raising —
leaves one :class:`QueryRecord` in a ring buffer: kind, text hash, wall
time, rows out, tuples materialized, optimizer rules fired, cache
outcomes, executor route, and the error if one was raised.  Like its
aviation namesake the recorder captures *continuously* and keeps a
bounded window (``capacity`` most recent queries); a crash is exactly
when the tape matters most, so recording happens in a ``finally`` and a
failed query is a first-class record with ``status="error"``.

Arming the **slow-query threshold** (``slow_ms``) runs each query on
its kernel's instrumented variant
(:func:`~repro.plan.explain.explain_kernel` — the same fused loops,
with per-operator counters and per-pipeline clocks), so when a query
crosses the threshold the full per-operator
:class:`~repro.plan.explain.OpReport` tree already exists and is
attached to the record.  Reports for fast queries are discarded; the
wall time recorded is the instrumented run's, and the record says so
(``instrumented=True``).

Zero-cost when off: a disabled history costs one attribute check per
query on the workbench's hot path — no records, no statistics objects,
no captures are allocated (the tier-1 pin covers this alongside the
no-span-allocation contract).

The recorder's data is also a **system relation**: ``sys_query_log``
(see :mod:`repro.obs.introspect`) materializes the ring buffer as an
ordinary queryable relation, so the workbench can be asked about its
own history in SQL, algebra, calculus, or Datalog.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque


def query_text(query):
    """The canonical text form of a query in any front-end."""
    return query if isinstance(query, str) else repr(query)


def query_hash(text):
    """A short stable content hash of a query's text form."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


class QueryRecord:
    """One recorded query: what ran, how it ran, what it cost.

    Attributes:
        qid: monotonically increasing id within the history.
        kind: front-end ("sql", "algebra", "calculus", "datalog").
        text: the query's text form (SQL/Datalog source, or the repr of
            an algebra/calculus object).
        query_hash: short SHA-1 of ``text``.
        status: ``"ok"`` or ``"error"``.
        error: ``"ExcType: message"`` when the query raised, else None.
        wall_ms: wall-clock milliseconds for the whole call.
        rows: result cardinality (relation size, or the Datalog model's
            fact count); None when the query raised.
        tuples_materialized: executor buffer work charged to the run.
        rules_fired: ``{rule_name: count}`` from the optimizer (empty
            when no rule fired or not applicable).
        plan_cache_hit / parse_cache_hit: workbench cache outcomes
            (None where the cache does not apply).
        plan_fingerprint: short hash of the plan-cache key, joinable
            against ``sys_plan_cache``; None off the pipeline path.
        route: how the query executed ("compiled" for a kernel,
            instrumented or not; "treewalk", "direct",
            "datalog:fixpoint" for every Datalog program, and
            "dml:<kind>:<route>" for DML).
        slow: True when ``wall_ms`` crossed the armed threshold.
        instrumented: True when the run used the instrumented executor.
        report: the :class:`~repro.plan.explain.OpReport` tree attached
            to slow queries (None otherwise).
    """

    __slots__ = (
        "qid", "kind", "text", "query_hash", "status", "error", "wall_ms",
        "rows", "tuples_materialized", "rules_fired", "plan_cache_hit",
        "parse_cache_hit", "plan_fingerprint", "route", "slow",
        "instrumented", "report",
    )

    def __init__(self, qid, kind, text, wall_ms, rows=None,
                 tuples_materialized=0, rules_fired=None,
                 plan_cache_hit=None, parse_cache_hit=None,
                 plan_fingerprint=None, route=None, error=None, slow=False,
                 instrumented=False, report=None):
        self.qid = qid
        self.kind = kind
        self.text = text
        self.query_hash = query_hash(text)
        self.status = "ok" if error is None else "error"
        self.error = error
        self.wall_ms = wall_ms
        self.rows = rows
        self.tuples_materialized = tuples_materialized
        self.rules_fired = dict(rules_fired or {})
        self.plan_cache_hit = plan_cache_hit
        self.parse_cache_hit = parse_cache_hit
        self.plan_fingerprint = plan_fingerprint
        self.route = route
        self.slow = slow
        self.instrumented = instrumented
        self.report = report

    def row(self):
        """The record as a ``sys_query_log`` tuple (see introspect)."""
        return (
            self.qid,
            self.kind,
            self.status,
            self.query_hash,
            self.text,
            self.wall_ms,
            self.rows,
            self.tuples_materialized,
            sum(self.rules_fired.values()),
            _flag(self.plan_cache_hit),
            _flag(self.parse_cache_hit),
            self.plan_fingerprint,
            self.route,
            int(self.slow),
            self.error,
        )

    def as_dict(self):
        """JSON-ready form (the CI artifact's record schema)."""
        return {
            "qid": self.qid,
            "kind": self.kind,
            "status": self.status,
            "error": self.error,
            "query_hash": self.query_hash,
            "text": self.text,
            "wall_ms": self.wall_ms,
            "rows": self.rows,
            "tuples_materialized": self.tuples_materialized,
            "rules_fired": dict(self.rules_fired),
            "plan_cache_hit": self.plan_cache_hit,
            "parse_cache_hit": self.parse_cache_hit,
            "plan_fingerprint": self.plan_fingerprint,
            "route": self.route,
            "slow": self.slow,
            "instrumented": self.instrumented,
            "report": None if self.report is None else self.report.as_dict(),
        }

    def __repr__(self):
        return "QueryRecord(#%d %s %s %.3fms%s)" % (
            self.qid, self.kind, self.status, self.wall_ms,
            " SLOW" if self.slow else "",
        )


def _flag(value):
    """Cache flags as queryable ints (None stays None)."""
    return value if value is None else int(value)


class QueryHistory:
    """A bounded ring buffer of :class:`QueryRecord` instances.

    Args:
        capacity: how many most-recent records to keep.
        slow_ms: the slow-query threshold in milliseconds; None leaves
            the flight recorder disarmed (no instrumented runs, no
            attached reports).
        enabled: start recording immediately.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when set, each record also bumps ``queries_total`` /
            ``query_errors_total`` counters and a ``query_wall_ms``
            histogram labeled by kind, so ``sys_metrics`` has live
            content wherever the recorder is on.
    """

    __slots__ = ("capacity", "slow_ms", "enabled", "registry",
                 "_records", "_next_id")

    def __init__(self, capacity=256, slow_ms=None, enabled=True,
                 registry=None):
        self.capacity = max(1, int(capacity))
        self.slow_ms = slow_ms
        self.enabled = bool(enabled)
        self.registry = registry
        self._records = deque(maxlen=self.capacity)
        self._next_id = 0

    # -- switches ---------------------------------------------------------

    def enable(self, slow_ms=None):
        """Turn recording on (optionally arming the slow threshold)."""
        self.enabled = True
        if slow_ms is not None:
            self.slow_ms = slow_ms
        return self

    def disable(self):
        """Stop recording (kept records stay readable)."""
        self.enabled = False
        return self

    # -- recording --------------------------------------------------------

    def add(self, kind, query, elapsed, result=None, stats=None,
            capture=None, error=None):
        """Build and append the record for one finished (or failed) run.

        Called by the workbench from a ``finally`` block; ``capture`` is
        the pipeline's scratch dict (cache flags, fired rules, route,
        fingerprint, and — on instrumented runs — the OpReport).
        """
        capture = capture or {}
        wall_ms = elapsed * 1e3
        slow = self.slow_ms is not None and wall_ms >= self.slow_ms
        text = query_text(query)
        record = QueryRecord(
            self._next_id,
            kind,
            text,
            wall_ms,
            rows=None if error is not None else _cardinality(result),
            tuples_materialized=(
                stats.tuples_materialized if stats is not None else 0
            ),
            rules_fired=capture.get("rules"),
            plan_cache_hit=capture.get("plan_cache_hit"),
            parse_cache_hit=capture.get("parse_cache_hit"),
            plan_fingerprint=capture.get("plan_fingerprint"),
            route=capture.get("route"),
            error=(
                None if error is None
                else "%s: %s" % (type(error).__name__, error)
            ),
            slow=slow,
            instrumented=bool(capture.get("instrumented")),
            report=capture.get("report") if slow else None,
        )
        self._next_id += 1
        self._records.append(record)
        if self.registry is not None:
            self.registry.counter("queries_total", kind=kind).inc()
            if error is not None:
                self.registry.counter("query_errors_total", kind=kind).inc()
            self.registry.histogram("query_wall_ms", kind=kind).observe(
                wall_ms
            )
        return record

    # -- reading ----------------------------------------------------------

    def records(self):
        """All retained records, oldest first."""
        return list(self._records)

    def last(self):
        """The most recent record, or None."""
        return self._records[-1] if self._records else None

    def slow_queries(self):
        """Retained records that crossed the armed threshold."""
        return [record for record in self._records if record.slow]

    def clear(self):
        self._records.clear()

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    # -- export -----------------------------------------------------------

    def as_dicts(self):
        return [record.as_dict() for record in self._records]

    def as_json_lines(self):
        """One JSON object per record (the CI flight-recorder artifact)."""
        return "\n".join(
            json.dumps(entry, sort_keys=True, default=str)
            for entry in self.as_dicts()
        )

    def __repr__(self):
        return "QueryHistory(%d/%d records, %s%s)" % (
            len(self._records),
            self.capacity,
            "recording" if self.enabled else "off",
            "" if self.slow_ms is None else ", slow>=%gms" % self.slow_ms,
        )


def _cardinality(result):
    """Rows out of a result: relation size or Datalog model fact count."""
    if result is None:
        return None
    count = getattr(result, "count", None)
    if callable(count):  # FactStore
        return count()
    try:
        return len(result)
    except TypeError:
        return None


def make_history(history, slow_ms=None, registry=None):
    """The workbench's history-argument idiom.

    ``history`` may be an existing :class:`QueryHistory` (adopted as
    is), True (recording on), or None/False (recorder present but off —
    still zero-cost, still enableable later).  A ``slow_ms`` threshold
    arms the flight recorder and implies recording on.
    """
    if isinstance(history, QueryHistory):
        if slow_ms is not None:
            history.slow_ms = slow_ms
        if history.registry is None:
            history.registry = registry
        return history
    enabled = bool(history) or slow_ms is not None
    return QueryHistory(slow_ms=slow_ms, enabled=enabled, registry=registry)
