"""Observability: spans, metrics, history, and introspection relations.

The paper judges the health of a field by *measuring* it; this package
applies the same discipline to the codebase.  Every execution layer —
instrumented kernels, the Datalog fixpoint engines, the transaction
schedulers — can emit spans into a :class:`~repro.obs.trace.Tracer` and
counters into a :class:`~repro.obs.metrics.MetricsRegistry`, turning
runtime behavior into first-class inspectable data instead of print
statements.

Two layers close the loop and make that data *queryable*:

* :mod:`repro.obs.history` — a flight recorder of per-query records on
  the workbench (ring buffer, error capture, slow-query OpReports);
* :mod:`repro.obs.introspect` — the ``sys_`` system relations
  (``sys_metrics``, ``sys_spans``, ``sys_query_log``,
  ``sys_plan_cache``, ``sys_catalog_stats``, ``sys_transactions``, ...),
  materialized on demand so every front-end can query the system about
  itself.

The contract: observability is zero-cost when off.  Every instrumented
call site defaults to :data:`~repro.obs.trace.NULL_TRACER`, whose
methods are no-ops returning one shared null span — no allocation, no
timing, no branches beyond the method dispatch — and a disabled query
history costs one attribute check per workbench call.
"""

from .export import render_metrics, render_trace, trace_json_lines
from .history import QueryHistory, QueryRecord
from .introspect import (
    SYSTEM_RELATION_NAMES,
    SystemRelations,
    install_introspection,
)
from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer, ensure_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QueryHistory",
    "QueryRecord",
    "REGISTRY",
    "SYSTEM_RELATION_NAMES",
    "Span",
    "SystemRelations",
    "Tracer",
    "ensure_tracer",
    "install_introspection",
    "render_metrics",
    "render_trace",
    "trace_json_lines",
]
