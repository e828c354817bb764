"""EXPLAIN ANALYZE: run a plan and annotate every physical operator.

The instrumented twin of :func:`~repro.plan.executor.execute_physical`:
:func:`run_explained` builds the physical plan, gives *every operator
its own* :class:`~repro.datalog.stats.EngineStatistics` (so probe/scan/
build/buffer work is attributed exactly, not pooled), and wraps each
operator's pull generator with a timing probe counting rows out and
wall-clock time spent inside ``next()``.  Timing is *inclusive* — an
operator's elapsed time contains its children's, like the "actual time"
column of a conventional EXPLAIN ANALYZE — so a parent's time is always
at least each child's.

The result is an :class:`ExplainResult`: the query answer plus an
:class:`OpReport` tree (rows, elapsed, per-operator counters, peak
buffer) that renders as an indented EXPLAIN tree, exports as a dict,
and mirrors into a :class:`~repro.obs.trace.Tracer` as nested spans.
Running explained returns exactly the same relation as running plain
(the differential suite pins this on the random-algebra generator).

Zero-cost-when-off holds trivially here: nothing in this module runs
unless the caller asked for an explained execution.
"""

from __future__ import annotations

import time

from ..datalog.stats import EngineStatistics
from ..obs.trace import NULL_TRACER
from ..opt.cost import CostModel
from ..relational.relation import Relation
from .physical import Tally, _BuiltIndex, build_physical


class OpReport:
    """One operator's annotated EXPLAIN node."""

    __slots__ = ("label", "rows", "elapsed", "stats", "peak_buffer",
                 "children", "est_rows")

    def __init__(self, label):
        self.label = label
        self.rows = 0
        self.elapsed = 0.0
        self.stats = EngineStatistics()
        self.peak_buffer = 0
        self.children = []
        self.est_rows = None

    def walk(self, depth=0):
        """Yield ``(depth, report)`` pairs, pre-order."""
        yield depth, self
        for child in self.children:
            for pair in child.walk(depth + 1):
                yield pair

    def as_dict(self):
        return {
            "operator": self.label,
            "rows": self.rows,
            "est_rows": self.est_rows,
            "elapsed_ms": self.elapsed * 1e3,
            "peak_buffer": self.peak_buffer,
            "counters": self.stats.as_dict(),
            "children": [child.as_dict() for child in self.children],
        }

    def _line(self):
        parts = [
            self.label,
            "rows=%d" % self.rows,
            "time=%.3fms" % (self.elapsed * 1e3),
        ]
        if self.est_rows is not None:
            parts.insert(2, "est=%.0f" % self.est_rows)
        counters = self.stats.as_dict()
        for field in ("facts_scanned", "index_probes", "index_builds",
                      "tuples_materialized"):
            if counters[field]:
                parts.append("%s=%d" % (field, counters[field]))
        if self.peak_buffer:
            parts.append("peak=%d" % self.peak_buffer)
        return "  ".join(parts)

    def render(self, indent="  "):
        """The report subtree as an indented EXPLAIN tree."""
        return "\n".join(
            "%s%s" % (indent * depth, report._line())
            for depth, report in self.walk()
        )

    def __repr__(self):
        return "OpReport(%s, rows=%d)" % (self.label, self.rows)


class ExplainResult:
    """What ``explain_analyze`` returns: the answer plus the evidence.

    Attributes:
        result: the query result (a Relation; for explained Datalog
            programs, a FactStore).
        report: the root :class:`OpReport` of the annotated plan tree.
        elapsed: total wall-clock seconds of the instrumented run.
        stats: total :class:`EngineStatistics` (sum over operators plus
            the final result buffer).
        kind: front-end the query arrived through ("sql", "algebra",
            "calculus", "datalog"), when known.
        plan_cache_hit / parse_cache_hit: workbench cache outcomes for
            this run (None when the cache does not apply, e.g. an
            algebra object needs no parse).
        optimizer: the :class:`~repro.opt.OptimizationInfo` of the plan
            that ran — which rules fired, the chosen join method and
            order (None on unoptimized runs).
        kernel: compiled-kernel status of this plan in the workbench's
            :class:`~repro.compile.KernelCache` — a dict with
            ``fingerprint`` and ``status`` ("compiled" with pipeline and
            hit counts, "fallback" with the refusal reason, or "cold");
            None outside the workbench (e.g. explained Datalog).
    """

    __slots__ = ("result", "report", "elapsed", "stats", "kind",
                 "plan_cache_hit", "parse_cache_hit", "optimizer",
                 "kernel")

    def __init__(self, result, report, elapsed, stats, kind=None,
                 plan_cache_hit=None, parse_cache_hit=None, optimizer=None,
                 kernel=None):
        self.result = result
        self.report = report
        self.elapsed = elapsed
        self.stats = stats
        self.kind = kind
        self.plan_cache_hit = plan_cache_hit
        self.parse_cache_hit = parse_cache_hit
        self.optimizer = optimizer
        self.kernel = kernel

    @property
    def relation(self):
        """Alias for relational results (reads like wb.sql(...))."""
        return self.result

    def operators(self):
        """All operator labels, pre-order (tests and quick inspection)."""
        return [report.label for _, report in self.report.walk()]

    def find(self, prefix):
        """All OpReports whose label starts with ``prefix``."""
        return [
            report
            for _, report in self.report.walk()
            if report.label.startswith(prefix)
        ]

    def as_dict(self):
        return {
            "kind": self.kind,
            "rows": self.report.rows,
            "elapsed_ms": self.elapsed * 1e3,
            "plan_cache_hit": self.plan_cache_hit,
            "parse_cache_hit": self.parse_cache_hit,
            "optimizer": (
                self.optimizer.as_dict()
                if self.optimizer is not None
                else None
            ),
            "kernel": self.kernel,
            "totals": self.stats.as_dict(),
            "plan": self.report.as_dict(),
        }

    def render(self):
        """Header plus the indented operator tree (human EXPLAIN view)."""
        caches = []
        if self.plan_cache_hit is not None:
            caches.append(
                "plan_cache=%s" % ("hit" if self.plan_cache_hit else "miss")
            )
        if self.parse_cache_hit is not None:
            caches.append(
                "parse_cache=%s" % ("hit" if self.parse_cache_hit else "miss")
            )
        header = "EXPLAIN ANALYZE%s  %d rows in %.3fms%s" % (
            " (%s)" % self.kind if self.kind else "",
            self.report.rows,
            self.elapsed * 1e3,
            ("  [%s]" % " ".join(caches)) if caches else "",
        )
        lines = [header]
        if self.optimizer is not None:
            summary = self.optimizer.summary()
            lines.append("Optimizer: %s" % (summary or "no rules fired"))
        if self.kernel is not None:
            status = self.kernel["status"]
            if status == "compiled":
                detail = "compiled %s (%d pipelines, %d hits)" % (
                    self.kernel["fingerprint"],
                    self.kernel["pipelines"],
                    self.kernel["hits"],
                )
            elif status == "fallback":
                detail = "fallback (%s)" % self.kernel["reason"]
            else:
                detail = "cold (not compiled yet)"
            lines.append("Kernel: %s" % detail)
        lines.append(self.report.render())
        return "\n".join(lines)

    def __repr__(self):
        return "ExplainResult(%s, rows=%d, %.3fms)" % (
            self.kind, self.report.rows, self.elapsed * 1e3
        )


class _Probe:
    """Wraps a physical operator: times ``next()`` calls, counts rows.

    Exposes just what consumers touch at runtime (``schema`` and
    ``tuples``), so it can stand in for the operator inside any parent.
    """

    __slots__ = ("op", "report")

    def __init__(self, op, report):
        self.op = op
        self.report = report

    @property
    def schema(self):
        return self.op.schema

    def describe(self):
        return self.op.describe()

    def tuples(self):
        report = self.report
        clock = time.perf_counter
        iterator = self.op.tuples()
        while True:
            started = clock()
            try:
                item = next(iterator)
            except StopIteration:
                report.elapsed += clock() - started
                return
            report.elapsed += clock() - started
            report.rows += 1
            yield item


def instrument(root):
    """Attach per-operator accounting to a built physical plan.

    Every operator (and its index helper, if any) is re-bound to a
    private :class:`Tally`, and every child edge is replaced with a
    :class:`_Probe`.  Returns ``(report_root, probe_root, pairs)`` where
    ``pairs`` maps each operator to its report (for post-run peaks).
    """
    pairs = []

    def visit(op):
        report = OpReport(op.label())
        op.tally = Tally(report.stats)
        pairs.append((op, report))
        wrapped = {}
        for slot in op.child_slots:
            child = getattr(op, slot)
            if id(child) in wrapped:
                setattr(op, slot, wrapped[id(child)])
                continue
            child_report, probe = visit(child)
            report.children.append(child_report)
            setattr(op, slot, probe)
            wrapped[id(child)] = probe
        index = getattr(op, "_index", None)
        if index is not None:
            # Index-build work (base-index first builds, hash-table
            # builds) is charged to the operator that owns the index.
            index.tally = op.tally
            if isinstance(index, _BuiltIndex):
                probe = wrapped.get(id(index.child))
                if probe is None:
                    child_report, probe = visit(index.child)
                    report.children.append(child_report)
                index.child = probe
        return report, _Probe(op, report)

    report, probe = visit(root)
    return report, probe, pairs


def run_explained(plan, db, stats=None, tracer=NULL_TRACER, kind=None):
    """Execute an already-canonical plan with full instrumentation.

    Produces the same relation as
    :func:`~repro.plan.executor.execute_physical` (same schema, same
    tuples) while attributing rows, time, and counters per operator.

    Args:
        plan: a canonical algebra expression.
        db: the database to run over.
        stats: optional session-level EngineStatistics; the run's total
            work is merged into it, so an explained run charges the same
            counters a plain run would.
        tracer: optional tracer; the finished report tree is mirrored
            into it as nested ``op:`` spans under an ``execute`` span.
        kind: front-end label recorded on the result.

    Returns:
        An :class:`ExplainResult`.
    """
    root = build_physical(plan, db, Tally(EngineStatistics()))
    report, probe, pairs = instrument(root)

    # The final result set is a buffer like any other; charge it to a
    # synthetic Result node so the tree accounts for every tuple held.
    result_report = OpReport("Result")
    result_report.children.append(report)
    result_tally = Tally(result_report.stats)
    clock = time.perf_counter
    started = clock()
    out = set()
    for item in probe.tuples():
        if item not in out:
            out.add(item)
            result_tally.buffered(len(out))
    elapsed = clock() - started
    result_report.rows = len(out)
    result_report.elapsed = elapsed

    for op, op_report in pairs:
        op_report.peak_buffer = op.tally.peak_buffer
    result_report.peak_buffer = result_tally.peak_buffer

    totals = EngineStatistics()
    for _, op_report in result_report.walk():
        totals.merge(op_report.stats)
    if stats is not None:
        stats.merge(totals)

    relation = Relation(root.schema, out, validate=False)
    result = ExplainResult(
        relation, result_report, elapsed, totals, kind=kind
    )
    if tracer.enabled:
        emit_spans(tracer, result_report, kind=kind)
    return result


def annotate_estimates(report, plan, db):
    """Attach estimated cardinalities (``est=``) to an OpReport tree.

    Pairs the physical report tree with the logical plan it was built
    from: operator reports list their input reports in the same order
    the logical node lists its children, with one systematic exception —
    a hash join probing a base relation's cached index has no report
    child for the right side (no operator ran there), which the
    order-preserving prefix zip below handles by simply not annotating
    it.  Estimates come from the shared :mod:`repro.opt.cost` model, so
    EXPLAIN shows exactly the numbers the optimizer planned with, next
    to the actual rows the run produced.
    """
    cost_model = CostModel()

    def visit(op_report, expr):
        try:
            op_report.est_rows = cost_model.rows(expr, db)
        except Exception:
            return
        for child_report, child_expr in zip(
            op_report.children, expr.children()
        ):
            visit(child_report, child_expr)

    if report.label == "Result" and report.children:
        try:
            report.est_rows = cost_model.rows(plan, db)
        except Exception:
            pass
        visit(report.children[0], plan)
    else:
        visit(report, plan)


def emit_spans(tracer, report, kind=None):
    """Mirror a finished OpReport tree into the tracer as nested spans."""
    with tracer.span("execute", kind=kind) as root_span:
        _emit(tracer, report)
    root_span.elapsed = report.elapsed


def _emit(tracer, report):
    span = tracer.begin("op:%s" % report.label, rows=report.rows)
    if report.peak_buffer:
        span.set(peak_buffer=report.peak_buffer)
    for child in report.children:
        _emit(tracer, child)
    tracer.end(span)
    # The probes measured real time and counters; the mirror span's own
    # clock only saw the mirroring, so overwrite with the measurements.
    span.elapsed = report.elapsed
    counters = report.stats.as_dict()
    if any(counters.values()):
        span.counters = counters


def explain_datalog(program, db, plan_for, stats=None, tracer=NULL_TRACER):
    """EXPLAIN ANALYZE a non-recursive Datalog program, predicate by
    predicate.

    Runs :func:`~repro.datalog.lowering.lowered_evaluate` over ``db``
    with each predicate's plan instrumented, and collects the
    per-predicate trees under one ``Program`` root report.

    Args:
        program: a non-recursive Datalog program.
        db: the database the plans read.
        plan_for: ``plan_for(canonical)`` returning the
            ``(template, info, hit, key, values)`` of a plan cache (the
            workbench's ``_plan_for``).
        stats: optional EngineStatistics charged with the run's work.
        tracer: optional tracer for the lowering and operator spans.

    Returns:
        An :class:`ExplainResult` whose ``result`` is the model
        (a :class:`~repro.datalog.facts.FactStore`), whose report tree
        has one ``Datalog(predicate)`` child per lowered predicate, and
        whose ``plan_cache_hit`` is True when every plan was cached.

    Raises:
        DatalogError: for recursive programs (not lowerable).
    """
    from ..datalog.lowering import lowered_evaluate
    from .logical import bind, canonicalize

    db_schema = db.schema()
    root = OpReport("Program")
    totals = EngineStatistics()
    hits = []

    def execute(predicate, expr, _stats):
        template, _info, hit, _key, values = plan_for(
            canonicalize(expr, db_schema)
        )
        hits.append(hit)
        sub = run_explained(
            bind(template, values), db, tracer=tracer, kind="datalog"
        )
        predicate_report = OpReport("Datalog(%s)" % predicate)
        predicate_report.rows = len(sub.result)
        predicate_report.elapsed = sub.elapsed
        predicate_report.children.append(sub.report)
        root.children.append(predicate_report)
        totals.merge(sub.stats)
        return sub.result

    model = lowered_evaluate(program, db, execute=execute, tracer=tracer)
    root.rows = model.count()
    root.elapsed = sum(child.elapsed for child in root.children)
    if stats is not None:
        stats.merge(totals)
    return ExplainResult(
        model, root, root.elapsed, totals, kind="datalog",
        plan_cache_hit=all(hits) if hits else None,
    )
