"""EXPLAIN ANALYZE: run a plan's kernel and annotate every operator.

:func:`explain_kernel` runs a compiled kernel's *instrumented variant*
(:meth:`~repro.compile.codegen.CompiledKernel.instrumented`): the same
fused loops production runs, with each operator's probe/scan/build/
buffer work counted on its own (attributed exactly, not pooled), the
rows it passes on, and a clock read around each pipeline.  Fused
operators share one loop, so time is measured per pipeline and reported
*inclusive*: an operator's elapsed time is that of the pipelines it and
its inputs drive, like the "actual time" column of a conventional
EXPLAIN ANALYZE, so a parent's time is always at least each child's.
An operator the kernel never runs (the right side of a join that
probes a stored relation's cached index) has no report.

The result is an :class:`ExplainResult`: the query answer plus an
:class:`OpReport` tree (rows, elapsed, per-operator counters, peak
buffer) that renders as an indented EXPLAIN tree, exports as a dict,
and mirrors into a :class:`~repro.obs.trace.Tracer` as nested spans.
Running explained returns exactly the same relation as running plain,
and charges the caller's statistics the same counters.

Zero-cost-when-off holds trivially here: nothing in this module runs
unless the caller asked for an explained execution.
"""

from __future__ import annotations

import time

from ..datalog.seminaive import seminaive_evaluate
from ..datalog.stats import EngineStatistics
from ..obs.trace import NULL_TRACER
from ..opt.cost import CostModel
from .executor import resolve_physical
from .logical import bind_condition

#: Where an instrumented kernel's counters land on an OpReport's
#: statistics (the rows and the peak buffer are report fields).
_STAT_FIELDS = ("facts_scanned", "index_probes", "index_builds",
                "tuples_materialized")


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
            order (None for a Datalog program, which runs many plans).
        kernel: the workbench kernel that ran — a dict with its
            ``fingerprint``, ``status`` ("compiled"), ``pipelines`` and
            cache ``hits``; None outside the workbench (e.g. explained
            Datalog).
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
            lines.append(
                "Kernel: compiled %s (%d pipelines, %d hits)" % (
                    self.kernel["fingerprint"],
                    self.kernel["pipelines"],
                    self.kernel["hits"],
                )
            )
        lines.append(self.report.render())
        return "\n".join(lines)

    def __repr__(self):
        return "ExplainResult(%s, rows=%d, %.3fms)" % (
            self.kind, self.report.rows, self.elapsed * 1e3
        )


def kernel_status(kernel):
    """The :attr:`ExplainResult.kernel` dict of a cached kernel."""
    return {
        "fingerprint": kernel.fingerprint,
        "status": "compiled",
        "pipelines": kernel.pipelines,
        "hits": kernel.hits,
    }


def explain_kernel(kernel, db, values=(), stats=None, tracer=NULL_TRACER,
                   kind=None):
    """Run ``kernel``'s instrumented variant over ``db`` and annotate it.

    Args:
        kernel: a :class:`~repro.compile.codegen.CompiledKernel` of a
            canonical plan or template.
        db: the database to run over.
        values: the template's parameter values; labels show them in
            place of the slots.
        stats: optional session-level EngineStatistics; the run's total
            work is merged into it, exactly what the plain kernel would
            charge.
        tracer: optional tracer; the finished report tree is mirrored
            into it as nested ``op:`` spans under an ``execute`` span.
        kind: front-end label recorded on the result.

    Returns:
        An :class:`ExplainResult` whose root report is the ``Result``
        node (the final result buffer).
    """
    variant = kernel.instrumented()
    clock = time.perf_counter
    started = clock()
    relation, counts, times = variant.profile(db, values)
    elapsed = clock() - started
    reports = []
    for (label, condition, _children, _segments), counters in zip(
        variant.operators, counts
    ):
        if condition is not None:
            label = label % (bind_condition(condition, values),)
        report = OpReport(label)
        report.rows = counters[0]
        for field, value in zip(_STAT_FIELDS, counters[1:5]):
            setattr(report.stats, field, value)
        report.peak_buffer = counters[5]
        reports.append(report)
    # Every input's index exceeds its consumer's, so walking backwards
    # times each child before its parent.
    for index in range(len(reports) - 1, -1, -1):
        _label, _condition, children, segments = variant.operators[index]
        report = reports[index]
        report.children = [reports[child] for child in children]
        report.elapsed = sum(times[s] for s in segments) + sum(
            child.elapsed for child in report.children
        )
    root = reports[0]
    root.elapsed = max(elapsed, root.elapsed)
    totals = EngineStatistics()
    for report in reports:
        totals.merge(report.stats)
    if stats is not None:
        stats.merge(totals)
    result = ExplainResult(relation, root, root.elapsed, totals, kind=kind)
    if tracer.enabled:
        emit_spans(tracer, root, kind=kind)
    return result


def run_explained(plan, db, stats=None, tracer=NULL_TRACER, kind=None):
    """EXPLAIN ANALYZE an already-canonical plan on the instrumented
    variant of its one-shot kernel.

    Produces the same relation as
    :func:`~repro.plan.executor.execute_physical` (same schema, same
    tuples); the arguments are as in :func:`explain_kernel`.
    """
    kernel, values = resolve_physical(plan, db.schema())
    return explain_kernel(kernel, db, values, stats, tracer, kind)


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


def explain_datalog(program, db, prepare, stats=None, tracer=NULL_TRACER):
    """EXPLAIN ANALYZE a Datalog program on the semi-naive driver.

    Runs :func:`~repro.datalog.seminaive.seminaive_evaluate` over
    ``db`` with every rule and differential variant plan explained, and
    collects the reports under one ``Program`` root: one
    ``Datalog(predicate)`` node per IDB predicate, in name order, and
    under it one report tree per plan that ran.  A plan's tree sums all
    of its runs (rows, time and counters add up; the peak buffer is the
    largest), so the report's size depends on the program, not on how
    many rounds its fixpoint takes.

    Args:
        program: a stratifiable Datalog program.
        db: the database whose relations are the EDB.
        prepare: ``prepare(predicate, expression, planning_db,
            db_schema)``, the driver's hook, returning
            ``explain(relations, stats)``: one explained run of the
            plan, an :class:`ExplainResult` (the workbench resolves the
            plan through its caches).
        stats: optional EngineStatistics charged with the run's work.
        tracer: optional tracer for the driver's and operator spans.

    Returns:
        An :class:`ExplainResult` whose ``result`` is the model (a
        :class:`~repro.datalog.facts.FactStore`).
    """
    nodes = {
        predicate: OpReport("Datalog(%s)" % predicate)
        for predicate in sorted(program.idb_predicates())
    }
    totals = EngineStatistics()

    def explained(predicate, expr, planning, db_schema):
        explain = prepare(predicate, expr, planning, db_schema)
        plan_report = None

        def run(relations, run_stats):
            nonlocal plan_report
            sub = explain(relations, run_stats)
            totals.merge(sub.stats)
            if plan_report is None:
                plan_report = sub.report
                nodes[predicate].children.append(plan_report)
            else:
                _add_run(plan_report, sub.report)
            return sub.result

        return run

    model = seminaive_evaluate(
        program, stats=stats, tracer=tracer, db=db, prepare=explained
    )
    root = OpReport("Program")
    for predicate, node in nodes.items():
        node.rows = len(model.get(predicate))
        node.elapsed = sum(child.elapsed for child in node.children)
        root.children.append(node)
    root.rows = model.count()
    root.elapsed = sum(child.elapsed for child in root.children)
    return ExplainResult(model, root, root.elapsed, totals, kind="datalog")


def _add_run(total, run):
    """Add one run's report tree into the same plan's earlier total,
    node by node (one kernel gives every run the same tree)."""
    for (_depth, node), (_same, part) in zip(total.walk(), run.walk()):
        node.rows += part.rows
        node.elapsed += part.elapsed
        node.stats.merge(part.stats)
        node.peak_buffer = max(node.peak_buffer, part.peak_buffer)
