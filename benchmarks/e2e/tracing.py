"""Spans around the program's layers, recorded from the benchmark's side.

:class:`Tracer` replaces each boundary function with a wrapper that
records one span per call, and puts every original back on exit.  Where
a module has imported a function by name (``repro.core.workbench``
binds ``execute_physical``, for example), that module's binding is
patched too, so calls through either name are seen.

A span is ``(name, layer, op, span_id, parent_id, start_ns, end_ns)``.
The benchmark opens one root span per API call (:meth:`Tracer.root`);
boundary spans nest under it.  A boundary re-entered while its own span
is open (recursion) records no second span.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

#: Boundary name -> the ``module:attribute`` targets it wraps.  The name
#: is the target's dotted path below ``repro``; a boundary with several
#: targets (one method per DML statement class, the catalog's insert and
#: delete folds) counts them as one.
BOUNDARIES = {
    "relational.sql_frontend.parse_sql": (
        "repro.relational.sql_frontend:parse_sql",
    ),
    "relational.calculus_parser.parse_calculus": (
        "repro.relational.calculus_parser:parse_calculus",
    ),
    "relational.codd.calculus_to_algebra": (
        "repro.relational.codd:calculus_to_algebra",
    ),
    "relational.dml.delta": (
        "repro.relational.dml:InsertStatement.delta",
        "repro.relational.dml:DeleteStatement.delta",
        "repro.relational.dml:UpdateStatement.delta",
    ),
    "relational.database.apply_delta": (
        "repro.relational.database:Database.apply_delta",
    ),
    "relational.database.apply_overlay": (
        "repro.relational.database:Database.apply_overlay",
    ),
    "relational.database.overlay_view": (
        "repro.relational.database:Database.overlay_view",
    ),
    "plan.logical.canonicalize": ("repro.plan.logical:canonicalize",),
    "plan.cache.PlanCache.get": ("repro.plan.cache:PlanCache.get",),
    "plan.cache.PlanCache.invalidate_relations": (
        "repro.plan.cache:PlanCache.invalidate_relations",
    ),
    "plan.executor.execute_physical": (
        "repro.plan.executor:execute_physical",
    ),
    "opt.Optimizer.optimize_info": ("repro.opt:Optimizer.optimize_info",),
    "opt.catalog.observe": (
        "repro.opt.catalog:Catalog.observe_insert",
        "repro.opt.catalog:Catalog.observe_delete",
    ),
    "compile.cache.KernelCache.resolve": (
        "repro.compile.cache:KernelCache.resolve",
    ),
    "compile.codegen.compile_plan": ("repro.compile.codegen:compile_plan",),
    "compile.codegen.CompiledKernel.execute": (
        "repro.compile.codegen:CompiledKernel.execute",
    ),
    "datalog.parser.parse_program": ("repro.datalog.parser:parse_program",),
    "datalog.facts.FactStore.from_database": (
        "repro.datalog.facts:FactStore.from_database",
    ),
    "datalog.engine.DatalogEngine.evaluate": (
        "repro.datalog.engine:DatalogEngine.evaluate",
    ),
    "datalog.seminaive.seminaive_evaluate": (
        "repro.datalog.seminaive:seminaive_evaluate",
    ),
    "datalog.lowering.lowered_evaluate": (
        "repro.datalog.lowering:lowered_evaluate",
    ),
    "storage.txn.Transaction.read": ("repro.storage.txn:Transaction.read",),
    "storage.txn.Transaction.stage": (
        "repro.storage.txn:Transaction.stage",
    ),
    "storage.txn.Transaction.commit": (
        "repro.storage.txn:Transaction.commit",
    ),
    "storage.txn.TransactionManager.verify": (
        "repro.storage.txn:TransactionManager.verify",
    ),
    "storage.mvcc.MVCCStore.commit": ("repro.storage.mvcc:MVCCStore.commit",),
    "storage.journal.WriteJournal.append": (
        "repro.storage.journal:WriteJournal.append",
    ),
}

#: Name of the root span around each API call; its self time is the time
#: no boundary covers.
ROOT = "unattributed"


class Tracer:
    """Context manager: wraps every boundary on entry, restores on exit.

    ``patches`` lists ``(owner, attribute, original)`` for every binding
    replaced, so a caller can check that exit put each original back.
    """

    def __init__(self):
        self.spans = []
        self.patches = []
        self._stack = [None]
        self._open = set()
        self._ids = itertools.count()
        self._op = None

    # -- installing ---------------------------------------------------------

    def __enter__(self):
        for name, targets in BOUNDARIES.items():
            for target in targets:
                self._install(name, target)
        return self

    def __exit__(self, exc_type, exc, tb):
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        return False

    def _install(self, name, target):
        module_name, path = target.split(":")
        module = importlib.import_module(module_name)
        layer = module_name[len("repro."):]
        if "." not in path:
            original = getattr(module, path)
            wrapper = self._wrap(name, layer, original)
            # Every repro module binding the same function object.
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for attribute, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attribute, wrapper)
            return
        class_name, attribute = path.split(".")
        owner = getattr(module, class_name)
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(name, layer, raw.__func__))
        else:
            wrapper = self._wrap(name, layer, raw)
        self._patch(owner, attribute, wrapper)

    def _patch(self, owner, attribute, wrapper):
        self.patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def _wrap(self, name, layer, fn):
        spans, stack, opened = self.spans, self._stack, self._open
        ids, clock = self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in opened:
                return fn(*args, **kwargs)
            opened.add(name)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened.discard(name)
                spans.append(
                    (name, layer, self._op, span_id, parent, start, end)
                )

        return traced

    # -- recording --------------------------------------------------------------

    def root(self, op):
        """A context manager: the root span of API call number ``op``."""
        return _Root(self, op)

    def dump(self, path):
        """Write the spans as JSON lines, in the order they ended."""
        fields = ("name", "layer", "op", "span", "parent", "start_ns",
                  "end_ns")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")

    def self_times(self):
        """``{name: (calls, self_ns)}`` plus the total root time in ns."""
        covered = defaultdict(int)
        for _name, _layer, _op, _span, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(lambda: [0, 0])
        root_ns = 0
        for name, _layer, _op, span, parent, start, end in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - covered[span]
            if parent is None:
                root_ns += end - start
        return {name: tuple(v) for name, v in totals.items()}, root_ns


class _Root:
    __slots__ = ("tracer", "op", "start", "span_id")

    def __init__(self, tracer, op):
        self.tracer = tracer
        self.op = op

    def __enter__(self):
        tracer = self.tracer
        tracer._op = self.op
        self.span_id = next(tracer._ids)
        tracer._stack.append(self.span_id)
        self.start = time.perf_counter_ns()

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append(
            (ROOT, "benchmark", self.op, self.span_id, None, self.start, end)
        )
        return False
