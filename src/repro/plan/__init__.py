"""The shared query-compilation pipeline.

Every relational front-end (SQL, safe calculus via Codd's translation,
raw algebra) and Datalog (a non-recursive program as one plan per
predicate, a recursive one as the rule plans of its semi-naive rounds)
compile into one pipeline:

    front-end  ->  canonical logical plan  ->  optimizer  ->
    cached plan  ->  compiled kernel (:mod:`repro.compile`)

Kernels are the one executor; the tree walk is the differential oracle.

* :mod:`~repro.plan.logical` — canonicalization: front-end extension
  nodes (SQL's deferred name resolution, the Codd translation's
  positional rename) are resolved into the six-plus-derived core algebra
  operators, and :func:`~repro.plan.logical.plan_key` turns the
  canonical tree into a hashable cache key;
  :func:`~repro.plan.logical.parameterize` lifts a plan's literals into
  typed parameter slots, so the caches key on one template per
  statement shape and :func:`~repro.plan.logical.bind` puts the values
  back at execution time.
* :mod:`~repro.plan.physical` — the work :class:`~repro.plan.physical.Tally`
  kernels charge, and the access-path rules they share: equality
  lookups and joins that probe a stored
  :class:`~repro.relational.relation.Relation`'s cached key indexes.
* :mod:`~repro.plan.executor` — one-shot execution
  (:func:`~repro.plan.executor.execute` compiles and runs a kernel) plus
  the tree-walk work meter
  (:func:`~repro.plan.executor.measure_treewalk`) used as the
  differential oracle and benchmark baseline.
* :mod:`~repro.plan.cache` — the template-keyed plan cache the
  workbench uses to skip optimization (and the kernel lookup's plan
  walk) on repeated statement shapes.
* :mod:`~repro.plan.explain` — EXPLAIN ANALYZE: a kernel's
  instrumented variant (:func:`~repro.plan.explain.explain_kernel`)
  annotates every operator with rows, per-operator counters and
  inclusive per-pipeline wall time, and mirrors the finished tree into
  a :class:`~repro.obs.trace.Tracer`.

The materialize-everything tree walk
(:func:`~repro.relational.algebra.evaluate`) is the oracle: the tests
and the conformance kit call it directly, on the bound plan a session
cached or on the raw expression, and compare its answer with the
kernel's.  No workbench entry point runs it.
"""

from .cache import PlanCache
from .executor import execute, execute_physical, measure_treewalk
from .explain import (
    ExplainResult,
    OpReport,
    explain_datalog,
    explain_kernel,
    run_explained,
)
from .logical import bind, canonicalize, is_canonical, parameterize, plan_key

__all__ = [
    "ExplainResult",
    "OpReport",
    "PlanCache",
    "bind",
    "canonicalize",
    "execute",
    "execute_physical",
    "explain_datalog",
    "explain_kernel",
    "is_canonical",
    "measure_treewalk",
    "parameterize",
    "plan_key",
    "run_explained",
]
