"""The shared query-compilation pipeline.

Every relational front-end (SQL, safe calculus via Codd's translation,
raw algebra) and the non-recursive fragment of Datalog compile into one
pipeline:

    front-end  ->  canonical logical plan  ->  optimizer  ->
    cached plan  ->  compiled kernel (:mod:`repro.compile`)

The streaming Volcano-style executor defined here runs a plan the code
generator refuses, and is EXPLAIN ANALYZE's instrumented twin.

* :mod:`~repro.plan.logical` — canonicalization: front-end extension
  nodes (SQL's deferred name resolution, the Codd translation's
  positional rename) are resolved into the six-plus-derived core algebra
  operators, and :func:`~repro.plan.logical.plan_key` turns the
  canonical tree into a hashable cache key;
  :func:`~repro.plan.logical.parameterize` lifts a plan's literals into
  typed parameter slots, so the caches key on one template per
  statement shape and :func:`~repro.plan.logical.bind` puts the values
  back at execution time.
* :mod:`~repro.plan.physical` — physical operator selection: streaming
  select/project/rename, hash natural- and theta-joins that probe
  :class:`~repro.relational.relation.Relation`'s cached key indexes,
  pipelined union/difference/semijoin.  Every operator charges its work
  to an :class:`~repro.datalog.stats.EngineStatistics`.
* :mod:`~repro.plan.executor` — the pull-based executor
  (:func:`~repro.plan.executor.execute`) plus the tree-walk work meter
  (:func:`~repro.plan.executor.measure_treewalk`) used as the
  differential oracle and benchmark baseline.
* :mod:`~repro.plan.cache` — the template-keyed plan cache the
  workbench uses to skip optimization (and the kernel lookup's plan
  walk) on repeated statement shapes.
* :mod:`~repro.plan.explain` — EXPLAIN ANALYZE: the instrumented twin
  of the executor (:func:`~repro.plan.explain.run_explained`), which
  annotates every physical operator with rows, wall-clock time, and
  per-operator counters, and mirrors the finished tree into a
  :class:`~repro.obs.trace.Tracer`.

The materialize-everything tree walk
(:func:`~repro.relational.algebra.evaluate`) stays available behind
``executor=False`` on every workbench entry point, where it runs the
same cached plan as the executor, mirroring the ``indexed=False``
opt-out discipline of the Datalog physical layer.
"""

from .cache import PlanCache
from .executor import execute, execute_physical, measure_treewalk
from .explain import ExplainResult, OpReport, explain_datalog, run_explained
from .logical import bind, canonicalize, is_canonical, parameterize, plan_key
from .physical import build_physical

__all__ = [
    "ExplainResult",
    "OpReport",
    "PlanCache",
    "bind",
    "build_physical",
    "canonicalize",
    "execute",
    "execute_physical",
    "explain_datalog",
    "is_canonical",
    "measure_treewalk",
    "parameterize",
    "plan_key",
    "run_explained",
]
