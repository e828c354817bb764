"""Query compilation: fused Python kernels generated from plans.

The produce/consume code generator (:mod:`.codegen`) turns a canonical
logical plan into one specialized Python function — pipelines fused
into plain loops, conditions and projections inlined, work counters
batched — and the :class:`KernelCache` (:mod:`.cache`) compiles each
(plan, schema) pair exactly once, on its first run.  Kernels are the
workbench's one executor on every front-end;
EXPLAIN ANALYZE and the armed flight recorder run a kernel's
instrumented variant, which reports rows and counters per operator and
wall time per pipeline.
"""

from .cache import KernelCache
from .codegen import CompiledKernel, compile_plan

__all__ = [
    "CompiledKernel",
    "KernelCache",
    "compile_plan",
]
