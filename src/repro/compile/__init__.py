"""Query compilation: fused Python kernels generated from plans.

The produce/consume code generator (:mod:`.codegen`) turns a canonical
logical plan into one specialized Python function — pipelines fused
into plain loops, conditions and projections inlined, work counters
batched — and the :class:`KernelCache` (:mod:`.cache`) compiles each
(plan, schema) pair exactly once.  It is the workbench's default route
(``executor=True``) on every front-end from a plan shape's second run
on; the first run, and any plan shape the generator refuses (counted),
run on the interpreted streaming executor.
"""

from .cache import KernelCache, execute_compiled
from .codegen import CompiledKernel, CompileFallback, compile_plan

__all__ = [
    "CompileFallback",
    "CompiledKernel",
    "KernelCache",
    "compile_plan",
    "execute_compiled",
]
