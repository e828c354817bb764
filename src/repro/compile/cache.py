"""The kernel cache: compile once per (template, schema) pair.

Callers resolve *templates* (:func:`~repro.plan.logical.parameterize`)
and pass the lifted values to :meth:`CompiledKernel.execute
<repro.compile.codegen.CompiledKernel.execute>`, so statements that
differ only in a literal share one kernel.  Keyed by the template's
:func:`~repro.plan.logical.plan_key` plus the
schema sub-token of just the relations the plan references, so a kernel
survives arbitrary *content* changes (it re-fetches relations by name
at call time) **and** schema changes to relations it never touches; it
is invalidated the moment a schema it resolved attribute positions
against changes.  The part of the key that walks the plan
(:meth:`KernelCache.lookup_for`) is computed once per plan and passed
back in, so a repeated statement's lookup reads only the schema it runs
on.  The 12-hex fingerprint
shown in ``sys_kernels`` and EXPLAIN ANALYZE derives from the plan key
alone; ``sys_plan_cache`` records it per entry (``kernel_fingerprint``)
whenever a compiled kernel serves a cached plan, so the two relations
join.
"""

from __future__ import annotations

from ..plan.cache import PlanCache
from ..plan.logical import plan_key
from ..relational.algebra import relation_names
from .codegen import compile_plan


class KernelCache:
    """Bounded FIFO-evicting cache of compiled kernels.

    Counter semantics: ``hits``/``misses`` count resolutions against the
    cache; ``codegens`` counts actual code generation runs (the
    zero-codegen-on-repeat test pins this).  A kernel's instrumented
    variant lives on the kernel (:meth:`CompiledKernel.instrumented
    <repro.compile.codegen.CompiledKernel.instrumented>`), so it adds no
    entry and goes when its kernel does.
    """

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "evictions",
        "codegens",
        "_entries",
    )

    def __init__(self, capacity=256):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.codegens = 0
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    @staticmethod
    def lookup_for(plan):
        """What a lookup needs of ``plan`` itself: its
        :func:`~repro.plan.logical.plan_key` and the sorted names of the
        relations it reads.

        Both walk the plan, so a caller that runs one plan many times
        computes this once and passes it to :meth:`resolve` (the
        workbench keeps it on the plan-cache entry).
        """
        return plan_key(plan), tuple(sorted(relation_names(plan)))

    @staticmethod
    def key_for(plan, db, schema=None, lookup=None):
        """``(plan_key, referenced-relations sub-schema-token)``.

        Narrowing the schema token to the plan's own relations means an
        unrelated ``add``/``remove``/reshape elsewhere in the database
        cannot orphan this kernel — mutation-heavy sessions keep their
        compiled read paths hot.  A caller holding ``db.schema()`` and
        the plan's :meth:`lookup_for` passes them, and the key then
        costs one dictionary lookup per relation the plan reads.
        Attributes come from the schema, never from ``db[name]``, which
        would materialize a virtual ``sys_`` relation.
        """
        if schema is None:
            schema = db.schema()
        if lookup is None:
            lookup = KernelCache.lookup_for(plan)
        pkey, names = lookup
        return (
            pkey,
            tuple(
                (name, schema[name].attributes)
                for name in names
                if name in schema
            ),
        )

    @staticmethod
    def fingerprint(key):
        """12-hex kernel fingerprint (from the plan key alone)."""
        return PlanCache.fingerprint(key[0])

    def resolve(self, plan, db, schema=None, lookup=None):
        """The kernel for a canonical plan or template, compiled on its
        first miss.

        ``schema`` and ``lookup`` are as in :meth:`key_for`: the kernel
        always matches the schema of the ``db`` it will run on
        (transaction views and pinned snapshots included).
        """
        if schema is None:
            schema = db.schema()
        key = self.key_for(plan, db, schema, lookup)
        kernel = self._entries.get(key)
        if kernel is not None:
            self.hits += 1
            kernel.hits += 1
            return kernel
        self.misses += 1
        kernel = compile_plan(plan, schema, fingerprint=self.fingerprint(key))
        self.codegens += 1
        self._put(key, kernel)
        return kernel

    def _put(self, key, entry):
        if key not in self._entries and len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = entry

    def entries(self):
        """``(index, fingerprint, status, pipelines, hits)`` per entry,
        insertion order — the ``sys_kernels`` rows (``status`` is always
        "compiled": every canonical plan compiles)."""
        return [
            (index, self.fingerprint(key), "compiled", kernel.pipelines,
             kernel.hits)
            for index, (key, kernel) in enumerate(self._entries.items())
        ]

    def invalidate_relations(self, names):
        """Drop kernels whose schema sub-token mentions ``names``.

        Content-only changes never call this (kernels re-fetch tuples by
        name); reshaping or removing a relation does, so ``sys_kernels``
        never shows a kernel compiled against a dead schema.  Returns
        the number of entries dropped.
        """
        names = set(names)
        if not names:
            return 0
        dropped = 0
        for key in list(self._entries):
            if any(name in names for name, _attrs in key[1]):
                del self._entries[key]
                dropped += 1
        return dropped

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "codegens": self.codegens,
            # Always 0 now that every canonical plan compiles; kept
            # because the end-to-end benchmark reads it every round.
            "fallback_runs": 0,
            "size": len(self._entries),
        }

    def publish(self, registry, name="kernel_cache", **labels):
        """Record the current counters into a metrics registry."""
        for field, value in self.stats().items():
            registry.gauge("%s_%s" % (name, field), **labels).set(value)
        return registry

    def clear(self):
        """Drop all entries and reset every counter (schema changed)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.codegens = 0


#: The kernels of every one-shot execution
#: (:func:`~repro.plan.executor.execute_physical`,
#: :func:`~repro.plan.explain.run_explained`, and a standalone engine's
#: semi-naive rule plans), evicted first in, first out.
ONE_SHOT = KernelCache()
