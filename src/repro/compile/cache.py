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
against changes.  The 12-hex fingerprint
shown in ``sys_kernels`` and EXPLAIN ANALYZE derives from the plan key
alone; ``sys_plan_cache`` records it per entry (``kernel_fingerprint``)
whenever a compiled kernel serves a cached plan, so the two relations
join.

Fallback verdicts are cached negatively: a plan the generator refused
once is refused from the cache thereafter without re-walking it, and
every fallback *resolution* (first or cached) counts in
``fallback_runs`` so the workbench's ``compile_fallbacks_total`` metric
never under-reports.
"""

from __future__ import annotations

from ..plan.cache import PlanCache
from ..plan.logical import parameterize, plan_key
from ..relational.algebra import relation_names
from .codegen import CompileFallback, compile_plan


class _FallbackEntry:
    """Negative cache entry: the generator refused this plan."""

    __slots__ = ("reason", "hits")

    def __init__(self, reason):
        self.reason = reason
        self.hits = 0


class KernelCache:
    """Bounded FIFO-evicting cache of compiled kernels.

    Counter semantics: ``hits``/``misses`` count resolutions against the
    cache; ``codegens`` counts actual code generation runs (the
    zero-codegen-on-repeat test pins this); ``fallbacks`` counts
    distinct refused plans and ``fallback_runs`` every resolution that
    ended in a fallback, cached or not.
    """

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "evictions",
        "codegens",
        "fallbacks",
        "fallback_runs",
        "_entries",
    )

    def __init__(self, capacity=256):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.codegens = 0
        self.fallbacks = 0
        self.fallback_runs = 0
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    @staticmethod
    def key_for(plan, db):
        """``(plan_key, referenced-relations sub-schema-token)``.

        Narrowing the schema token to the plan's own relations means an
        unrelated ``add``/``remove``/reshape elsewhere in the database
        cannot orphan this kernel — mutation-heavy sessions keep their
        compiled read paths hot.
        """
        schema = db.schema()
        return (
            plan_key(plan),
            tuple(
                (name, schema[name].attributes)
                for name in sorted(relation_names(plan))
                if name in schema
            ),
        )

    @staticmethod
    def fingerprint(key):
        """12-hex kernel fingerprint (from the plan key alone)."""
        return PlanCache.fingerprint(key[0])

    def resolve(self, plan, db):
        """The kernel for a canonical plan or template, compiling on
        first sight.

        Returns:
            ``(kernel, None)`` when the plan compiled (now or earlier),
            ``(None, reason)`` when it falls back to interpretation.
        """
        key = self.key_for(plan, db)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            entry.hits += 1
            if isinstance(entry, _FallbackEntry):
                self.fallback_runs += 1
                return None, entry.reason
            return entry, None
        self.misses += 1
        try:
            kernel = compile_plan(
                plan, db.schema(), fingerprint=self.fingerprint(key)
            )
        except CompileFallback as exc:
            self.fallbacks += 1
            self.fallback_runs += 1
            entry = _FallbackEntry(str(exc))
            self._put(key, entry)
            return None, entry.reason
        self.codegens += 1
        self._put(key, kernel)
        return kernel, None

    def peek(self, plan, db):
        """``(entry, fingerprint)`` without compiling or counting.

        ``entry`` is a :class:`~repro.compile.codegen.CompiledKernel`, a
        fallback entry (``reason`` attribute), or None when cold.
        """
        key = self.key_for(plan, db)
        return self._entries.get(key), self.fingerprint(key)

    def _put(self, key, entry):
        if key not in self._entries and len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = entry

    def entries(self):
        """``(index, fingerprint, status, pipelines, hits)`` per entry,
        insertion order — the ``sys_kernels`` rows."""
        rows = []
        for index, (key, entry) in enumerate(self._entries.items()):
            if isinstance(entry, _FallbackEntry):
                rows.append(
                    (index, self.fingerprint(key), "fallback", None,
                     entry.hits)
                )
            else:
                rows.append(
                    (index, self.fingerprint(key), "compiled",
                     entry.pipelines, entry.hits)
                )
        return rows

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
            "fallbacks": self.fallbacks,
            "fallback_runs": self.fallback_runs,
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
        self.fallbacks = 0
        self.fallback_runs = 0


def execute_compiled(plan, db, stats=None, cache=None):
    """Compile (or fetch) the kernel of a canonical plan's template and
    run it on the plan's values.

    Mirrors :func:`~repro.plan.executor.execute_physical`'s signature
    and return shape.

    Raises:
        CompileFallback: when the plan has an unsupported shape.
    """
    template, values = parameterize(plan)
    if cache is None:
        kernel = compile_plan(template, db.schema())
    else:
        kernel, reason = cache.resolve(template, db)
        if kernel is None:
            raise CompileFallback(reason)
    return kernel.execute(db, stats, values)
