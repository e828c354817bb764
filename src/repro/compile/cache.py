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

Fallback verdicts are cached negatively: a plan the generator refused
once is refused from the cache thereafter without re-walking it, and
every fallback *resolution* (first or cached) counts in
``fallback_runs`` so the workbench's ``compile_fallbacks_total`` metric
never under-reports.

The workbench resolves *tiered*: a plan compiles on its second miss,
not its first, so a statement shape that runs once (an ``INSERT …
VALUES`` row is one) never pays for code generation.  The first miss
only sights the key, in a first-in first-out set of at most
:data:`SIGHTINGS` keys.
"""

from __future__ import annotations

from ..plan.cache import PlanCache
from ..plan.logical import parameterize, plan_key
from ..relational.algebra import relation_names
from .codegen import CompileFallback, compile_plan

#: Keys a tiered resolution remembers having missed once.  A key that
#: leaves the set before its second miss is sighted afresh.
SIGHTINGS = 1024


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
    ended in a fallback, cached or not; ``sightings`` counts the misses
    of tiered resolutions that compiled nothing (a plan's first sight).
    """

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "evictions",
        "codegens",
        "fallbacks",
        "fallback_runs",
        "sightings",
        "_entries",
        "_sighted",
    )

    def __init__(self, capacity=256):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.codegens = 0
        self.fallbacks = 0
        self.fallback_runs = 0
        self.sightings = 0
        self._entries = {}
        self._sighted = {}

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

    def resolve(self, plan, db, schema=None, lookup=None, tiered=False):
        """The kernel for a canonical plan or template, compiling on a
        miss.

        ``schema`` and ``lookup`` are as in :meth:`key_for`: the kernel
        always matches the schema of the ``db`` it will run on
        (transaction views and pinned snapshots included).  With
        ``tiered`` (the workbench's policy) only a plan's second miss
        compiles; the first sights its key and returns ``(None, None)``.

        Returns:
            ``(kernel, None)`` when the plan compiled (now or earlier),
            ``(None, reason)`` when it falls back to interpretation, and
            ``(None, None)`` on a tiered first sight.
        """
        if schema is None:
            schema = db.schema()
        key = self.key_for(plan, db, schema, lookup)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            entry.hits += 1
            if isinstance(entry, _FallbackEntry):
                self.fallback_runs += 1
                return None, entry.reason
            return entry, None
        self.misses += 1
        if tiered and key not in self._sighted:
            if len(self._sighted) >= SIGHTINGS:
                del self._sighted[next(iter(self._sighted))]
            self._sighted[key] = None
            self.sightings += 1
            return None, None
        self._sighted.pop(key, None)
        try:
            kernel = compile_plan(
                plan, schema, fingerprint=self.fingerprint(key)
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
            "sightings": self.sightings,
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
        self._sighted.clear()
        self.sightings = 0
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
