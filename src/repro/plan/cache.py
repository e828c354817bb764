"""The workbench's plan cache.

Keyed by :func:`~repro.plan.logical.plan_key` of the canonical logical
plan (plus whatever discriminators the caller folds in, e.g. whether the
optimizer ran), so the same query arriving through *different*
front-ends — SQL text, a calculus formula, a hand-built algebra tree —
hits the same cache entry whenever it canonicalizes to the same plan.

Effectiveness is observable: the cache counts hits, misses, and
evictions (:meth:`PlanCache.stats`), and :meth:`PlanCache.publish`
pushes the counts into a :class:`~repro.obs.metrics.MetricsRegistry` so
traces and benchmark artifacts can report cache behavior from the same
source of truth.
"""

from __future__ import annotations


class PlanCache:
    """A bounded FIFO-evicting mapping with hit/miss/eviction counters.

    Hits are counted both in aggregate and *per entry* (``entries()``),
    so the ``sys_plan_cache`` system relation can expose which cached
    plans are actually hot and the query log can join against them by
    :meth:`fingerprint`.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_entries",
                 "_hits_by_key", "_route_by_key", "_kernel_by_key")

    def __init__(self, capacity=128):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = {}
        self._hits_by_key = {}
        self._route_by_key = {}
        self._kernel_by_key = {}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key):
        """The cached value, or None; counts a hit or a miss."""
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        self._hits_by_key[key] += 1
        return entry

    def put(self, key, value):
        if key not in self._entries and len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            del self._hits_by_key[oldest]
            self._route_by_key.pop(oldest, None)
            self._kernel_by_key.pop(oldest, None)
            self.evictions += 1
        self._entries[key] = value
        self._hits_by_key.setdefault(key, 0)

    def note_route(self, key, route, kernel=None):
        """Record which executor route last served this entry.

        ``sys_plan_cache`` exposes it as ``last_route`` ("streaming",
        "compiled", "compiled-fallback", ...), so wall-time
        wins are attributable to kernels; ``kernel`` is the serving
        kernel's fingerprint when the route was compiled, joinable
        against ``sys_kernels``.  Unknown keys are ignored (the entry
        may have been evicted between resolve and run).
        """
        if key in self._entries:
            self._route_by_key[key] = route
            if kernel is not None:
                self._kernel_by_key[key] = kernel

    def route_for(self, key):
        """The last recorded route for a key, or None."""
        return self._route_by_key.get(key)

    @staticmethod
    def fingerprint(key):
        """A short joinable hash of a cache key.

        Stable within a process (it derives from ``hash()``), which is
        exactly the lifetime of the cache it names.
        """
        return "%012x" % (hash(key) & 0xFFFFFFFFFFFF)

    def entries(self):
        """``(index, key, hits, last_route, kernel_fingerprint)`` per
        live entry, in insertion order.  ``last_route`` is None until a
        run completes; ``kernel_fingerprint`` until a compiled one does."""
        return [
            (index, key, self._hits_by_key[key],
             self._route_by_key.get(key), self._kernel_by_key.get(key))
            for index, key in enumerate(self._entries)
        ]

    def stats(self):
        """``{"hits", "misses", "evictions", "size"}`` snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }

    def publish(self, registry, name="plan_cache", **labels):
        """Record the current counters into a metrics registry."""
        for field, value in self.stats().items():
            registry.gauge("%s_%s" % (name, field), **labels).set(value)
        return registry

    def invalidate_relations(self, names):
        """Drop exactly the entries whose plans reference ``names``.

        The surgical half of cache coherence: a mutation bumps the
        changed relations' version tokens and the workbench calls this
        with just those names, so plans over untouched relations keep
        their entries (and their hit statistics).  Keys are walked for
        the canonical ``("ref", name)`` leaves of
        :func:`~repro.plan.logical.plan_key`.  Returns the number of
        entries dropped.
        """
        names = set(names)
        if not names:
            return 0
        dropped = 0
        for key in list(self._entries):
            if _references(key, names):
                del self._entries[key]
                del self._hits_by_key[key]
                self._route_by_key.pop(key, None)
                self._kernel_by_key.pop(key, None)
                dropped += 1
        return dropped

    def clear(self):
        """Drop all entries and reset every counter (schema changed)."""
        self._entries.clear()
        self._hits_by_key.clear()
        self._route_by_key.clear()
        self._kernel_by_key.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


def _references(key, names):
    """True when a nested plan key contains ``("ref", name)`` for any of
    ``names`` (conditions and other hashables are opaque leaves)."""
    stack = [key]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            if (
                len(node) == 2
                and node[0] == "ref"
                and isinstance(node[1], str)
            ):
                if node[1] in names:
                    return True
            else:
                stack.extend(node)
    return False


_MISSING = object()
