"""A deliberately broken engine for the fault-detection tests."""

from repro.compile import KernelCache, cache, codegen
from repro.conformance import oracles
from repro.relational import algebra as ra


def drop_one_join_tuple(monkeypatch):
    """Inject a fault: every natural join a kernel runs drops its first
    output tuple.  Returns a function that takes the fault out again.

    The conformance oracle's shared kernel cache and the one-shot kernel
    cache are swapped for empty ones on the way in and on the way out,
    so no kernel compiled under the fault outlives it.
    """
    dispatch = codegen._KernelBuilder._DISPATCH
    original = dispatch[ra.NaturalJoin]

    def dropping(self, node, consume, op):
        first = self.fresh("first")
        self.emit("%s = True" % first)

        def skip_first(var):
            self.emit("if %s:" % first)
            self.emit("    %s = False" % first)
            self.emit("else:")
            self.depth += 1
            consume(var)
            self.depth -= 1

        original(self, node, skip_first, op)

    def swap(produce):
        monkeypatch.setitem(dispatch, ra.NaturalJoin, produce)
        monkeypatch.setattr(oracles, "_KERNEL_CACHE", KernelCache(512))
        monkeypatch.setattr(cache, "ONE_SHOT", KernelCache())

    swap(dropping)
    return lambda: swap(original)
