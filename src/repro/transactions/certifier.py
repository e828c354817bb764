"""Serialization graph testing, online: certify each commit as it lands.

:func:`~repro.transactions.serializability.is_conflict_serializable`
judges a whole history: it builds the precedence graph from every
conflicting pair, which is O(ops²).  A runtime that wants that verdict
after every commit cannot replay a history that grows with the session.
:class:`SerializationGraphCertifier` keeps the verdict current instead,
one operation at a time (serialization graph testing: Bernstein,
Hadzilacos & Goodman, *Concurrency Control and Recovery in Database
Systems*, 1987):

* Each transaction's accesses are summarised per item by the first and
  last position of its reads and of its writes.  An op of Ti precedes a
  conflicting op of Tj exactly when Ti's first write precedes Tj's last
  read or last write, or Ti's first read precedes Tj's last write.  So
  the edges are exact on any op stream, with deferred writes or without.
* At a commit, the committing transaction gets its edges to and from
  the retained committed transactions.  A cycle search then runs from
  its node only, because any new cycle passes through a new edge.
* A committed node is dropped once it has no retained predecessor *and*
  every live transaction issued its first op after that node's commit.
  No later committer then has an op before the node's commit, so no
  edge can enter the node again, and a node without in-edges lies on no
  cycle.  "No predecessors" alone is unsound: in
  ``r2(y) w1(y) c1 w2(y) c2``, T1 is a source at ``c1``, and the edge
  T2 -> T1 that closes the cycle arrives only at ``c2``.
* Strictness runs :func:`~repro.transactions.recovery.is_strict`'s state
  machine online: the last writer per item, kept only while that writer
  has not committed (a committed writer never violates strictness).

Memory is the live transactions' summaries plus the retained committed
nodes, not the history.  Both verdicts are monotone, since a prefix that
fails makes every extension fail, so they stay False once False.
"""

from __future__ import annotations

from .schedule import ABORT, COMMIT, READ, WRITE

#: Position of an access that never happened.  A first position that
#: never happened is later than every op, a last position earlier.
_NEVER = float("inf")


def _precedes(a, b):
    """Some op summarised by ``a`` precedes a conflicting op of ``b``.

    Summaries are ``[first read, last read, first write, last write]``.
    """
    return a[2] < b[1] or a[2] < b[3] or a[0] < b[3]


class _Node:
    """One transaction: its access summaries and, once committed, its
    edges to other retained committed transactions."""

    __slots__ = ("txn", "first", "end", "access", "succ", "pred")

    def __init__(self, txn, first):
        self.txn = txn
        self.first = first
        self.end = None
        self.access = {}
        self.succ = set()
        self.pred = set()


class SerializationGraphCertifier:
    """Conflict serializability and strictness, kept current op by op.

    Feed it a history's operations in order with :meth:`observe`.  After
    any prefix, ``serializable`` equals ``is_conflict_serializable`` of
    the prefix's committed projection, and ``strict`` equals
    ``is_strict`` of the prefix.  ``ops`` and ``commits`` count what it
    has seen; ``retained`` is the number of committed nodes it keeps.
    """

    __slots__ = ("serializable", "strict", "ops", "commits", "_live",
                 "_committed", "_by_item", "_dirty")

    def __init__(self):
        self.serializable = True
        self.strict = True
        self.ops = 0
        self.commits = 0
        self._live = {}       # txn -> _Node: has ops, no terminal yet
        self._committed = {}  # txn -> _Node, retained, in commit order
        self._by_item = {}    # item -> {retained _Node: its summary}
        self._dirty = {}      # item -> its last writer, while uncommitted

    @property
    def retained(self):
        return len(self._committed)

    def observe(self, op):
        """Consume the next :class:`~repro.transactions.schedule.Op`."""
        position = self.ops
        self.ops += 1
        if op.kind == COMMIT:
            self._commit(op.txn, position)
        elif op.kind == ABORT:
            if self._end(op.txn) is not None:
                self._prune()
        else:
            self._access(op, position)

    def _access(self, op, position):
        txn, item = op.txn, op.item
        node = self._live.get(txn)
        if node is None:
            node = self._live[txn] = _Node(txn, position)
        access = node.access.get(item)
        if access is None:
            access = node.access[item] = [_NEVER, -1, _NEVER, -1]
        writer = self._dirty.get(item)
        if writer is not None and writer != txn:
            self.strict = False
        first = 0 if op.kind == READ else 2
        if access[first] is _NEVER:
            access[first] = position
        access[first + 1] = position
        if op.kind == WRITE:
            self._dirty[item] = txn

    def _commit(self, txn, position):
        """Add the committing node's edges and search for a cycle."""
        self.commits += 1
        node = self._end(txn)
        if node is None:
            return  # no data ops: no conflicts
        node.end = position
        for item, access in node.access.items():
            others = self._by_item.setdefault(item, {})
            for other, seen in others.items():
                if _precedes(seen, access):
                    other.succ.add(node)
                    node.pred.add(other)
                if _precedes(access, seen):
                    node.succ.add(other)
                    other.pred.add(node)
            others[node] = access
        self._committed[txn] = node
        if (self.serializable and node.pred and node.succ
                and self._on_cycle(node)):
            self.serializable = False
        self._prune()

    def _end(self, txn):
        """Retire ``txn``'s live node (None if it issued no data op)."""
        node = self._live.pop(txn, None)
        if node is not None:
            for item in node.access:
                if self._dirty.get(item) == txn:
                    del self._dirty[item]
        return node

    def _on_cycle(self, start):
        """True when ``start`` reaches itself along retained edges."""
        stack = list(start.succ)
        seen = set()
        while stack:
            node = stack.pop()
            if node is start:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(node.succ)
        return False

    def _horizon(self):
        """The first position of the oldest live transaction."""
        return min((node.first for node in self._live.values()),
                   default=_NEVER)

    def _prune(self):
        """Drop the committed nodes no later edge can enter."""
        horizon = self._horizon()
        ready = []
        for node in self._committed.values():
            if node.end > horizon:
                break  # commit order: every later node is past it too
            if not node.pred:
                ready.append(node)
        while ready:
            node = ready.pop()
            del self._committed[node.txn]
            for item in node.access:
                others = self._by_item[item]
                del others[node]
                if not others:
                    del self._by_item[item]
            for succ in node.succ:
                succ.pred.discard(node)
                if not succ.pred and succ.end < horizon:
                    ready.append(succ)

    def __repr__(self):
        return (
            "SerializationGraphCertifier(%d ops, %d commits, %d retained, "
            "serializable=%s, strict=%s)"
            % (self.ops, self.commits, self.retained, self.serializable,
               self.strict)
        )
