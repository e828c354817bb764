"""Live transactions: the schedule theory run against a real database.

The :mod:`repro.transactions` subsystem is pure theory — schedulers
consume *requested* histories of abstract reads and writes.  This module
is the runtime those theorems delimit: a :class:`TransactionManager`
hands out live :class:`Transaction` handles (``wb.begin()``), mediates
real relation-level conflicts under pluggable concurrency control, and
— the point of the exercise — records every interleaved execution as
a stream of ordinary :class:`~repro.transactions.schedule.Op` records.
Each op feeds a
:class:`~repro.transactions.certifier.SerializationGraphCertifier` as it
is recorded, so every commit is certified conflict serializable and
strict the moment it lands, at a cost that does not grow with the
session.  The recorded history itself is a bounded window (the last
:attr:`TransactionManager.HISTORY_OPS` ops and
:attr:`TransactionManager.HISTORY_TXNS` finished transactions) behind
:meth:`TransactionManager.schedule` and ``sys_transactions``.  The full
replay (:func:`~repro.transactions.serializability.is_conflict_serializable`
and :func:`~repro.transactions.recovery.is_strict` over the whole
:class:`~repro.transactions.schedule.Schedule`) is the certifier's
oracle in the tests and the conformance kit's ``transactions-live``
family.

Two concurrency controls, both at relation granularity:

* ``cc="2pl"`` — **no-wait strict two-phase locking** over the same
  :class:`~repro.transactions.locking.LockTable` the scheduler simulator
  uses: S locks on read, X locks on staged writes, all held to the
  terminal; a conflicting request aborts the requester immediately
  (no-wait, so the live system cannot deadlock).
* ``cc="timestamp"`` — **timestamp ordering with commit validation**:
  basic TO read/write checks at operation time (the classical
  ``read_ts``/``write_ts`` rules of
  :mod:`repro.transactions.timestamp`, keyed by begin order), plus
  first-committer-wins validation of the read *and* write sets against
  the MVCC store's last-writer versions at commit.

Both run the **deferred-update** model: reads are recorded when they
happen (against the committed state plus the transaction's own
overlay), writes are staged in a private overlay and recorded at commit
— so every committed history is strict by construction, and the final
database state equals a serial replay in the serialization order (the
conformance kit's live-transactions family pins this differentially).
"""

from __future__ import annotations

from collections import deque

from ..errors import TransactionError
from ..obs.metrics import REGISTRY
from ..obs.trace import ensure_tracer
from ..transactions.certifier import SerializationGraphCertifier
from ..transactions.locking import EXCLUSIVE, SHARED, LockTable
from ..transactions.recovery import recovery_class
from ..transactions.schedule import Op, Schedule
from .journal import ABSENT

#: Concurrency-control modes.
CC_2PL, CC_TIMESTAMP = "2pl", "timestamp"


class TransactionConflict(TransactionError):
    """A concurrency-control conflict aborted the transaction.

    Raised by the operation (or commit) that lost: under no-wait 2PL the
    requester of an incompatible lock, under timestamp ordering a
    too-late read/write or a failed commit validation.  The transaction
    is already rolled back when this propagates; ``begin()`` a new one
    to retry.
    """


class Transaction:
    """One live transaction: a private overlay over the committed state.

    Obtained from :meth:`TransactionManager.begin` (or ``wb.begin()``).
    Reads see the committed database plus this transaction's own staged
    writes; writes stage new relation bindings in the overlay and apply
    atomically at :meth:`commit`.  ``sql()`` routes DML and queries
    through the owning workbench's shared plan pipeline against the
    transaction's view.
    """

    __slots__ = ("manager", "txn_id", "cc", "status", "start_vid",
                 "_overlay", "_base", "_read_vids", "_undo", "reads",
                 "writes", "rows_inserted", "rows_deleted", "statements")

    def __init__(self, manager, txn_id, cc, start_vid):
        self.manager = manager
        self.txn_id = txn_id
        self.cc = cc
        self.status = "active"
        self.start_vid = start_vid
        self._overlay = {}
        self._base = {}
        self._read_vids = {}
        self._undo = []
        self.reads = set()
        self.writes = set()
        self.rows_inserted = 0
        self.rows_deleted = 0
        self.statements = 0

    # -- views ------------------------------------------------------------

    def view(self):
        """A Database seeing committed state plus this txn's overlay.

        Built per statement from binding references (copy-on-write makes
        the dict copy O(names), never O(tuples)).
        """
        return self.manager.db.overlay_view(self._overlay)

    def binding(self, name):
        """The relation as this transaction sees it."""
        if name in self._overlay:
            return self._overlay[name]
        return self.manager.db[name]

    # -- operations -------------------------------------------------------

    def _require_active(self):
        if self.status != "active":
            raise TransactionError(
                "transaction %d is %s" % (self.txn_id, self.status)
            )

    def read(self, name):
        """Declare a read of relation ``name`` (CC check + recording).

        Idempotent per name: repeated reads of the same relation add no
        conflict information, so only the first is recorded.
        """
        self._require_active()
        if name in self.reads:
            return
        self.manager._check_read(self, name)
        self.reads.add(name)
        self._read_vids.setdefault(
            name, self.manager.store.last_writer_vid(name)
        )
        self.manager._record(Op.read(self.txn_id, name))

    def stage(self, name, relation, inserted=0, deleted=0, kind="update"):
        """Stage a new binding for ``name`` in this txn's overlay.

        The CC write check runs first (no-wait 2PL X lock, or the TO
        write rule); on conflict the transaction is rolled back and
        :class:`TransactionConflict` raised.  The undo image goes to the
        write journal as a ``staged`` entry the rollback path restores.
        """
        self._require_active()
        self.manager._check_write(self, name)
        previous = self._overlay.get(name, ABSENT)
        if name not in self._base:
            self._base[name] = self.manager.store.last_writer_vid(name)
        entry = self.manager.journal.append(
            None, self.txn_id, kind, name, inserted=inserted,
            deleted=deleted, undo=previous, status="staged",
        )
        self._undo.append(entry)
        if previous is not ABSENT and previous is not relation:
            # The undo image keeps tuples only; the staged successor
            # carries the indexes forward (see Relation.with_delta).
            previous.drop_indexes()
        self._overlay[name] = relation
        self.writes.add(name)
        self.rows_inserted += inserted
        self.rows_deleted += deleted
        return relation

    def sql(self, text, stats=None):
        """Run a SQL statement (query or DML) inside this transaction
        (``stats`` as in :meth:`MetatheoryWorkbench.sql
        <repro.core.workbench.MetatheoryWorkbench.sql>`).

        Requires the manager to be bound to a workbench (``wb.begin()``
        hands out bound transactions).
        """
        self._require_active()
        wb = self.manager.workbench
        if wb is None:
            raise TransactionError(
                "transaction manager is not bound to a workbench; "
                "use MetatheoryWorkbench.begin()"
            )
        self.statements += 1
        return wb.sql(text, stats=stats, txn=self)

    def commit(self):
        """Atomically apply the overlay; returns the commit version id.

        Raises:
            TransactionConflict: commit validation failed (timestamp
                mode); the transaction is rolled back.
        """
        self._require_active()
        return self.manager._commit(self)

    def rollback(self):
        """Discard all staged writes and release this txn's locks."""
        self._require_active()
        self.manager._abort(self, reason="rollback")

    # -- context manager: commit on success, roll back on error ----------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.status != "active":
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

    def __repr__(self):
        return "Transaction(#%d %s %s r=%d w=%d)" % (
            self.txn_id, self.cc, self.status,
            len(self.reads), len(self.writes),
        )


class TransactionManager:
    """Hands out transactions, mediates conflicts, records the history.

    Args:
        db: the live :class:`~repro.relational.database.Database`.
        workbench: optional owning workbench (enables ``txn.sql``).
        tracer / metrics: observability sinks (workbench defaults).

    Every commit is checked against conflict serializability and
    strictness (:meth:`verify`); a violation raises — it would mean the
    runtime broke the theory it implements.

    ``ops`` and ``finished`` are rings: the last :attr:`HISTORY_OPS`
    recorded ops and the last :attr:`HISTORY_TXNS` finished
    transactions.  The ``certifier`` has seen every op since the last
    :meth:`reset`.
    """

    #: Ring capacities of the recorded history (the journal's and the
    #: query history's).
    HISTORY_OPS = 1024
    HISTORY_TXNS = 256

    __slots__ = ("db", "workbench", "tracer", "metrics", "locks", "ops",
                 "active", "finished", "certifier", "_next_id", "_read_ts",
                 "_write_ts", "commits", "aborts", "conflicts", "last_report")

    def __init__(self, db, workbench=None, tracer=None, metrics=None):
        self.db = db
        self.workbench = workbench
        self.tracer = ensure_tracer(tracer)
        self.metrics = metrics if metrics is not None else REGISTRY
        self.locks = LockTable()
        self.ops = deque(maxlen=self.HISTORY_OPS)
        self.active = {}
        self.finished = deque(maxlen=self.HISTORY_TXNS)
        self.certifier = SerializationGraphCertifier()
        self._next_id = 1
        self._read_ts = {}
        self._write_ts = {}
        self.commits = 0
        self.aborts = 0
        self.conflicts = 0
        self.last_report = None

    @property
    def store(self):
        return self.db.store()

    @property
    def journal(self):
        return self.db.store().journal

    # -- lifecycle --------------------------------------------------------

    def begin(self, cc=CC_2PL):
        """Start a transaction under the given concurrency control."""
        if cc not in (CC_2PL, CC_TIMESTAMP):
            raise TransactionError(
                "unknown concurrency control %r (use %r or %r)"
                % (cc, CC_2PL, CC_TIMESTAMP)
            )
        txn = Transaction(self, self._next_id, cc, self.store.vid)
        self._next_id += 1
        self.active[txn.txn_id] = txn
        self.metrics.counter("txn_begins_total").inc()
        self.tracer.event("txn_begin", txn=txn.txn_id, cc=cc)
        return txn

    def _record(self, op):
        self.ops.append(op)
        self.certifier.observe(op)

    # -- concurrency control ---------------------------------------------

    def _check_read(self, txn, name):
        if txn.cc == CC_2PL:
            if not self.locks.can_grant(txn.txn_id, name, SHARED):
                self._conflict(
                    txn, "S-lock on %r held by %s" % (
                        name,
                        sorted(self.locks.blockers(
                            txn.txn_id, name, SHARED
                        )),
                    )
                )
            self.locks.grant(txn.txn_id, name, SHARED)
            return
        # Timestamp ordering: a read arriving after a younger write.
        ts = txn.txn_id
        if self._write_ts.get(name, 0) > ts:
            self._conflict(
                txn, "TO read of %r after write by ts %d" % (
                    name, self._write_ts[name],
                )
            )
        self._read_ts[name] = max(self._read_ts.get(name, 0), ts)

    def _check_write(self, txn, name):
        if txn.cc == CC_2PL:
            if not self.locks.can_grant(txn.txn_id, name, EXCLUSIVE):
                self._conflict(
                    txn, "X-lock on %r held by %s" % (
                        name,
                        sorted(self.locks.blockers(
                            txn.txn_id, name, EXCLUSIVE
                        )),
                    )
                )
            self.locks.grant(txn.txn_id, name, EXCLUSIVE)
            return
        ts = txn.txn_id
        if self._read_ts.get(name, 0) > ts:
            self._conflict(
                txn, "TO write of %r after read by ts %d" % (
                    name, self._read_ts[name],
                )
            )
        if self._write_ts.get(name, 0) > ts:
            self._conflict(
                txn, "TO write of %r after write by ts %d" % (
                    name, self._write_ts[name],
                )
            )
        self._write_ts[name] = max(self._write_ts.get(name, 0), ts)

    def _validate_commit(self, txn):
        """Timestamp mode: first-committer-wins on the read/write sets.

        Writes apply at commit, so op-time TO checks alone cannot see a
        conflicting commit that landed *between* this transaction's
        operation and its commit; the MVCC store's last-writer versions
        close that window.
        """
        if txn.cc != CC_TIMESTAMP:
            return
        for name, vid in txn._base.items():
            if self.store.last_writer_vid(name) > vid:
                self._conflict(
                    txn,
                    "write set: %r committed by another txn since staging"
                    % (name,),
                )
        for name, vid in txn._read_vids.items():
            if self.store.last_writer_vid(name) > vid:
                self._conflict(
                    txn,
                    "read set: %r committed by another txn since the read"
                    % (name,),
                )

    def _conflict(self, txn, reason):
        self.conflicts += 1
        self.metrics.counter("txn_conflicts_total").inc()
        self.tracer.event("txn_conflict", txn=txn.txn_id, reason=reason)
        self._abort(txn, reason=reason)
        raise TransactionConflict(
            "transaction %d aborted: %s" % (txn.txn_id, reason)
        )

    # -- terminal operations ----------------------------------------------

    def _commit(self, txn):
        self._validate_commit(txn)
        vid = self.store.vid
        if txn._overlay:
            vid = self.db.apply_overlay(
                txn._overlay, txn=txn.txn_id, journal=False
            )
            for entry in txn._undo:
                entry.vid = vid
                entry.status = "committed"
            terminal = [
                Op.write(txn.txn_id, name) for name in sorted(txn.writes)
            ]
        else:
            terminal = []
        terminal.append(Op.commit(txn.txn_id))
        for op in terminal:
            self._record(op)
        self._finish(txn, "committed")
        self.commits += 1
        self.metrics.counter("txn_commits_total").inc()
        self.tracer.event(
            "txn_commit", txn=txn.txn_id, vid=vid,
            writes=sorted(txn.writes),
        )
        self.verify()
        return vid

    def _abort(self, txn, reason=""):
        for entry in reversed(txn._undo):
            if entry.undo is ABSENT:
                txn._overlay.pop(entry.name, None)
            else:
                txn._overlay[entry.name] = entry.undo
            entry.status = "rolled-back"
        self._record(Op.abort(txn.txn_id))
        self._finish(txn, "aborted")
        self.aborts += 1
        self.metrics.counter("txn_aborts_total").inc()
        self.tracer.event("txn_abort", txn=txn.txn_id, reason=reason)

    def _finish(self, txn, status):
        txn.status = status
        self.locks.release_all(txn.txn_id)
        self.active.pop(txn.txn_id, None)
        self.finished.append(txn)

    # -- the theory, certified online -------------------------------------

    def schedule(self):
        """The recorded window as a live Schedule (may be incomplete, and
        may start inside a transaction once the ring has wrapped)."""
        return Schedule(self.ops, validate=False)

    def verify(self):
        """The certifier's verdict on the history since the last reset.

        Returns the report dict (also kept as ``last_report``); raises
        :class:`~repro.errors.TransactionError` if the committed
        projection is not conflict serializable or not strict — either
        would mean the runtime violated the theorems it implements.  A
        passing call reads the certifier only; a failing one classifies
        the recorded window to name what went wrong.
        """
        certifier = self.certifier
        serializable, strict = certifier.serializable, certifier.strict
        recovery = "ST" if strict else recovery_class(self.schedule())
        self.last_report = {
            "ops": certifier.ops,
            "committed": certifier.commits,
            "aborted": self.aborts,
            "conflict_serializable": serializable,
            "recovery_class": recovery,
        }
        self.metrics.counter("txn_verifications_total").inc()
        if not serializable:
            raise TransactionError(
                "live history violates conflict serializability: %s"
                % (self.schedule().committed_projection(),)
            )
        if not strict:
            raise TransactionError(
                "live history is not strict (deferred updates must be): "
                "classified %s" % (recovery,)
            )
        return self.last_report

    def rows(self):
        """``sys_transactions`` tuples: one row per txn, begin order."""
        out = []
        for txn in list(self.finished) + list(self.active.values()):
            out.append(
                (
                    txn.txn_id,
                    txn.cc,
                    txn.status,
                    len(txn.reads),
                    len(txn.writes),
                    txn.rows_inserted,
                    txn.rows_deleted,
                    txn.statements,
                )
            )
        out.sort(key=lambda row: row[0])
        return out

    def reset(self):
        """Drop the recorded history (active transactions must be done)."""
        if self.active:
            raise TransactionError(
                "cannot reset with active transactions: %s"
                % sorted(self.active)
            )
        self.ops.clear()
        self.finished.clear()
        self.certifier = SerializationGraphCertifier()
        self._read_ts.clear()
        self._write_ts.clear()
        self.last_report = None

    def __repr__(self):
        return "TransactionManager(%d active, %d committed, %d aborted)" % (
            len(self.active), self.commits, self.aborts
        )
