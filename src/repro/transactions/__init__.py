"""Transaction processing: schedules, serializability, schedulers, recovery."""

from .certifier import SerializationGraphCertifier
from .locking import LockTable, TwoPhaseLockingScheduler, two_phase_lock
from .optimistic import OptimisticScheduler, optimistic
from .recovery import (
    avoids_cascading_aborts,
    cascading_abort_set,
    is_recoverable,
    is_strict,
    recovery_class,
)
from .schedule import (
    ABORT,
    COMMIT,
    READ,
    WRITE,
    Op,
    Schedule,
    parse_schedule,
    transaction,
)
from .serializability import (
    conflicts,
    equivalent_serial_schedule,
    final_writers,
    is_blind_write_free,
    is_conflict_serializable,
    is_view_serializable,
    precedence_graph,
    reads_from,
    serialization_order,
    view_equivalent,
)
from .timestamp import TimestampScheduler, timestamp_order
from .treelock import ItemTree, TreeLockingScheduler, tree_lock
from .workload import (
    WorkloadConfig,
    contention_sweep,
    generate_schedule,
    generate_transactions,
    random_interleaving,
)

__all__ = [
    "ABORT",
    "COMMIT",
    "LockTable",
    "Op",
    "OptimisticScheduler",
    "READ",
    "Schedule",
    "SerializationGraphCertifier",
    "ItemTree",
    "TimestampScheduler",
    "TreeLockingScheduler",
    "TwoPhaseLockingScheduler",
    "WRITE",
    "WorkloadConfig",
    "avoids_cascading_aborts",
    "cascading_abort_set",
    "conflicts",
    "contention_sweep",
    "equivalent_serial_schedule",
    "final_writers",
    "generate_schedule",
    "generate_transactions",
    "is_blind_write_free",
    "is_conflict_serializable",
    "is_recoverable",
    "is_strict",
    "is_view_serializable",
    "optimistic",
    "parse_schedule",
    "precedence_graph",
    "random_interleaving",
    "reads_from",
    "recovery_class",
    "serialization_order",
    "timestamp_order",
    "tree_lock",
    "transaction",
    "two_phase_lock",
    "view_equivalent",
]
