"""Property-based tests for transaction processing (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transactions import (
    Op,
    Schedule,
    avoids_cascading_aborts,
    is_conflict_serializable,
    is_recoverable,
    is_strict,
    optimistic,
    timestamp_order,
    two_phase_lock,
)

items = st.sampled_from(["x", "y", "z"])
kinds = st.sampled_from(["r", "w"])


@st.composite
def schedules(draw, max_txns=4, max_ops=4, aborts=False, active=False):
    """A random schedule with per-transaction order preserved.

    Every transaction commits unless ``aborts`` lets it abort or
    ``active`` lets it end without a terminal (an incomplete schedule).
    """
    terminals = ["c"] + ["a"] * aborts + [None] * active
    n_txns = draw(st.integers(min_value=1, max_value=max_txns))
    queues = {}
    for txn in range(1, n_txns + 1):
        n_ops = draw(st.integers(min_value=1, max_value=max_ops))
        ops = [
            Op(draw(kinds), txn, draw(items)) for _ in range(n_ops)
        ]
        terminal = draw(st.sampled_from(terminals))
        if terminal is not None:
            ops.append(Op(terminal, txn))
        queues[txn] = ops
    order = []
    alive = sorted(queues)
    while alive:
        txn = draw(st.sampled_from(alive))
        order.append(queues[txn].pop(0))
        if not queues[txn]:
            alive.remove(txn)
    return Schedule(order)


class TestSchedulerSafety:
    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_2pl_output_is_csr_and_strict(self, schedule):
        output, _stats = two_phase_lock(schedule)
        assert is_conflict_serializable(output)
        assert is_strict(output)

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_basic_2pl_output_is_csr(self, schedule):
        output, _stats = two_phase_lock(schedule, strict=False)
        assert is_conflict_serializable(output)

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_timestamp_output_is_csr(self, schedule):
        output, _stats = timestamp_order(schedule)
        assert is_conflict_serializable(output)

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_occ_output_is_csr(self, schedule):
        output, _stats = optimistic(schedule)
        assert is_conflict_serializable(output)

    @settings(max_examples=40, deadline=None)
    @given(schedules())
    def test_2pl_loses_no_committed_work(self, schedule):
        output, stats = two_phase_lock(schedule)
        survivors = set(schedule.transactions()) - stats["aborted"]
        for txn in survivors:
            requested = [
                op for op in schedule.ops_of(txn) if not op.is_terminal()
            ]
            executed = [
                op for op in output.ops_of(txn) if not op.is_terminal()
            ]
            assert requested == executed


class TestTheoryInvariants:
    @settings(max_examples=80, deadline=None)
    @given(schedules())
    def test_recovery_hierarchy(self, schedule):
        if is_strict(schedule):
            assert avoids_cascading_aborts(schedule)
        if avoids_cascading_aborts(schedule):
            assert is_recoverable(schedule)

    @settings(max_examples=80, deadline=None)
    @given(schedules())
    def test_serial_schedules_are_csr(self, schedule):
        # Build the serial version of the same transactions.
        ops = []
        for txn in schedule.transactions():
            ops.extend(schedule.ops_of(txn))
        serial = Schedule(ops)
        assert serial.is_serial()
        assert is_conflict_serializable(serial)

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_committed_projection_idempotent(self, schedule):
        once = schedule.committed_projection()
        assert once.committed_projection() == once

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_precedence_graph_nodes_are_committed(self, schedule):
        from repro.transactions import precedence_graph

        graph = precedence_graph(schedule)
        assert set(graph) == schedule.committed()
