"""The online serialization-graph certifier against the full replay.

:class:`SerializationGraphCertifier` must give, after every prefix of
any op stream, the verdicts the whole-history predicates give:
``is_conflict_serializable`` of the prefix's committed projection and
``is_strict`` of the prefix — with aborts, transactions left active and
writes anywhere in a transaction (not only deferred to its commit).
"""

from hypothesis import given, settings

from repro.transactions import (
    Op,
    Schedule,
    SerializationGraphCertifier,
    is_conflict_serializable,
    is_strict,
    parse_schedule,
)
from repro.transactions import certifier as certifier_module

from .test_properties import schedules


def certify(schedule):
    """Feed ``schedule`` op by op; yield ``(prefix, certifier)``."""
    certifier = SerializationGraphCertifier()
    for length, op in enumerate(schedule.ops, start=1):
        certifier.observe(op)
        yield Schedule(schedule.ops[:length], validate=False), certifier


class TestAgreesWithTheReplay:
    @settings(max_examples=300, deadline=None)
    @given(schedules(max_txns=6, aborts=True, active=True))
    def test_every_prefix_matches_the_whole_history_predicates(
        self, schedule
    ):
        for prefix, certifier in certify(schedule):
            assert certifier.serializable == is_conflict_serializable(
                prefix.committed_projection()
            ), str(prefix)
            assert certifier.strict == is_strict(prefix), str(prefix)
        assert certifier.ops == len(schedule)
        assert certifier.commits == len(schedule.committed())

    @settings(max_examples=100, deadline=None)
    @given(schedules(max_txns=6, aborts=True))
    def test_a_quiescent_acyclic_history_retains_nothing(self, schedule):
        # Once nothing is live, every node left has a retained
        # predecessor: only nodes on or behind a cycle remain.
        *_, (_prefix, certifier) = certify(schedule)
        if certifier.serializable:
            assert certifier.retained == 0


class TestPruning:
    CYCLE = "r2(y) w1(y) c1 w2(y) c2"

    def test_a_source_is_kept_while_an_older_transaction_is_live(self):
        # T1 is a source at c1, but T2 read y before T1 wrote it: the
        # edge T2 -> T1 arrives at c2 and closes T1 -> T2 -> T1.
        verdicts = []
        for prefix, certifier in certify(parse_schedule(self.CYCLE)):
            verdicts.append((str(prefix.ops[-1]), certifier.serializable,
                             certifier.retained))
        assert verdicts[2] == ("c1", True, 1)
        assert verdicts[-1] == ("c2", False, 2)
        assert not is_conflict_serializable(parse_schedule(self.CYCLE))

    def test_the_no_predecessor_rule_misses_the_cycle(self, monkeypatch):
        # The regression above is sensitive: pruning on "no retained
        # predecessor" alone drops T1 at c1 and certifies the
        # non-serializable history.
        monkeypatch.setattr(
            SerializationGraphCertifier, "_horizon",
            lambda self: certifier_module._NEVER,
        )
        *_, (_prefix, certifier) = certify(parse_schedule(self.CYCLE))
        assert certifier.serializable is True

    def test_serial_transactions_leave_nothing_retained(self):
        certifier = SerializationGraphCertifier()
        for txn in range(1, 401):
            for op in parse_schedule(
                "r%d(x) w%d(x) r%d(y) c%d" % ((txn,) * 4)
            ):
                certifier.observe(op)
            assert certifier.retained == 0
        assert certifier.serializable and certifier.strict

    def test_a_long_running_reader_holds_the_horizon(self):
        # T1 reads x first and stays live: every later committer of x is
        # kept, because T1 may still close a cycle through it.
        certifier = SerializationGraphCertifier()
        certifier.observe(Op.read(1, "x"))
        for txn in range(2, 6):
            certifier.observe(Op.write(txn, "x"))
            certifier.observe(Op.commit(txn))
        assert certifier.retained == 4
        certifier.observe(Op.commit(1))
        assert certifier.serializable and certifier.retained == 0


class TestEdgesAndStrictness:
    def test_immediate_writes_are_ordered_by_position(self):
        # Writes need not be deferred to the commit: w1(x) before r2(x)
        # and r2(y) before w1(y) close a cycle.
        schedule = parse_schedule("w1(x) r2(x) r2(y) w1(y) c1 c2")
        *_, (_prefix, certifier) = certify(schedule)
        assert certifier.serializable is False
        assert certifier.strict is False  # r2(x) read T1's dirty write

    def test_an_aborted_writer_leaves_no_edge_and_no_dirt(self):
        schedule = parse_schedule("w1(x) a1 r2(x) w2(x) c2 r3(x) c3")
        *_, (_prefix, certifier) = certify(schedule)
        assert certifier.serializable and certifier.strict
        assert certifier.commits == 2

    def test_verdicts_are_sticky(self):
        certifier = SerializationGraphCertifier()
        for op in parse_schedule("r1(x) r2(x) w1(x) w2(x) c1 c2 r3(z) c3"):
            certifier.observe(op)
        assert certifier.serializable is False
        assert certifier.strict is False
