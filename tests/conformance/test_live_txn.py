"""The transactions-live conformance family: runtime vs. metatheory.

The generator emits seeded interleavings of SQL DML across concurrent
live transactions; the oracle replays each under both concurrency
controls and demands zero divergences from the scheduler theory
(serializable + strict committed histories), a serial-replay final
state, and a clean journal.  These tests pin the family's determinism,
construct coverage, fault sensitivity, and shrinkability.
"""

import pytest

from repro.conformance import build_oracles
from repro.conformance.coverage import LIVE_TXN_UNIVERSE, CoverageTracker
from repro.conformance.oracles import LiveTransactionsOracle
from repro.conformance.shrinker import case_size, shrink_case
from repro.conformance.workloads import transactions_live_case

SWEEP = 30


@pytest.fixture(scope="module")
def oracle():
    return LiveTransactionsOracle()


class TestGenerator:
    def test_cases_are_deterministic_per_seed(self):
        for seed in (0, 7, 23):
            a = transactions_live_case(seed)
            b = transactions_live_case(seed)
            assert a.payload["programs"] == b.payload["programs"]
            assert a.payload["order"] == b.payload["order"]
            assert a.payload["commit_order"] == b.payload["commit_order"]
            assert a.payload["db"] == b.payload["db"]
            assert a.constructs == b.constructs

    def test_the_interleaving_is_well_formed(self):
        for seed in range(20):
            case = transactions_live_case(seed)
            programs = case.payload["programs"]
            order = case.payload["order"]
            commit_order = case.payload["commit_order"]
            # Every statement is scheduled exactly once...
            assert sorted(order) == sorted(
                index
                for index, program in enumerate(programs)
                for _ in program
            )
            # ...and every transaction commits exactly once.
            assert sorted(commit_order) == list(range(len(programs)))

    def test_the_universe_is_reachable(self):
        tracker = CoverageTracker()
        for seed in range(120):
            case = transactions_live_case(seed)
            tracker.observe(case.family, case.constructs)
        assert tracker.unseen("transactions-live") == []
        assert set(tracker.counts("transactions-live")) <= LIVE_TXN_UNIVERSE


class TestOracle:
    def test_sweep_is_green_under_both_concurrency_controls(self, oracle):
        for seed in range(SWEEP):
            case = oracle.generate(seed)
            assert oracle.check(case) == [], seed

    def test_registry_builds_the_family(self):
        built = build_oracles(["transactions-live"])
        assert [o.family for o in built] == ["transactions-live"]

    def test_a_broken_runtime_is_caught(self, oracle, monkeypatch):
        """Sensitivity: silently dropping a committed write set must
        surface as a final-state divergence, not a green sweep."""
        from repro.relational.database import Database

        original = Database.apply_overlay

        def lossy(self, bindings, txn=None, journal=True):
            if txn is not None and txn % 2 == 0:
                bindings = {}  # drop even transactions' writes
            return original(self, bindings, txn=txn, journal=journal)

        monkeypatch.setattr(Database, "apply_overlay", lossy)
        caught = 0
        for seed in range(SWEEP):
            case = oracle.generate(seed)
            if oracle.check(case):
                caught += 1
        assert caught > 0

    def test_a_broken_lock_table_is_caught(self, oracle, monkeypatch):
        """A 2PL that grants every lock lets dirty interleavings through;
        the theory predicates (or the replay oracle) must notice."""
        from repro.transactions.locking import LockTable

        monkeypatch.setattr(
            LockTable, "can_grant", lambda self, txn, item, mode: True
        )
        caught = 0
        for seed in range(SWEEP):
            case = oracle.generate(seed)
            if oracle.check(case):
                caught += 1
        assert caught > 0

    def test_a_certifier_that_accepts_everything_is_caught(
        self, oracle, monkeypatch
    ):
        """With the lock table broken, the runtime commits cycles; a
        certifier stubbed to find none must diverge from the replay."""
        from repro.transactions.certifier import SerializationGraphCertifier
        from repro.transactions.locking import LockTable

        monkeypatch.setattr(
            LockTable, "can_grant", lambda self, txn, item, mode: True
        )
        monkeypatch.setattr(
            SerializationGraphCertifier, "_on_cycle", lambda self, node: False
        )
        caught = []
        for seed in range(SWEEP):
            caught.extend(
                message for message in oracle.check(oracle.generate(seed))
                if "certifier says" in message
            )
        assert caught
        assert all("(True, True)" in message for message in caught)


class TestShrinker:
    def test_shrinks_toward_the_failure_witness(self):
        # A synthetic predicate standing in for a real divergence:
        # "the case schedules at least one DELETE". The shrinker must
        # keep the witness while dropping everything else it can.
        for seed in range(40):
            case = transactions_live_case(seed)
            def has_delete(candidate):
                return any(
                    stmt.startswith("DELETE")
                    for program in candidate.payload["programs"]
                    for stmt in program
                )
            if not has_delete(case):
                continue
            shrunk = shrink_case(case, has_delete)
            assert has_delete(shrunk)
            assert case_size(shrunk) <= case_size(case)
            statements = [
                stmt
                for program in shrunk.payload["programs"]
                for stmt in program
            ]
            assert len(statements) == 1  # exactly the witness survives
            # The shrunk interleaving is still well-formed.
            assert sorted(shrunk.payload["commit_order"]) == list(
                range(len(shrunk.payload["programs"]))
            )
            assert len(shrunk.payload["order"]) == len(statements)
            break
        else:  # pragma: no cover - generator always emits deletes
            pytest.fail("no DELETE-bearing case in the first 40 seeds")
