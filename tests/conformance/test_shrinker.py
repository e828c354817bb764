"""Delta-debugging shrinker: ddmin units and the end-to-end demo."""

import pytest

from repro.conformance import (
    case_size,
    ddmin_list,
    decode_case,
    encode_case,
    expression_depth,
    expression_size,
    oracle_predicate,
    shrink_case,
)
from repro.conformance.oracles import RelationalDifferentialOracle
from repro.conformance.workloads import generate_case
from repro.relational import algebra as ra

from .faults import drop_one_join_tuple


class TestDdmin:
    def test_minimizes_to_single_culprit(self):
        items = list(range(100))
        result = ddmin_list(items, lambda subset: 37 in subset)
        assert result == [37]

    def test_minimizes_to_pair(self):
        items = list(range(50))
        result = ddmin_list(
            items, lambda subset: 3 in subset and 41 in subset
        )
        assert result == [3, 41]

    def test_keeps_order(self):
        items = ["a", "b", "c", "d"]
        result = ddmin_list(
            items, lambda subset: "b" in subset and "d" in subset
        )
        assert result == ["b", "d"]

    def test_everything_removable(self):
        assert ddmin_list([1, 2, 3], lambda subset: True) == []

    def test_nothing_removable(self):
        items = [1, 2, 3]
        assert ddmin_list(items, lambda s: s == items) == items

    def test_probe_count_is_subquadratic(self):
        calls = []
        items = list(range(64))

        def test_fn(subset):
            calls.append(1)
            return 11 in subset

        ddmin_list(items, test_fn)
        assert len(calls) < 64 * 8


class TestExpressionMeasures:
    def test_depth_and_size(self):
        leaf = ra.RelationRef("r1")
        assert expression_depth(leaf) == 1
        assert expression_size(leaf) == 1
        tree = ra.Union(ra.Selection(leaf, ra.Comparison(
            ra.Attr("a"), "=", ra.Const(1))), leaf)
        assert expression_depth(tree) == 3
        assert expression_size(tree) == 4


class TestShrinkGuards:
    def test_non_failing_case_returned_unchanged(self):
        case = generate_case("relational-differential", 1)
        shrunk = shrink_case(case, lambda c: False)
        assert shrunk is case

    def test_budget_caps_probes(self):
        case = generate_case("transactions-differential", 1)
        calls = []

        def pred(candidate):
            calls.append(1)
            return True  # everything "fails": worst case for the budget

        shrink_case(case, pred, max_checks=25)
        assert len(calls) <= 26  # initial confirmation + budget


class TestShrinkSchedule:
    def test_shrinks_to_witness_ops(self):
        case = generate_case("transactions-differential", 5)
        schedule = case.payload["schedule"]

        # Synthetic predicate: "fails" while the schedule still touches
        # the first transaction's first item with both a read and write.
        target = schedule.ops[0].txn

        def pred(candidate):
            ops = candidate.payload["schedule"].ops
            return any(op.txn == target and op.kind == "w" for op in ops)

        shrunk = shrink_case(case, pred)
        assert len(shrunk.payload["schedule"].ops) <= 2


class TestShrinkerDemo:
    """The acceptance demo: a hash join that drops one tuple is found,
    shrunk to a tiny witness, serialized, and replays red-then-green."""

    def test_dropped_tuple_shrinks_small_and_replays(
        self, tmp_path, monkeypatch
    ):
        remove_fault = drop_one_join_tuple(monkeypatch)
        oracle = RelationalDifferentialOracle()
        pred = oracle_predicate(oracle)
        failing = None
        for seed in range(200):
            case = oracle.generate(seed)
            if case.payload.get("expr") is None:
                continue
            if pred(case):
                failing = case
                break
        assert failing is not None, "fault injection found no case"

        shrunk = shrink_case(failing, pred)
        assert case_size(shrunk) <= case_size(failing)
        assert len(shrunk.payload["db"]) <= 3
        assert shrunk.payload["db"].total_tuples() <= 6
        assert expression_depth(shrunk.payload["expr"]) <= 3
        assert pred(shrunk), "shrunk case no longer reproduces"

        # Serialize, reload: still red under the fault...
        data = encode_case(shrunk)
        reloaded = decode_case(data)
        assert oracle.check(reloaded), "serialized repro lost the bug"

        # ...and green once the fault is removed.
        remove_fault()
        assert oracle.check(reloaded) == []
