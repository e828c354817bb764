"""Smoke test of the end-to-end benchmark at a small scale.

One traced invocation of the command line covers all four workloads:
every answer checks, every metric ``BENCHMARK.json`` declares is emitted
with its unit, spans cover every boundary and nest inside their parents,
and rounds of one seed see the same op stream and the same counters.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import WORKLOADS
from benchmarks.e2e.cli import END_TO_END, per_layer_units
from benchmarks.e2e.tracing import BOUNDARIES, Tracer
from benchmarks.e2e.workloads import build

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SCALE = 0.15
SEED = 7

#: Counters that must repeat exactly between rounds of one seed.
DETERMINISTIC = (
    "plan_hits", "plan_misses", "kernel_hits", "kernel_misses",
    "codegens", "aborts", "history_ops",
)


@pytest.fixture(scope="module")
def invocation(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", str(SCALE),
         "--seed", str(SEED), "--seconds", "0", "--trace", "1",
         "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return done.stdout, last, json.loads(out.read_text()), out.parent


def test_every_answer_checks(invocation):
    _stdout, last, result, _dir = invocation
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0
    rounds = [r for rs in result["rounds"].values() for r in rs]
    rounds += list(result["traced_rounds"].values())
    assert {r["workload"] for r in rounds} == set(WORKLOADS)
    assert all(r["failed"] == 0 and r["state_ok"] for r in rounds)
    txn = result["traced_rounds"]["txn-mixed"]["counters"]
    assert txn["aborts"] > 0 and txn["commits"] > 0


def test_declared_metrics_are_emitted_with_units(invocation):
    stdout, last, result, _dir = invocation
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == per_layer_units()
    for workload in WORKLOADS:
        summary = result["workloads"][workload]
        for name, unit in END_TO_END.items():
            assert summary["metrics"][name] > 0
            assert any(
                line.split()[:1] == [name] and unit in line.split()
                for line in stdout.splitlines()
            )
        for name, unit in per_layer_units().items():
            emitted = last["metrics"]["%s.%s" % (workload, name)]
            assert emitted["unit"] == unit


def test_spans_cover_boundaries_and_nest(invocation):
    _stdout, _last, _result, directory = invocation
    seen = set()
    for workload in WORKLOADS:
        path = directory / ("spans-%s-seed%d.jsonl" % (workload, SEED))
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        by_id = {span["span"]: span for span in spans}
        for span in spans:
            seen.add(span["name"])
            assert span["start_ns"] <= span["end_ns"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]
                assert parent["op"] == span["op"]
    assert set(BOUNDARIES) <= seen


def test_same_seed_same_stream_and_counters(invocation):
    _stdout, _last, result, _dir = invocation
    for workload, rounds in result["rounds"].items():
        assert len(rounds) >= 2
        first = rounds[0]
        for other in rounds[1:]:
            assert other["op_stream_sha256"] == first["op_stream_sha256"]
            for counter in DETERMINISTIC:
                assert other["counters"][counter] \
                    == first["counters"][counter], (workload, counter)
        assert build(workload, SEED + 1, SCALE).digest() \
            != first["op_stream_sha256"]


def test_tracer_puts_every_original_back():
    with Tracer() as tracer:
        patches = list(tracer.patches)
        assert all(
            vars(owner)[attribute] is not original
            for owner, attribute, original in patches
        )
    assert len(patches) >= len(BOUNDARIES)
    assert all(
        vars(owner)[attribute] is original
        for owner, attribute, original in patches
    )
