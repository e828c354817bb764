"""Smoke tests: every example script runs to completion.

Examples are documentation; broken documentation is a bug.  Each main()
is executed with stdout captured and a few landmark strings checked.
"""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)

LANDMARKS = {
    "quickstart.py": ["Codd's Theorem", "ancestor", "grandparent"],
    "pods_retrospective.py": [
        "Figure 3",
        "two-year harmonic",
        "Kitcher",
        "Volterra",
    ],
    "database_design_studio.py": [
        "Candidate keys",
        "lossless",
        "spurious-tuple",
    ],
    "recursive_queries.py": ["magic", "seminaive", "m~reachable"],
    "transaction_lab.py": ["CSR", "2PL", "recovery"],
    "metatheory_experiments.py": [
        "calculus-differential",
        "CONFIRMED",
        "randomized cases",
    ],
    "observability.py": [
        "EXPLAIN ANALYZE",
        "plan_cache=hit",
        "stratum",
        "lock_wait",
    ],
    "introspection.py": [
        "sys_query_log",
        "status=error",
        "cache_hits",
        "Scan(sys_plan_cache)",
    ],
    "transactions_live.py": [
        "strict 2PL",
        "first committer wins",
        "conflict_serializable",
        "recovery_class",
        "Rollback restores",
    ],
}


def run_example(filename):
    path = os.path.join(EXAMPLES_DIR, filename)
    spec = importlib.util.spec_from_file_location(
        "example_" + filename.replace(".py", ""), path
    )
    module = importlib.util.module_from_spec(spec)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        spec.loader.exec_module(module)
        module.main()
    return captured.getvalue()


@pytest.mark.parametrize("filename", sorted(LANDMARKS))
def test_example_runs(filename):
    output = run_example(filename)
    assert len(output) > 200
    for landmark in LANDMARKS[filename]:
        assert landmark in output, (filename, landmark)


def test_every_example_file_has_a_smoke_test():
    files = {
        name
        for name in os.listdir(EXAMPLES_DIR)
        if name.endswith(".py")
    }
    assert files == set(LANDMARKS), (
        "examples and smoke tests out of sync: %s" % sorted(
            files ^ set(LANDMARKS)
        )
    )
