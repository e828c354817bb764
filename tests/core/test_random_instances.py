"""Seed determinism of every random_* workload generator.

Every generator must be a pure function of its arguments: the same
seed regenerates the identical instance (that is what makes a recorded
conformance seed a repro), and nearby seeds must actually vary (a
generator that ignores its seed silently collapses a fuzz sweep to one
case).
"""

import pytest

from repro.core.random_instances import (
    random_algebra_expression,
    random_database,
    random_edb,
    random_fds,
    random_graph_edges,
    random_positive_program,
    random_safe_query,
    same_generation_store,
)

SEEDS = range(8)


def databases(seed):
    return random_database(num_relations=3, rows=6, seed=seed)


class TestSameSeedSameInstance:
    def test_random_graph_edges(self):
        for seed in SEEDS:
            assert random_graph_edges(12, 20, seed=seed) == random_graph_edges(
                12, 20, seed=seed
            )

    def test_same_generation_store(self):
        for seed in SEEDS:
            assert same_generation_store(3, 3, seed=seed) == (
                same_generation_store(3, 3, seed=seed)
            )

    def test_random_positive_program(self):
        for seed in SEEDS:
            first = random_positive_program(seed=seed)
            second = random_positive_program(seed=seed)
            assert first == second

    def test_random_edb(self):
        for seed in SEEDS:
            assert random_edb(["e0", "e1"], seed=seed) == random_edb(
                ["e0", "e1"], seed=seed
            )

    def test_random_database(self):
        for seed in SEEDS:
            assert databases(seed) == databases(seed)

    def test_random_algebra_expression(self):
        for seed in SEEDS:
            db = databases(0)
            first = random_algebra_expression(db, seed=seed, size=5)
            second = random_algebra_expression(db, seed=seed, size=5)
            assert str(first) == str(second)

    def test_random_safe_query(self):
        for seed in SEEDS:
            db = databases(0)
            first = random_safe_query(db, seed=seed)
            second = random_safe_query(db, seed=seed)
            assert str(first) == str(second)

    def test_random_fds(self):
        attributes = tuple("ABCDE")
        for seed in SEEDS:
            assert random_fds(attributes, seed=seed) == random_fds(
                attributes, seed=seed
            )


class TestSeedsActuallyVary:
    """At least two of a handful of consecutive seeds must differ."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: random_graph_edges(12, 20, seed=seed),
            lambda seed: same_generation_store(3, 3, seed=seed),
            lambda seed: str(random_positive_program(seed=seed)),
            lambda seed: random_edb(["e0"], seed=seed),
            lambda seed: repr(databases(seed).relations()),
            lambda seed: str(
                random_algebra_expression(databases(0), seed=seed, size=5)
            ),
            lambda seed: str(random_safe_query(databases(0), seed=seed)),
            lambda seed: random_fds(tuple("ABCDE"), seed=seed),
        ],
        ids=[
            "random_graph_edges",
            "same_generation_store",
            "random_positive_program",
            "random_edb",
            "random_database",
            "random_algebra_expression",
            "random_safe_query",
            "random_fds",
        ],
    )
    def test_variation(self, make):
        outputs = {repr(make(seed)) for seed in SEEDS}
        assert len(outputs) > 1
