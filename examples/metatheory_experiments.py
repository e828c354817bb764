"""Metatheory experiments: "positive results are invitations to experiment".

§3's thesis applied to this library itself: every positive theorem we
implement is validated empirically, on randomized instances, against an
independent semantics.  The conformance kit (:mod:`repro.conformance`)
holds these experiments as oracle families: Codd's Theorem against the
active-domain semantics (``calculus-differential``), the four Datalog
engines against each other (``datalog-differential``), the kernels and
the optimizer against the tree walk (``relational-differential``), the
serializability theorems against replay, and the metamorphic rewrites.
This script runs a fixed number of cases of each family.

The paper: "I am aware that not all positive results are followed up by
such experimental validation, but I think that such absence should be
considered as a form of falsification. … I highly recommend the obvious
prevention: doing your own experiments."  This script does ours.

Run:  python examples/metatheory_experiments.py
"""

import time

from repro.conformance import ORACLE_FAMILIES, run_conformance
from repro.metascience import KuhnProcess, figure2_comparison

#: Randomized cases per oracle family.
CASES = 25


def main():
    print("=== The library's own Berkeley-IBM moment ===\n")
    start = time.perf_counter()
    for family in ORACLE_FAMILIES:
        report = run_conformance(
            seconds=None, seed=2026, families=[family], max_cases=CASES
        )
        counts = report["families"][family]
        status = "FALSIFIED" if counts["divergences"] else "CONFIRMED"
        print(
            "%-26s %3d randomized cases  ->  %s"
            % (family, counts["cases"], status)
        )
        for divergence in report["divergences"]:
            print("    counterexample:", divergence["messages"])
    elapsed = time.perf_counter() - start
    print(
        "\n(%d oracle families in %.2f s)" % (len(ORACLE_FAMILIES), elapsed)
    )

    print("\n=== And the metascience, on ourselves ===")
    print(
        "If a counterexample ever appears above, that is an anomaly in"
        "\nKuhn's sense: it accumulates against the implementation's"
        "\nparadigm until something gives.  The stage machine, for scale:"
    )
    process = KuhnProcess(anomaly_rate=0.05, tolerance=3, seed=1)
    process.run(600)
    durations = process.stage_durations()
    print(
        "over 600 steps: %d revolutions; mean normal-science episode %.1f"
        % (
            process.revolutions(),
            sum(durations["normal science"])
            / max(len(durations["normal science"]), 1),
        )
    )

    print("\n=== Is this research graph healthy? ===")
    comparison = figure2_comparison(n=250, seed=11)
    for regime, report in comparison.items():
        print(
            "%-8s giant=%.2f diameter=%d theory->practice=%s hops"
            % (
                regime,
                report["giant_fraction"],
                report["giant_diameter"],
                report["theory_practice_median_distance"],
            )
        )
    print(
        "\nA library whose theory modules are all a few imports from its"
        "\nexecutable benchmarks is, by Figure 2's standard, healthy."
    )


if __name__ == "__main__":
    main()
