"""The repository's end-to-end benchmark: four workloads driven through
the public workbench API, with per-layer costs timed from outside the
program.  See README.md in this directory."""

#: Workload names, in the order a round runs them.
WORKLOADS = ("point-read", "analytic-scan", "recursive-datalog", "txn-mixed")
