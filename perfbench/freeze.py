"""Freeze each workload's seed pool and output digests into expected.json.

    python3 perfbench/freeze.py

For each workload, runs the acceptance seed and counts its shortest-path
solves; then tries the next SCAN - 1 seeds in order and keeps the first
POOL_SIZE ones that do the same number of solves (the same window
enlargements) and pass the correctness gate.  Every seed tried and not kept
is listed under "skipped" with the reason.  Run it again only when a change
declares new outputs (for example a new sampling rule); the benchmark then
reports runs of the old digests as not bit-identical.
"""
from __future__ import annotations

import json
import sys

import run as bench
import spans
import workloads
from record import git_commit

POOL_SIZE = 6
SCAN = 60


def probe(workload, seed: int):
    """Serial output for a seed, and the number of shortest-path solves it ran."""
    tracer = spans.Tracer()
    with tracer.installed():
        output = workload.in_process_run(seed)
    calls = tracer.run_summary(0)["calls"]
    return output, calls.get("fpp.passage_times", 0) + calls.get("fpp.dijkstra", 0)


def freeze(workload) -> dict:
    first = workload.acceptance_seed
    output, solves = probe(workload, first)
    failures = workload.gate(output)
    if failures:
        raise SystemExit(f"{workload.name}: acceptance seed {first} fails: {failures}")
    entry = {"solves": solves, "pool": [first],
             "digests": {str(first): workload.digest(output)}, "skipped": {}}
    if workload.kept_batches == 0:  # exhaustive: the seed is not used
        return entry
    for seed in range(first + 1, first + SCAN):
        if len(entry["pool"]) == POOL_SIZE:
            break
        output, n = probe(workload, seed)
        failures = workload.gate(output)
        if n != solves:
            entry["skipped"][str(seed)] = f"{n} solves, not {solves}"
        elif failures:
            entry["skipped"][str(seed)] = "gate: " + "; ".join(failures)
        else:
            entry["pool"].append(seed)
            entry["digests"][str(seed)] = workload.digest(output)
        print(workload.name, seed, n, failures or "ok", flush=True)
    return entry


def main() -> int:
    bench.import_program()
    commit = git_commit()
    for name in sorted(workloads.WORKLOADS):
        entry = dict(freeze(workloads.WORKLOADS[name]), commit=commit)
        expected = {**workloads.load_expected(), name: entry}
        workloads.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
