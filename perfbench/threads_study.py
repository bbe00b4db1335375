"""Does the CLI default of one worker process per CPU pay off on small runs?

    python3 perfbench/threads_study.py

Times `crystalfpp shape` as a subprocess REPEATS times at `--threads 1` and
at one worker per usable CPU, alternating which goes first, and prints the
median wall time of each.  This is a one-off measurement kept apart from the workloads;
its answer is recorded in NOTES.md.
"""
from __future__ import annotations

import statistics
import sys
import time

import run as bench
import workloads

REPEATS = 5
CASES = {
    "criterion-1 shape (cubic2, deterministic:1, k 30, 2 replicas)":
        ("shape", "--preset", "cubic2", "--dist", "deterministic:1", "--dirs", "16",
         "--k-max", "30", "--replicas", "2"),
    "40-replica cubic2 shape (exponential:1, k 20)":
        ("shape", "--preset", "cubic2", "--dist", "exponential:1", "--dirs", "16",
         "--k-max", "20", "--replicas", "40"),
}


def main() -> int:
    bench.import_program()
    pooled = workloads.check_workers(workloads.usable_cpus())
    out = workloads.OUT / "threads-study"
    print(f"| case | threads=1 median s | threads={pooled} median s | pooled/serial |")
    print("|---|---|---|---|")
    for label, cli_args in CASES.items():
        workloads.run_cli_subprocess(cli_args, 1, 1, out)  # warm-up
        walls: dict[int, list[float]] = {1: [], pooled: []}
        for i in range(REPEATS):
            for threads in ((1, pooled) if i % 2 == 0 else (pooled, 1)):
                t0 = time.perf_counter()
                result = workloads.run_cli_subprocess(cli_args, 1, threads, out)
                walls[threads].append(time.perf_counter() - t0)
                if result.exit_code != 0:
                    raise SystemExit(f"{label}: exit code {result.exit_code}")
        serial, parallel = statistics.median(walls[1]), statistics.median(walls[pooled])
        print(f"| {label} | {serial:.3f} | {parallel:.3f} | {parallel / serial:.2f} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
