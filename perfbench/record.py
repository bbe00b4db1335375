"""Record one point of the performance trajectory: every metric of every workload.

    python3 perfbench/record.py --out perfbench/trajectory/BENCH_<name>.json

Runs `run.py` once untraced and once traced per workload, at the acceptance
seeds and the manifest's `run_seconds`, and writes the results together with
the commit, CPU count and model, and the Python, numpy and scipy versions.
"""
from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=workloads.ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    manifest = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    point = {
        "commit": git_commit(),
        "nproc": workloads.usable_cpus(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "run_seconds": manifest["run_seconds"],
        "workloads": {},
    }
    for w in manifest["workloads"]:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", w["name"], "--seconds", str(manifest["run_seconds"]),
                 "--trace", str(trace)],
                cwd=workloads.ROOT, capture_output=True, text=True, check=True)
            print(proc.stdout, flush=True)
            results["traced" if trace else "untraced"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
        point["workloads"][w["name"]] = results
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
