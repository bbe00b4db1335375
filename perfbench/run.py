"""crystalfpp benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload mono-cover --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
A run is a closed loop: one client starts the next experiment only after the
previous one finished, with at most `nproc` worker processes.  It sets up,
warms up, then repeats the workload's experiment until the next one would end
after `--seconds` (always at least once).  Every experiment's output goes
through the workload's correctness gate and is compared, for information,
with the digest frozen for its seed.

`--trace 0` reports the end-to-end metrics.  `--trace 1` repeats pairs of
experiments, one untraced and one with the public functions at the module
boundaries wrapped (see spans.py), alternating which half runs first; it
writes the spans to `perfbench/out/` and reports the per-layer metrics.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# name -> (unit, better, bound); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "solves_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
PER_LAYER = {
    "fpp.passage_calls": "count", "fpp.passage_s": "s", "fpp.passage_ms": "ms",
    "fpp.edges_scanned": "count", "fpp.dijkstra_calls": "count", "fpp.dijkstra_s": "s",
    "fpp.sample_calls": "count", "fpp.sample_s": "s", "fpp.self_s": "s",
    "lattice.window_builds": "count", "lattice.window_vertices": "count",
    "lattice.window_build_s": "s", "lattice.edge_conn_calls": "count",
    "lattice.edge_conn_s": "s", "lattice.self_s": "s",
    "quotient.build_calls": "count", "quotient.build_s": "s", "quotient.self_s": "s",
    "estimate.self_s": "s", "estimate.enlargements": "count",
    "estimate.useful_ratio": "ratio", "estimate.replica_map_s": "s",
    "cli.run_s": "s", "cli.svg_s": "s", "cli.write_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.remainder_s": "s", "trace.spans": "count", "trace.wrapper_s": "s",
}
SETUP_REPEATS = 5
SAMPLE_S = 0.05  # interval between reads of the process tree's memory
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def import_program():
    """Import crystalfpp from this checkout's src/, or exit without a result."""
    init = ROOT / "src" / "crystalfpp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a crystalfpp source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import crystalfpp

    if Path(crystalfpp.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported crystalfpp from {crystalfpp.__file__}, not {init}")
    return crystalfpp


def measure_setup(workload) -> float:
    """Median seconds for a fresh interpreter to import and build the lattice."""
    import workloads

    argv = [sys.executable, "-c", workload.setup_code]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one compiles bytecode: not timed
        t0 = time.perf_counter()
        subprocess.run(argv, env=workloads.cli_env(), cwd=ROOT, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tree_rss_kb(pid: int) -> int:
    """Summed resident memory of a process and all its descendants, from /proc."""
    total, todo = 0, [pid]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    todo += [int(c) for c in fh.read().split()]
        except OSError:  # the process ended while it was read
            continue
    return total


class TreeRssSampler(threading.Thread):
    """Reads tree_rss_kb of this process every SAMPLE_S seconds; keeps the peak."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self):
        while True:
            self.peak_kb = max(self.peak_kb, tree_rss_kb(os.getpid()))
            if self.done.wait(SAMPLE_S):
                return

    def stop(self) -> None:
        self.done.set()
        self.join()


def peak_rss_mb(sampled_kb: int) -> float:
    """Peak resident memory of the run, child processes included.

    The larger of the sampled peak of the whole process tree (the CLI and its
    pool workers together) and the exact peaks that the kernel kept for this
    process and for its largest waited-for child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child, sampled_kb) / 1024.0


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    p = int(100 * (1 - 10 / n)) if n else 0
    return p if p >= 50 else None


class Iteration:
    """One experiment: its wall time and the checks on its output."""

    def __init__(self, workload, call, digest_want: str | None):
        t0 = time.perf_counter()
        output = call()
        self.wall = time.perf_counter() - t0
        self.failures = workload.gate(output)
        self.useful = 0 if self.failures else workload.useful(output)
        self.bit_identical = (None if digest_want is None
                              else workload.digest(output) == digest_want)


def closed_loop(step, seconds: float) -> list:
    """Call step() back to back until the next call would end after `seconds`."""
    done, walls = [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done.append(step())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            return done


def layer_metrics(workload, summary: dict, it: Iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (see spans.Tracer.run_summary)."""
    calls, busy, own = summary["calls"], summary["busy_s"], summary["own_s"]
    counts, self_s = summary["counts"], summary["self_s"]

    def c(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    solves = c("fpp.passage_times") + c("fpp.dijkstra")
    return {
        "fpp.passage_calls": c("fpp.passage_times"),
        "fpp.passage_s": b("fpp.passage_times"),
        "fpp.passage_ms": 1000 * b("fpp.passage_times") / max(c("fpp.passage_times"), 1),
        "fpp.edges_scanned": counts.get("fpp.edges_scanned", 0),
        "fpp.dijkstra_calls": c("fpp.dijkstra"),
        "fpp.dijkstra_s": b("fpp.dijkstra"),
        "fpp.sample_calls": c("fpp.sample_configuration"),
        "fpp.sample_s": b("fpp.sample_configuration"),
        "fpp.self_s": self_s["fpp"],
        "lattice.window_builds": c("lattice.instantiate_window"),
        "lattice.window_vertices": counts.get("lattice.window_vertices", 0),
        "lattice.window_build_s": b("lattice.instantiate_window"),
        "lattice.edge_conn_calls": c("lattice.edge_connectivity_estimate"),
        "lattice.edge_conn_s": b("lattice.edge_connectivity_estimate"),
        "lattice.self_s": self_s["lattice"],
        "quotient.build_calls": c("quotient.build_quotient"),
        "quotient.build_s": b("quotient.build_quotient"),
        "quotient.self_s": self_s["quotient"],
        "estimate.self_s": self_s["estimate"],
        "estimate.enlargements": c("estimate.map_replicas") - workload.kept_batches,
        "estimate.useful_ratio": it.useful / solves if solves else 0.0,
        "estimate.replica_map_s": own.get("estimate.map_replicas", 0.0),
        "cli.run_s": b("cli.run_experiment"),
        "cli.svg_s": b("cli.render_shape_svg"),
        "cli.write_s": b("cli.write_artifacts"),
        "cli.self_s": self_s["cli"],
        "trace.wall_s": it.wall,
        "trace.remainder_s": it.wall - sum(self_s.values()),
        "trace.spans": summary["spans"],
    }


def run(workload_name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    workers = workloads.check_workers(wl.workers)
    s = workloads.base_seed(wl, seed)
    digest_want = (workloads.load_expected().get(wl.name, {})
                   .get("digests", {}).get(str(s)))
    setup_s = measure_setup(wl)
    wl.warm(trace)
    if not trace:
        sampler = TreeRssSampler()
        sampler.start()
        try:
            its = closed_loop(
                lambda: Iteration(wl, lambda: wl.run(s, workers), digest_want), seconds)
        finally:
            sampler.stop()
        metrics = {
            "wall_s": statistics.median(it.wall for it in its),
            "solves_per_s": statistics.median(it.useful / it.wall for it in its),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(sampler.peak_kb),
        }
        units = {k: v[0] for k, v in END_TO_END.items()}
    else:
        # each step runs the experiment untraced and traced, back to back, so
        # the pair shares the machine's state and their difference is the
        # tracing overhead.  Which half runs first alternates from pair to pair
        # and from seed to seed, so a drift of the machine's speed does not
        # always count for or against the tracer.
        tracer = spans.Tracer()

        def untraced():
            return Iteration(wl, lambda: wl.in_process_run(s), digest_want)

        def traced():
            with tracer.installed():
                return Iteration(wl, lambda: wl.in_process_run(s), digest_want)

        def pair():
            if (tracer.run_id + (seed or 0)) % 2:
                t = traced()
                u = untraced()
            else:
                u = untraced()
                t = traced()
            tracer.run_id += 1
            return u, t

        pairs = closed_loop(pair, seconds)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.save(workloads.OUT / f"{wl.name}-spans.npz")
        wrapper_cost = spans.wrapper_cost_s()
        per_run = [layer_metrics(wl, tracer.run_summary(i), t)
                   for i, (_, t) in enumerate(pairs)]
        for m, (u, t) in zip(per_run, pairs):
            m["trace.untraced_wall_s"] = u.wall
            m["trace.overhead_s"] = t.wall - u.wall
            m["trace.wrapper_s"] = m["trace.spans"] * wrapper_cost
        metrics = {k: statistics.median(m[k] for m in per_run) for k in PER_LAYER}
        its = [it for both in pairs for it in both]
        units = PER_LAYER
    failed = sum(1 for it in its if it.failures)
    walls = sorted(it.wall for it in its)
    p = tail_percentile(len(walls))
    identical = [it.bit_identical for it in its]
    lines = [
        f"workload={wl.name} base_seed={s} workers={workers} trace={int(trace)}"
        f" experiments={len(its)}",
        "experiment walls: " + " ".join(f"{it.wall:.3f}" for it in its) + " s",
        f"wall_s median={statistics.median(walls):.4f} s over {len(walls)} experiments;"
        + (f" p{p}={walls[math.ceil(len(walls) * p / 100) - 1]:.4f} s"  # nearest rank
           if p else " no percentile above the median has ten samples beyond it"),
        f"failed_fraction={failed / len(its):.4f} ({failed} of {len(its)})",
        "bit_identical_to_frozen_digest="
        + ("unknown" if None in identical else str(all(identical)).lower()),
    ]
    lines += [f"  gate failure: {f}" for it in its for f in it.failures]
    lines += [f"{k}={v:.6g} {units[k]}" for k, v in metrics.items()]
    print("\n".join(lines), flush=True)
    return {
        "correct": failed == 0,
        "attempted": len(its),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="benchmark seed; default: the workload's acceptance seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; whole experiments, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
