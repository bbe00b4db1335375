"""The benchmark's workloads: what each runs, how its output is checked.

Every workload is one experiment a user of `crystalfpp` runs, at the size of
its acceptance criterion.  A run repeats it in a closed loop (one experiment
at a time).  Each workload has a pool of base seeds, frozen in
`expected.json` by `freeze.py`: the first seeds from the acceptance seed whose
run at the frozen commit does the acceptance run's work (the same number of
window enlargements, hence the same number of shortest-path solves).  The
benchmark's `--seed n` picks `pool[n % len(pool)]`, so every seed gives a
different configuration stream but the same amount of work.
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def check_workers(workers: int) -> int:
    """Refuse a worker count the machine cannot run side by side."""
    cpus = usable_cpus()
    if not 1 <= workers <= cpus:
        raise ValueError(f"{workers} workers requested, but only {cpus} CPUs are usable")
    return workers


# ---------------------------------------------------------------------------
# in-process experiments on cubic2


@functools.cache
def _cubic2():
    """The lattice, realization and kernel, built once, outside the timed loop."""
    import crystalfpp.lattice as lattice
    from crystalfpp.quotient import KernelSublattice

    lat, real = lattice.build_preset("cubic2")
    return lat, real, KernelSublattice.of([(1, -1)], 2)


def _mono_run(prepared, seed, workers, k_max=32, replicas=120):
    import crystalfpp.estimate as estimate
    from crystalfpp.fpp import TimeDistribution

    lat, real, kernel = prepared
    return estimate.monotonicity_experiment(
        lat, real, kernel, TimeDistribution.exponential(1), [(2,)], k_max, replicas,
        seed, workers=workers)


def _mono_gate(report) -> list[str]:
    failures = [] if report.all_passed else ["monotonicity verdict is fail"]
    for e in report.entries:
        if abs(e.mu_quotient - 1.0) > 3 * e.se_quotient:
            failures.append(f"mu_quotient={e.mu_quotient!r} is more than 3 standard"
                            f" errors ({e.se_quotient!r}) from 1.0")
    return failures


def _mono_text(report) -> str:
    return "\n".join(
        f"{e.direction} {e.mu_quotient!r} {e.se_quotient!r} {e.mu_affine!r}"
        f" {e.se_affine!r} {e.slack!r} {e.fiber_size} {e.radius_cover}"
        for e in report.entries)


P_GRID = tuple(i / 10 for i in range(11))


def _positivity_run(prepared, seed, workers, p_grid=P_GRID, k_max=25, replicas=32):
    import crystalfpp.estimate as estimate

    lat, real, _ = prepared
    return estimate.positivity_scan(lat, real, list(p_grid), (1, 0), k_max, replicas,
                                    seed, workers=workers)


def _positivity_gate(report) -> list[str]:
    rows = {r.p: r for r in report.rows}
    failures = []
    if not (rows[0.0].mu == 1.0 and rows[0.0].std_error == 0.0):
        failures.append(f"mu(0)={rows[0.0].mu!r} se={rows[0.0].std_error!r}, want 1 and 0")
    if rows[1.0].mu != 0.0:
        failures.append(f"mu(1)={rows[1.0].mu!r}, want 0")
    if not rows[0.9].mu < 0.05:
        failures.append(f"mu(0.9)={rows[0.9].mu!r}, want < 0.05")
    if not report.nonincreasing_ok:
        failures.append("estimates are not nonincreasing in p")
    return failures


def _positivity_text(report) -> str:
    return "\n".join(f"{r.p!r} {r.mu!r} {r.std_error!r} {r.zero_flag}" for r in report.rows)


T_GRID = (0, 1, 2, 3)
# (t, P(T1 >= t), P(T >= t on every lift)) for T_GRID, frozen from the exact
# enumeration at the commit that defined this benchmark
LIFT_ROWS = [["0", "1", "1"], ["1", "1/4", "95/512"], ["2", "0", "0"], ["3", "0", "0"]]


def _lift_run(prepared, seed, workers, t_grid=T_GRID, r_quotient=5):
    import crystalfpp.estimate as estimate
    from crystalfpp.fpp import TimeDistribution

    # exhaustive mode enumerates every configuration: there is no seed to use
    lat, real, kernel = prepared
    return estimate.lifting_inequality_check(
        lat, real, kernel, TimeDistribution.bernoulli(0.5), (1,), list(t_grid),
        mode="exhaustive", r_quotient=r_quotient, r_cover=1, workers=workers)


def lift_rows(report) -> list[list[str]]:
    return [[str(Fraction(r.t)), str(r.lhs_exact), str(r.rhs_exact)] for r in report.rows]


def _lift_gate(report) -> list[str]:
    got = lift_rows(report)
    return [] if got == LIFT_ROWS else [f"exact tail rows {got} differ from {LIFT_ROWS}"]


def _lift_text(report) -> str:
    return json.dumps(lift_rows(report))


# ---------------------------------------------------------------------------
# the CLI, run as a user runs it


@dataclass
class CliRun:
    exit_code: int
    files: dict[str, bytes]

    def summary(self) -> dict[str, str]:
        lines = self.files.get("summary.txt", b"").decode().splitlines()
        return dict(line.split("=", 1) for line in lines if "=" in line
                    and not line.startswith("#"))


SHAPE_ARGS = ("shape", "--preset", "triangular", "--dist", "exponential:1",
              "--dirs", "16", "--k-max", "20", "--replicas", "40")
SHAPE_WARM_ARGS = SHAPE_ARGS[:-4] + ("--k-max", "2", "--replicas", "2")


def _cli_files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _clear(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for p in out_dir.iterdir():
        p.unlink()


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(args, seed: int, workers: int, out_dir: Path) -> CliRun:
    """`python -m crystalfpp.cli <args>` in a fresh interpreter."""
    _clear(out_dir)
    argv = [sys.executable, "-m", "crystalfpp.cli", *args, "--seed", str(seed),
            "--threads", str(workers), "--out", str(out_dir)]
    proc = subprocess.run(argv, env=cli_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=170)
    if proc.returncode == 1:
        sys.stderr.write(proc.stderr.decode())
    return CliRun(proc.returncode, _cli_files(out_dir))


def run_cli_in_process(args, seed: int, out_dir: Path) -> CliRun:
    """The same CLI entry point, serial and in this process, so it can be traced."""
    import crystalfpp.cli as cli

    _clear(out_dir)
    with redirect_stdout(io.StringIO()):
        code = cli.main([*args, "--seed", str(seed), "--threads", "1",
                         "--out", str(out_dir)])
    return CliRun(code, _cli_files(out_dir))


def _shape_gate(run: CliRun) -> list[str]:
    if run.exit_code != 0:
        return [f"exit code {run.exit_code}"]
    summary = run.summary()
    failures = []
    if summary.get("boundary_flags") != "0":
        failures.append(f"boundary_flags={summary.get('boundary_flags')}")
    mu = {}
    for key, value in summary.items():
        if key.startswith("mu["):
            m, se = value.split(" se=")
            mu[tuple(int(c) for c in key[3:-1].split(","))] = (float(m), float(se))
    if not mu:
        failures.append("no mu lines in summary.txt")
    for z, (m, se) in mu.items():
        opposite = tuple(-c for c in z)
        if opposite not in mu:
            failures.append(f"direction {z} has no antipodal estimate")
        elif abs(m - mu[opposite][0]) > 3 * math.hypot(se, mu[opposite][1]):
            failures.append(f"mu{z}={m!r} and mu{opposite}={mu[opposite][0]!r} differ by"
                            " more than 3 pooled standard errors")
    return failures


def _shape_text(run: CliRun) -> str:
    parts = []
    for name, data in sorted(run.files.items()):
        text = data.decode()
        if name == "summary.txt":  # the last line is the wall-clock timing
            text = "\n".join(line for line in text.splitlines()
                             if not line.startswith("# timing:"))
        parts.append(f"== {name}\n{text}")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `run(seed, workers)` is the timed experiment; `in_process_run(seed)` is the
    same experiment run serially in this process, where the tracer sees its
    calls; `warm(in_process)` runs a small version of it, the way `run` (False) or
`in_process_run` (True) does.  `useful(output)` counts the
    useful shortest-path solves: a replica kept in the final estimate, or one
    enumerated configuration.  `kept_batches` is the number of replica batches
    whose results the output keeps; batches beyond it were discarded by window
    enlargements.
    """

    name: str
    why: str
    acceptance_seed: int
    workers: int
    setup_code: str
    run: Callable
    in_process_run: Callable
    warm: Callable
    gate: Callable
    canonical_text: Callable
    useful: Callable
    kept_batches: int

    def digest(self, output) -> str:
        return hashlib.sha256(self.canonical_text(output).encode()).hexdigest()


def _in_process(name, why, seed, setup_code, run, gate, text, useful, kept, warm_kwargs):
    def timed(s, workers):
        return run(_cubic2(), s, workers)

    return Workload(
        name=name, why=why, acceptance_seed=seed, workers=1, setup_code=setup_code,
        run=timed, in_process_run=lambda s: timed(s, 1),
        warm=lambda in_process: run(_cubic2(), seed, 1, **warm_kwargs),
        gate=gate, canonical_text=text, useful=useful, kept_batches=kept)


_SETUP_QUOTIENT = ("import crystalfpp as cf\n"
                   "lat, real = cf.build_preset('cubic2')\n"
                   "cf.build_quotient(lat, real, cf.KernelSublattice.of([(1, -1)], 2))\n")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    _in_process(
        "mono-cover",
        "covering monotonicity at criterion-3 size: large-window Dijkstra and one"
        " enlargement that re-runs every cover replica",
        20240818, _SETUP_QUOTIENT, _mono_run, _mono_gate, _mono_text,
        lambda r: 2 * r.replicas * len(r.entries), 2, {"k_max": 4, "replicas": 2}),
    _in_process(
        "positivity-scan",
        "criterion-11 Bernoulli grid at seeds that, like the acceptance seed, need no"
        " enlargement (about 1 seed in 7): twelve window builds and zero-weight ties",
        20240821, "import crystalfpp as cf\ncf.build_preset('cubic2')\n",
        _positivity_run, _positivity_gate, _positivity_text,
        lambda r: 32 * len(r.rows), len(P_GRID),
        {"p_grid": (0.0, 0.5, 1.0), "k_max": 4, "replicas": 2}),
    _in_process(
        "lift-exhaustive",
        "exhaustive lifting check (criterion 4 at quotient radius 5): a million tiny"
        " Dijkstra calls and exact Fraction bookkeeping",
        0, _SETUP_QUOTIENT, _lift_run, _lift_gate, _lift_text,
        lambda r: r.config_count, 0, {"t_grid": (0, 1), "r_quotient": 1}),
    Workload(
        name="shape-cli",
        why="the real CLI on a degree-6 lattice: process pool, one enlargement,"
            " artifact writing and SVG",
        acceptance_seed=1, workers=min(2, usable_cpus()),
        setup_code="import crystalfpp.cli as cli\ncli.build_preset('triangular')\n",
        run=lambda s, w: run_cli_subprocess(SHAPE_ARGS, s, w, OUT / "shape-cli"),
        in_process_run=lambda s: run_cli_in_process(SHAPE_ARGS, s, OUT / "shape-cli"),
        warm=lambda in_process: (
            run_cli_in_process(SHAPE_WARM_ARGS, 1, OUT / "shape-cli-warm") if in_process
            else run_cli_subprocess(SHAPE_WARM_ARGS, 1, min(2, usable_cpus()),
                                    OUT / "shape-cli-warm")),
        gate=_shape_gate, canonical_text=_shape_text,
        useful=lambda r: int(r.summary()["replicas"]), kept_batches=1),
)}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def base_seed(workload: Workload, seed: int | None) -> int:
    """The experiment seed for a benchmark seed: an entry of the frozen pool."""
    pool = load_expected().get(workload.name, {}).get("pool") or [workload.acceptance_seed]
    return workload.acceptance_seed if seed is None else pool[seed % len(pool)]
