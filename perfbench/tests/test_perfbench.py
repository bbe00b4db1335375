"""Tests of the benchmark itself: tracing, correctness gates, names, worker limit,
memory."""
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

bench.import_program()

from crystalfpp.estimate import PositivityReport, PositivityRow  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in spans.WRAP_POINTS}


def _traced_small_lift():
    tracer = spans.Tracer()
    with tracer.installed():
        report = workloads._lift_run(workloads._cubic2(), 0, 1, t_grid=(0, 1),
                                     r_quotient=1)
    return tracer, report


def test_wrappers_are_removed_afterwards():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            during = _bindings()
            assert all(during[k] is not before[k] for k in before)
            raise RuntimeError("inside")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    _traced_small_lift()
    assert all(_bindings()[k] is before[k] for k in before)


def test_traced_self_times_add_up_to_the_root_span():
    tracer, report = _traced_small_lift()
    summary = tracer.run_summary(0)
    assert summary["calls"]["estimate.lifting_inequality_check"] == 1
    assert summary["calls"]["fpp.dijkstra"] == report.config_count
    assert summary["calls"]["quotient.build_quotient"] == 1
    assert sum(summary["self_s"].values()) == pytest.approx(summary["root_s"], rel=1e-9)
    it = SimpleNamespace(wall=summary["root_s"], useful=report.config_count)
    metrics = bench.layer_metrics(workloads.WORKLOADS["lift-exhaustive"], summary, it)
    assert metrics["estimate.useful_ratio"] == 1.0
    assert metrics["trace.remainder_s"] == pytest.approx(0.0, abs=1e-9)


def test_correct_results_pass_the_gates():
    W = workloads
    assert W._lift_gate(SimpleNamespace(rows=[
        SimpleNamespace(t=float(t), lhs_exact=lhs, rhs_exact=rhs)
        for t, lhs, rhs in W.LIFT_ROWS])) == []
    assert W._mono_gate(SimpleNamespace(all_passed=True, entries=[
        SimpleNamespace(mu_quotient=1.02, se_quotient=0.01)])) == []
    rows = (PositivityRow(0.0, 1.0, 0.0, False), PositivityRow(0.9, 0.01, 0.01, True),
            PositivityRow(1.0, 0.0, 0.0, True))
    assert W._positivity_gate(PositivityReport(rows, True, (0.9, 1.0), ())) == []
    summary = b"boundary_flags=0\nmu[1,0]=0.50 se=0.01\nmu[-1,0]=0.52 se=0.01\n"
    assert W._shape_gate(W.CliRun(0, {"summary.txt": summary})) == []


def test_wrong_results_trip_the_gates():
    W = workloads
    rows = [SimpleNamespace(t=float(t), lhs_exact=lhs, rhs_exact=rhs)
            for t, lhs, rhs in W.LIFT_ROWS]
    rows[1].rhs_exact = "95/511"
    assert W._lift_gate(SimpleNamespace(rows=rows))
    assert W._mono_gate(SimpleNamespace(all_passed=True, entries=[
        SimpleNamespace(mu_quotient=1.04, se_quotient=0.01)]))
    assert W._mono_gate(SimpleNamespace(all_passed=False, entries=[]))
    good = [PositivityRow(0.0, 1.0, 0.0, False), PositivityRow(0.9, 0.01, 0.01, True),
            PositivityRow(1.0, 0.0, 0.0, True)]
    for i, bad in ((0, PositivityRow(0.0, 0.99, 0.0, False)),
                   (1, PositivityRow(0.9, 0.06, 0.01, False)),
                   (2, PositivityRow(1.0, 0.001, 0.0, True))):
        rows = list(good)
        rows[i] = bad
        assert W._positivity_gate(PositivityReport(tuple(rows), True, (), ()))
    assert W._positivity_gate(PositivityReport(tuple(good), False, (), ()))
    for code, summary in (
            (0, b"boundary_flags=1\nmu[1,0]=0.50 se=0.01\nmu[-1,0]=0.50 se=0.01\n"),
            (0, b"boundary_flags=0\nmu[1,0]=0.50 se=0.01\nmu[-1,0]=0.60 se=0.01\n"),
            (0, b"boundary_flags=0\nmu[1,0]=0.50 se=0.01\n"),
            (2, b"boundary_flags=0\nmu[1,0]=0.50 se=0.01\nmu[-1,0]=0.50 se=0.01\n")):
        assert W._shape_gate(W.CliRun(code, {"summary.txt": summary}))


def test_metric_names_are_well_formed_and_match_the_manifest():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in manifest["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == bench.PER_LAYER
    tracer, report = _traced_small_lift()
    it = SimpleNamespace(wall=1.0, useful=report.config_count)
    emitted = set(bench.layer_metrics(workloads.WORKLOADS["lift-exhaustive"],
                                      tracer.run_summary(0), it))
    assert (emitted | {"trace.untraced_wall_s", "trace.overhead_s", "trace.wrapper_s"}
            == set(bench.PER_LAYER))


def test_refuses_more_workers_than_cpus(monkeypatch):
    cpus = workloads.usable_cpus()
    assert workloads.check_workers(cpus) == cpus
    for bad in (0, cpus + 1):
        with pytest.raises(ValueError, match="CPUs are usable"):
            workloads.check_workers(bad)
    greedy = dataclasses.replace(workloads.WORKLOADS["lift-exhaustive"], name="greedy",
                                 workers=cpus + 1)
    monkeypatch.setitem(workloads.WORKLOADS, "greedy", greedy)
    with pytest.raises(ValueError, match="CPUs are usable"):
        bench.run("greedy", None, 1.0, False)


def test_tree_memory_counts_child_processes():
    own = bench.tree_rss_kb(os.getpid())
    child = subprocess.Popen([sys.executable, "-c",
                              "import sys; b = bytearray(64 << 20);"
                              " print(flush=True); sys.stdin.read()"],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        child.stdout.readline()  # the child holds its 64 MB
        assert bench.tree_rss_kb(os.getpid()) > own + (64 << 10)
    finally:
        child.communicate("")
