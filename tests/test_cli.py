import csv
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crystalfpp
import crystalfpp.cli as cli_module
import crystalfpp.estimate as estimate_module
from crystalfpp.cli import (
    ConfigError,
    build_parser,
    config_schema,
    load_config,
    main,
    render_shape_svg,
    run_experiment,
)
from crystalfpp.estimate import EstimatorError, estimate_shape, estimate_time_constant
from crystalfpp.fpp import DistributionError, MomentConditionError, TimeDistribution
from crystalfpp.graph_core import GraphError
from crystalfpp.lattice import (LatticeError, WindowLimitError, build_preset, lattice_from_text,
                                lattice_to_text)


def run_cli(args):
    return main(args)


# a child interpreter that imports crystalfpp from the same place as this one
PACKAGE_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(crystalfpp.__file__)), os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_no_scipy_or_networkx():
    # scipy.sparse.csgraph alone raises a run's peak RSS by about 26 MB
    code = ("import sys, crystalfpp.cli; print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'networkx'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=PACKAGE_ENV, check=True)
    assert proc.stdout.strip() == "[]"


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_max": 5, "bogus": 1}))
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert "bogus" in str(err.value)

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_max": 5, "replicas": 7}))
        cfg = load_config(str(path), {"k_max": 9, "replicas": None})
        assert cfg["k_max"] == 9
        assert cfg["replicas"] == 7

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert "line 2" in str(err.value)

    def test_every_flag_is_a_schema_key(self):
        keys = set(config_schema()["properties"])
        sub = next(a for a in build_parser()._actions if a.dest == "experiment")
        assert "experiment" in keys
        for name, parser in sub.choices.items():
            dests = {a.dest for a in parser._actions} - {"help", "config"}
            assert dests <= keys, (name, dests - keys)

    @pytest.mark.parametrize("flags,message", [
        ({"threads": 0}, "threads must be at least 1"),
        ({"max_coord": 0}, "max_coord must be at least 1"),
        ({"slack_std_errors": -1.0}, "slack_std_errors must be at least 0"),
        ({"mode": "sampled"}, "mode must be one of"),
        ({"max_coord": 17}, "max_coord must be at most 16"),
        ({"n_dirs": 361}, "n_dirs must be at most 360"),
    ])
    def test_flag_values_meet_the_schema(self, flags, message):
        with pytest.raises(ConfigError) as err:
            load_config(None, flags)
        assert message in str(err.value)

    def test_caps_are_allowed(self):
        config = load_config(None, {"max_coord": 16, "n_dirs": 360})
        assert (config["max_coord"], config["n_dirs"]) == (16, 360)

    def test_integers_too_large_for_a_float_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base_seed": 10 ** 400}))
        assert load_config(str(path), {})["base_seed"] == 10 ** 400

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "frobnicate"})

    @pytest.mark.parametrize("change", [
        {"max_coord": 100000}, {"k_max": 2.7}, {"threads": 0},
        {"slack_std_errors": math.nan}, {"bogus": 1}],
        ids=["max-coord-huge", "k-max-fraction", "threads-zero", "slack-nan", "unknown-key"])
    def test_run_experiment_meets_the_schema(self, change):
        # in a child process with a timeout: an unchecked max_coord 100000 loops
        # over (2 max_coord + 1)^2 direction candidates for hours
        config = {"experiment": "shape", "preset": "cubic2", "distribution": "exponential:1",
                  "k_max": 2, "replicas": 2, "n_dirs": 4, "threads": 1, **change}
        code = ("import json, sys\nfrom crystalfpp.cli import ConfigError, run_experiment\n"
                "try:\n    run_experiment(json.loads(sys.argv[1]))\n"
                "except ConfigError:\n    print('ConfigError')")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(config)],
                              capture_output=True, text=True, timeout=5, env=PACKAGE_ENV)
        assert proc.stdout == "ConfigError\n" and proc.stderr == ""

    def test_run_experiment_fills_in_the_schema_defaults(self):
        # k_max, base_seed and the rest are left out and take their schema defaults
        result = run_experiment({"experiment": "mu", "preset": "cubic2", "direction": "1,0",
                                 "distribution": "exponential:1", "replicas": 2, "threads": 1})
        assert result.exit_code == 0
        assert "base_seed=1" in result.summary
        assert '"k_max": 20' in next(line for line in result.summary
                                     if line.startswith("config="))


class TestExitCodes:
    def test_shape_ok(self, tmp_path):
        code = run_cli(["shape", "--preset", "cubic2", "--dist", "deterministic:1",
                        "--dirs", "8", "--k-max", "6", "--replicas", "2",
                        "--seed", "1", "--out", str(tmp_path / "o"), "--threads", "1"])
        assert code == 0
        assert (tmp_path / "o" / "summary.txt").exists()
        assert (tmp_path / "o" / "detail.csv").exists()
        assert (tmp_path / "o" / "shape.svg").exists()

    def test_torsion_kernel_exits_one_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = run_cli(["quotient", "--preset", "cubic2", "--kernel", "2,0",
                        "--out", str(out), "--threads", "1"])
        assert code == 1
        assert "invariant factors (2,)" in capsys.readouterr().err
        assert not out.exists()

    def test_moment_refusal_exits_one_with_witness(self, tmp_path, capsys):
        out = tmp_path / "heavy"
        code = run_cli(["mu", "--preset", "cubic2", "--dist", "pareto:0.4,1",
                        "--direction", "1,0", "--k-max", "4", "--replicas", "2",
                        "--out", str(out), "--threads", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "pareto" in err and "1.6" in err
        assert not out.exists()

    def test_monotonicity_pass_verdict(self, tmp_path):
        out = tmp_path / "mono"
        code = run_cli(["monotonicity", "--preset", "cubic2", "--kernel", "1,-1",
                        "--dist", "deterministic:1", "--direction", "2",
                        "--k-max", "6", "--replicas", "2", "--seed", "3",
                        "--out", str(out), "--threads", "1"])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "verdict=pass" in summary

    @pytest.mark.parametrize("spec", ["exponential:nan", "deterministic:inf",
                                      "exponential:", "uniform:0,inf"])
    def test_bad_distribution_spec_exits_one_without_artifacts(self, tmp_path, capsys,
                                                                spec):
        out = tmp_path / "bad"
        code = run_cli(["mu", "--preset", "cubic2", "--dist", spec, "--direction", "1,0",
                        "--k-max", "2", "--replicas", "2", "--out", str(out),
                        "--threads", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    LATTICE_WITHOUT_POSITION_FIELDS = (
        "crystal-lattice 1\ndim 1\nvertices 1\nvertex 0\nhalfedges 2\n"
        "halfedge 0 0 0 1 1\nhalfedge 1 0 0 0 -1\nposition\nperiod 1.0\n")
    LATTICE_WITHOUT_VOLTAGE = (
        "crystal-lattice 1\ndim 1\nvertices 1\nvertex 0\nhalfedges 2\n"
        "halfedge 0 0 0 1\nhalfedge 1 0 0 0 -1\nposition 0 0.0\nperiod 1.0\n")
    LINE_LATTICE = ("crystal-lattice 1\ndim 1\nvertices 1\nvertex 0\nhalfedges 2\n"
                    "halfedge 0 0 0 1 1\nhalfedge 1 0 0 0 -1\nposition 0 0.0\nperiod 1.0\n")
    # a step of 1 needs the vertex at 101, outside every window a run may build
    LOOPS_LATTICE = LINE_LATTICE.replace("halfedges 2\nhalfedge 0 0 0 1 1\nhalfedge 1 0 0 0 -1",
                                         "halfedges 4\nhalfedge 0 0 0 1 100\n"
                                         "halfedge 1 0 0 0 -100\nhalfedge 2 0 0 3 101\n"
                                         "halfedge 3 0 0 2 -101")
    HONEYCOMB_WITHOUT_POSITION_1 = "".join(
        line for line in lattice_to_text(*build_preset("honeycomb")).splitlines(True)
        if not line.startswith("position 1 "))
    # both base vertices at the origin: build_custom's injectivity probe refuses it
    HONEYCOMB_DEGENERATE = lattice_to_text(*build_preset("honeycomb")).replace(
        "position 1 1.0 0.0", "position 1 0.0 0.0")

    @staticmethod
    def shape_csv(time: str) -> str:
        return ('dir_index,direction,replica,normalized_time\n0,"1,0",0,1.0\n'
                f'1,"0,1",0,{time}\n2,"-1,0",0,1.0\n')

    @pytest.mark.parametrize("argv,files", [
        (["lattice", "--lattice-file", "{tmp}/missing.txt"], {}),
        (["mu", "--preset", "cubic2", "--config", "{tmp}/missing.json"], {}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/missing.csv"], {}),
        (["lattice", "--lattice-file", "{tmp}/lat.txt"],
         {"lat.txt": LATTICE_WITHOUT_POSITION_FIELDS}),
        (["mu", "--config", "{tmp}/c.json"],
         {"c.json": {"distribution": {"family": "exponential", "rat": 1}}}),
        (["mu", "--config", "{tmp}/c.json"],
         {"c.json": {"distribution": {"family": "exponential"}}}),
        (["mu", "--config", "{tmp}/c.json"], {"c.json": {"distribution": {"family": "label"}}}),
        (["mu", "--config", "{tmp}/c.json"], {"c.json": {"distribution": 5}}),
        (["mu", "--config", "{tmp}/c.json"], {"c.json": {"direction": 5}}),
        (["mu", "--config", "{tmp}/c.json"], {"c.json": {"directions": 5}}),
        (["quotient", "--config", "{tmp}/c.json"], {"c.json": {"kernel": 5}}),
        (["positivity", "--config", "{tmp}/c.json"], {"c.json": {"p_grid": 5}}),
        (["lift-check", "--preset", "cubic2", "--kernel", "1,-1", "--dist", "bernoulli:0.5",
          "--target-index", "1,0"], {}),
        (["mu", "--config", "{tmp}/c.json"], {"c.json": {"k_max": None}}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": "dir_index,direction,replica,time\n0,1;0\n"}),
        (["lattice", "--lattice-file", "{tmp}/lat.txt"], {"lat.txt": LATTICE_WITHOUT_VOLTAGE}),
        (["lift-check", "--preset", "cubic2", "--kernel", "1,-1", "--dist", "bernoulli:0.5",
          "--target-index", "1", "--t-grid", "inf"], {}),
        (["mu", "--preset", "cubic2", "--dist", "exponential:1", "--direction", "1/0,1"], {}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": 'dir_index,direction,replica,normalized_time\n0,"0,0",0,1.0\n'}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": 'dir_index,direction,replica,normalized_time\n0,"1,0,0",0,1.0\n'}),
        (["positivity", "--preset", "cubic2", "--direction", "1,0", "--p-grid", "0.5",
          "--slack", "nan"], {}),
        (["positivity", "--config", "{tmp}/c.json", "--p-grid", "0.5"],
         {"c.json": {"slack_std_errors": float("nan")}}),
        (["mu", "--config", "{tmp}/c.json"], {"c.json": {"threads": 0}}),
        (["shape", "--preset", "cubic2", "--dist", "exponential:1", "--max-coord", "0"], {}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": shape_csv("nan")}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": shape_csv("inf")}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": shape_csv("-1.0")}),
        (["lift-check", "--config", "{tmp}/c.json"],
         {"c.json": {"kernel": "1,-1", "distribution": "bernoulli:0.5", "target_index": [1.5]}}),
        (["lift-check", "--config", "{tmp}/c.json"],
         {"c.json": {"kernel": "1,-1", "distribution": "bernoulli:0.5", "target_index": 1}}),
        (["lattice", "--lattice-file", "{tmp}/lat.txt"],
         {"lat.txt": HONEYCOMB_WITHOUT_POSITION_1}),
        (["quotient", "--config", "{tmp}/c.json"], {"c.json": {"kernel": [[1.5, -1]]}}),
        (["lattice", "--lattice-file", "{tmp}/lat.txt"],
         {"lat.txt": LINE_LATTICE.replace("vertices 1", "vertices")}),
        (["lattice", "--lattice-file", "{tmp}/lat.txt"],
         {"lat.txt": LINE_LATTICE.replace("position 0 0.0", "position 0 nan")}),
        (["positivity", "--config", "{tmp}/c.json"], {"c.json": {"p_grid": [10 ** 400]}}),
        (["mu", "--config", "{tmp}/c.json"],
         {"c.json": {"distribution": {"family": "exponential", "rate": 10 ** 400}}}),
        (["mu", "--preset", "cubic2", "--dist", "exponential:1",
          "--direction", "1e10000000,0"], {}),
        (["mu", "--config", "{tmp}/c.json"], {"c.json": {"direction": [10 ** 400, 0]}}),
        (["quotient", "--preset", "cubic2", "--kernel", "0,0"], {}),
        (["quotient", "--preset", "cubic2", "--kernel", "1,0,0"], {}),
        (["quotient", "--preset", "cubic2", "--kernel", f"{10 ** 30},0;{-2 * 10 ** 30},0"], {}),
        (["quotient", "--preset", "cubic2", "--kernel", f"{10 ** 30},0"], {}),
        (["quotient", "--preset", "cubic3", "--kernel", f"{10 ** 30},1,0"], {}),
        (["quotient", "--preset", "cubic2", "--kernel", f"{10 ** 8},1"], {}),
        (["positivity", "--config", "{tmp}/c.json"], {"c.json": {"p_grid": [True]}}),
        (["positivity", "--config", "{tmp}/c.json"], {"c.json": {"p_grid": ["0.5"]}}),
        (["lift-check", "--config", "{tmp}/c.json"],
         {"c.json": {"kernel": "1,-1", "distribution": "bernoulli:0.5", "target_index": "1",
                     "t_grid": [0.0, False]}}),
        (["mu", "--config", "{tmp}/c.json"],
         {"c.json": {"distribution": {"family": "bernoulli", "p": True}}}),
        (["mu", "--config", "{tmp}/c.json"],
         {"c.json": {"distribution": {"family": "exponential", "rate": "1"}}}),
        (["positivity", "--preset", "cubic2", "--direction", "1,0", "--p-grid", ","], {}),
        (["lift-check", "--preset", "cubic2", "--kernel", "1,-1", "--dist", "bernoulli:0.5",
          "--target-index", "1", "--mode", "exhaustive", "--t-grid", ","], {}),
        (["positivity", "--config", "{tmp}/c.json"], {"c.json": {"p_grid": []}}),
        (["lift-check", "--config", "{tmp}/c.json"],
         {"c.json": {"kernel": "1,-1", "distribution": "bernoulli:0.5", "target_index": "1",
                     "t_grid": []}}),
        (["quotient", "--config", "{tmp}/c.json"], {"c.json": {"kernel": "1,-1",
                                                              "tolerance": -1}}),
        (["mu", "--config", "{tmp}/c.json"], {"c.json": {"threads": 257}}),
        (["mu", "--preset", "cubic2", "--dist", "exponential:1", "--direction", "1,0",
          "--seed", "-1"], {}),
        (["lattice", "--lattice-file", "{tmp}/lat.txt"], {"lat.txt": HONEYCOMB_DEGENERATE}),
        (["lattice", "--lattice-file", "{tmp}/lat.txt"],
         {"lat.txt": "crystal-lattice 1\ndim 1\nvertices 0\nhalfedges 0\nperiod 1.0\n"}),
        (["positivity", "--preset", "cubic2", "--direction", "1,0", "--p-grid", "0.5,abc"], {}),
        (["lift-check", "--preset", "cubic2", "--kernel", "1,-1", "--dist", "bernoulli:0.5",
          "--target-index", "1", "--t-grid", "0,x"], {}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": 'dir_index,direction,replica,normalized_time\nx,"1,0",0,1.0\n'}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": 'dir_index,direction,replica,normalized_time\n0,"1,0",0,1.0\n'
                   '0,"0,1",1,1.0\n'}),
        (["render", "--preset", "cubic2", "--input-csv", "{tmp}/s.csv"],
         {"s.csv": 'dir_index,direction,replica,normalized_time\n0,"1,0",0,1.0\n'
                   '1,"1,0",0,1.0\n'}),
        (["monotonicity", "--preset", "cubic2", "--kernel", "1,-1", "--dist", "exponential:1",
          "--direction", "1,0"], {}),
        (["lift-check", "--preset", "cubic3", "--kernel", "1,1,1", "--dist", "bernoulli:0.5",
          "--target-index", "1"], {}),
        (["mu", "--preset", "cubic2", "--dist", "exponential:1", "--direction", "1,0,0"], {}),
        (["positivity", "--preset", "cubic2", "--direction", "1"], {}),
        (["mu", "--lattice-file", "{tmp}/lat.txt", "--direction", "1",
          "--dist", "exponential:1"], {"lat.txt": LOOPS_LATTICE}),
        (["mu", "--preset", "cubic2", "--direction", "1,0", "--dist", "deterministic:1e308"], {}),
        (["mu", "--preset", "cubic2", "--direction", "1,0", "--dist", "uniform:0,1e308"], {}),
        (["mu", "--preset", "cubic2", "--direction", "1,0", "--dist", "pareto:1e308,1e308"],
         {}),
        (["shape", "--preset", "cubic2", "--dirs", "8", "--dist", "uniform:0,1e308"], {}),
    ], ids=["missing-lattice-file", "missing-config", "missing-input-csv", "bare-position",
            "dist-unknown-param", "dist-missing-param", "dist-not-a-family", "dist-number",
            "direction-number", "directions-number", "kernel-number", "grid-number",
            "target-wrong-dim", "null-k-max", "short-render-row", "halfedge-without-voltage",
            "t-grid-inf", "direction-zero-denominator", "render-zero-direction",
            "render-long-direction", "slack-nan", "slack-nan-config", "threads-zero",
            "max-coord-zero", "render-nan-time", "render-inf-time", "render-negative-time",
            "target-index-fraction", "target-index-number", "lattice-missing-position",
            "kernel-fraction", "vertices-without-count", "lattice-nan-position",
            "grid-huge-integer", "dist-huge-integer", "direction-huge-exponent",
            "direction-huge-integer", "kernel-zero-column", "kernel-wrong-length",
            "kernel-huge-dependent", "kernel-huge-torsion", "kernel-huge-entry",
            "kernel-singular-quotient-period", "grid-boolean", "grid-string",
            "t-grid-boolean", "dist-boolean-param", "dist-string-param", "p-grid-empty",
            "t-grid-empty", "p-grid-empty-list", "t-grid-empty-list", "tolerance-negative",
            "threads-huge", "seed-negative", "degenerate-lattice-file",
            "lattice-without-vertices", "p-grid-word", "t-grid-word", "render-word-dir-index",
            "render-index-two-directions", "render-direction-two-indices",
            "monotonicity-cover-direction", "target-short", "mu-direction-long",
            "positivity-direction-short", "target-out-of-every-window",
            "deterministic-overflow", "uniform-overflow", "pareto-overflow",
            "shape-overflow"])
    def test_malformed_input_exits_one_without_artifacts(self, tmp_path, capsys, request,
                                                         argv, files):
        for name, content in files.items():
            if name.endswith(".json"):
                content = json.dumps({"preset": "cubic2", "direction": "1,0",
                                      "distribution": "exponential:1", **content})
            (tmp_path / name).write_text(content)
        out = tmp_path / "bad"
        code = run_cli([a.format(tmp=tmp_path) for a in argv]
                       + ["--k-max", "2", "--replicas", "2", "--out", str(out), "--threads", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert self.NAMED_SOURCE.get(request.node.callspec.id, "") in captured.err
        assert not out.exists()

    # cases whose error line must name the input at fault, not only quote a value
    NAMED_SOURCE = {"p-grid-word": "grid must be", "t-grid-word": "grid must be",
                    "render-word-dir-index": "s.csv: line 2: dir_index 'x'",
                    "render-index-two-directions":
                        "s.csv: line 3: dir_index 0 already has direction '1,0'",
                    "render-direction-two-indices":
                        "s.csv: line 3: direction '1,0' already has dir_index 0",
                    "monotonicity-cover-direction":
                        "direction '1,0' has length 2, the quotient dimension is 1",
                    "target-wrong-dim":
                        "target_index '1,0' has length 2, the quotient dimension is 1",
                    "target-short":
                        "target_index '1' has length 1, the quotient dimension is 2",
                    "mu-direction-long":
                        "direction '1,0,0' has length 3, the lattice dimension is 2",
                    "positivity-direction-short":
                        "direction '1' has length 1, the lattice dimension is 2",
                    "target-out-of-every-window":
                        "boundary flags persisted after 4 window enlargements",
                    "deterministic-overflow": "under deterministic:1e+308 overflow float64",
                    "uniform-overflow": "under uniform:0.0,1e+308 overflow float64",
                    "pareto-overflow": "under pareto:1e+308,1e+308 overflow float64",
                    "shape-overflow": "under uniform:0.0,1e+308 overflow float64"}

    @pytest.mark.parametrize("flag", ["--max-coord", "--dirs"])
    def test_huge_direction_grid_exits_one_at_once(self, tmp_path, flag):
        # the direction grid loops over (2 max_coord + 1)^2 candidates, so an
        # unchecked --max-coord 100000 would run for hours instead of failing
        out = tmp_path / "bad"
        proc = subprocess.run(
            [sys.executable, "-m", "crystalfpp.cli", "shape", "--preset", "cubic2",
             "--dist", "exponential:1", "--k-max", "2", "--replicas", "2", flag, "100000",
             "--out", str(out), "--threads", "1"],
            capture_output=True, text=True, timeout=5, env=PACKAGE_ENV)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_fail_verdict_exits_two(self):
        # a p grid that runs from the all-zero law (mu = 0) to the all-one law
        # (mu = 1, no spread) forces the fail-verdict path deterministically
        result = run_experiment({
            "experiment": "positivity", "preset": "cubic2", "direction": "1,0",
            "p_grid": [1.0, 0.0], "k_max": 2, "replicas": 2, "threads": 1,
            "base_seed": 1, "out_dir": "unused",
        })
        assert result.exit_code == 2
        assert any("verdict=fail" in line for line in result.summary)


class TestReproducibility:
    def test_identical_config_gives_byte_identical_csv(self, tmp_path):
        args = ["mu", "--preset", "cubic2", "--dist", "exponential:1",
                "--direction", "1,0", "--k-max", "5", "--replicas", "6",
                "--seed", "11", "--threads", "1"]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        csv_a = (tmp_path / "a" / "detail.csv").read_bytes()
        csv_b = (tmp_path / "b" / "detail.csv").read_bytes()
        assert csv_a == csv_b

    def test_mu_writes_the_per_k_trace(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"directions": ["1,0", "1/2,1"]}))
        out = tmp_path / "mu"
        assert run_cli(["mu", "--config", str(config), "--preset", "cubic2",
                        "--dist", "exponential:1", "--k-max", "3", "--replicas", "4",
                        "--seed", "5", "--out", str(out), "--threads", "1"]) == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["direction", "k", "mean_normalized_time"]
        assert [(tag, k) for tag, k, _ in rows[1:]] == [
            (tag, str(k)) for tag in ("1,0", "1/2,1") for k in (1, 2, 3)]
        summary = dict(line.split("=", 1) for line in
                       (out / "summary.txt").read_text().splitlines()[:-1])
        for tag, k, value in rows[1:]:
            assert float(value) > 0
            if k == "3":
                assert float(value) == pytest.approx(float(summary[f"mu[{tag}]"]),
                                                     rel=1e-12, abs=0)

    def test_summary_differs_only_in_timing_line(self, tmp_path):
        args = ["shape", "--preset", "cubic2", "--dist", "exponential:1",
                "--dirs", "8", "--k-max", "5", "--replicas", "4",
                "--seed", "2", "--threads", "1"]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        lines_a = (tmp_path / "a" / "summary.txt").read_text().splitlines()
        lines_b = (tmp_path / "b" / "summary.txt").read_text().splitlines()
        assert len(lines_a) == len(lines_b)
        diff = [i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y]
        assert all(lines_a[i].startswith("# timing:") for i in diff)

    def test_threads_do_not_change_results(self, tmp_path):
        for base in (["mu", "--preset", "cubic2", "--dist", "exponential:1",
                      "--direction", "1,0", "--k-max", "5", "--replicas", "8"],
                     ["shape", "--preset", "triangular", "--dist", "exponential:1",
                      "--dirs", "8", "--k-max", "4", "--replicas", "8"],
                     ["positivity", "--preset", "cubic2", "--p-grid", "0.3,0.5,0.7",
                      "--direction", "1,0", "--k-max", "5", "--replicas", "8"]):
            runs = [tmp_path / f"{base[0]}-{threads}" for threads in (1, 2)]
            for threads, out in zip((1, 2), runs):
                assert run_cli(base + ["--seed", "4", "--threads", str(threads),
                                       "--out", str(out)]) in (0, 2)
            serial, pooled = runs
            assert (serial / "detail.csv").read_bytes() == (pooled / "detail.csv").read_bytes()
            summaries = [[line for line in (out / "summary.txt").read_text().splitlines()
                          if not line.startswith("# timing:")] for out in runs]
            assert summaries[0] == summaries[1]
        assert not multiprocessing.active_children()

    def test_threads_default_to_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli_module._threads({}) == 1
        assert cli_module._threads({"threads": 5}) == 5
        # a run pinned to one CPU forks no pool at all
        workers = []
        original = estimate_module._map_replicas
        monkeypatch.setattr(estimate_module, "_map_replicas",
                            lambda fn, ctx, indices, n: workers.append(n)
                            or original(fn, ctx, indices, n))
        result = run_experiment({"experiment": "mu", "preset": "cubic2", "direction": "1,0",
                                 "distribution": "exponential:1", "k_max": 3,
                                 "replicas": 8})
        assert result.exit_code == 0 and workers and set(workers) == {1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
        assert cli_module._threads({}) == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli_module._threads({}) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli_module._threads({}) == 1


# seeded runs of every subcommand, each with the sha256 of its artifacts as
# frozen_digest computes it; "render" renders the "shape" run's detail.csv
GOLDEN_RUNS = {
    "lattice-cubic1": ["lattice", "--preset", "cubic1", "--radius", "3"],
    "lattice-cubic2": ["lattice", "--preset", "cubic2", "--radius", "2"],
    "lattice-cubic3": ["lattice", "--preset", "cubic3", "--radius", "1"],
    "lattice-triangular": ["lattice", "--preset", "triangular", "--radius", "2"],
    "lattice-honeycomb": ["lattice", "--preset", "honeycomb", "--radius", "2"],
    "lattice-diamond": ["lattice", "--preset", "diamond", "--radius", "1"],
    "quotient": ["quotient", "--preset", "cubic3", "--kernel", "1,1,1", "--radius", "2"],
    "mu-three-directions": ["mu", "--config", "dirs.json", "--preset", "triangular",
                            "--dist", "exponential:1", "--k-max", "6", "--replicas", "6",
                            "--seed", "11"],
    "mu-pareto": ["mu", "--preset", "cubic2", "--dist", "pareto:0.6", "--direction", "1,0",
                  "--k-max", "6", "--replicas", "6", "--seed", "7"],
    "shape": ["shape", "--preset", "honeycomb", "--dist", "exponential:1", "--dirs", "8",
              "--k-max", "4", "--replicas", "4", "--seed", "2"],
    "monotonicity": ["monotonicity", "--preset", "cubic2", "--kernel", "1,-1",
                     "--dist", "exponential:1", "--direction", "2", "--k-max", "4",
                     "--replicas", "8", "--seed", "3"],
    "lift-exhaustive": ["lift-check", "--preset", "cubic2", "--kernel", "1,-1",
                        "--dist", "bernoulli:0.5", "--target-index", "1", "--t-grid", "0,1,2",
                        "--mode", "exhaustive"],
    "lift-monte-carlo": ["lift-check", "--preset", "cubic2", "--kernel", "1,-1",
                         "--dist", "exponential:1", "--target-index", "1",
                         "--t-grid", "0,0.5,1,2", "--mode", "monte_carlo", "--replicas", "24",
                         "--seed", "5"],
    "positivity": ["positivity", "--preset", "cubic2", "--direction", "1,0",
                   "--p-grid", "0,0.3,0.45,0.6,1", "--k-max", "5", "--replicas", "6",
                   "--seed", "3"],
    "render": ["render", "--preset", "honeycomb", "--input-csv", "shape/detail.csv"],
    "quotient-without-kernel": ["quotient", "--preset", "cubic2"],
    "mu-without-direction": ["mu", "--preset", "cubic2", "--dist", "exponential:1"],
}
GOLDEN_DIGESTS = {
    "lattice-cubic1": "f07eed201395745365f01c3c6cfd90f35f6c428ac0a10e6be6aa7e80ecce43c1",
    "lattice-cubic2": "ad3262281ecd232a6acced233b98db55b64671140861b2c3987f41b36298e1e0",
    "lattice-cubic3": "d150ed74559289f33a413bed4c4b2eb572b946d75b2a6ae302d26889132986cd",
    "lattice-triangular": "fcf39313600eefa67db0c318854e24eb1d9bf7745d23ec39d0798fdd77a0abb3",
    "lattice-honeycomb": "ebb4624370329170162174ab0a530173d2d2729e84829796dda94ea659396fd3",
    "lattice-diamond": "0174017ce2a546c833b015e32ac2dfd1ad1717cc23e71cae85c33d15ecf2982a",
    "quotient": "94d665c755090c99d55a0aec498b03c2c3ca85e2cea2062733e2f7c7f89af4fb",
    "mu-three-directions": "f0e9d09da96e56d2d1346f3a9fa0df547da5a86b7e158b39bfd21bd44f799984",
    "mu-pareto": "6babd71b2ab929580d7d9298dddb67a09607009960cfcb681fbc7410f4c4673a",
    "shape": "5dd8e5c4e95d239c7118444206b9f678021529e1e9c737bca82346aedd20711e",
    "monotonicity": "cdd65b7e827ee0b6b9ebe29626de7de4b1a2b2627475456fa1d3e1f6d10044c1",
    "lift-exhaustive": "e5b7d037a01e656dfa4b16710eeeacd62cfc6d612d9bc2801d7980af15c125ec",
    "lift-monte-carlo": "a00bbe160a0dff153f60cc334679bd3913e820fcf760e120932a2f4ef9090ae7",
    "positivity": "ffbd6e743bca50f0525ee22167315e8830a2feffa80168879c6d5ec394f4995c",
    "render": "996ed060839ad8b4911197b8254946240f439473d32652474e661e4dc0f2a695",
    "quotient-without-kernel": "9aebdda1f12cf25055afd2e878eb2f90e8142d6adf67e53ef66d2bf94103a9b4",
    "mu-without-direction": "b768624574097b9b6a6bfb3e87b0ef744034dfd5f47566927683f1f83a7623be",
}
# summary lines that change with the time or the installed versions, not the run
UNFROZEN_SUMMARY_LINES = (b"# timing:", b"crystalfpp_version=", b"numpy_version=")


def frozen_digest(code: int, err: str, out) -> str:
    """sha256 over the exit code, the error text and every artifact, the
    summary without its unfrozen lines."""
    h = hashlib.sha256(f"exit={code}\n{err}".encode())
    for path in sorted(out.iterdir()) if out.exists() else []:
        data = path.read_bytes()
        if path.name == "summary.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(UNFROZEN_SUMMARY_LINES))
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


class TestGoldenDigests:
    """Byte identity of every subcommand's seeded artifacts across refactors.

    Paths are relative, so the config line each summary echoes does not
    depend on where the test runs."""

    @pytest.mark.parametrize("name", GOLDEN_RUNS)
    def test_artifacts_match_the_frozen_digest(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dirs.json").write_text(json.dumps({"directions": ["1,0", "0,1", "2,1"]}))
        if name == "render":
            assert run_cli(GOLDEN_RUNS["shape"] + ["--out", "shape", "--threads", "1"]) == 0
            capsys.readouterr()
        code = run_cli(GOLDEN_RUNS[name] + ["--out", "out", "--threads", "1"])
        assert frozen_digest(code, capsys.readouterr().err, tmp_path / "out") \
            == GOLDEN_DIGESTS[name]


class TestWindowAccounting:
    @pytest.mark.parametrize("experiment,extra,estimates", [
        ("mu", {"directions": ["1,0", "1,1"]}, ["mu[1,0]", "mu[1,1]"]),
        ("shape", {"n_dirs": 8}, ["shape"]),
        ("monotonicity", {"kernel": "1,-1", "direction": "2"},
         ["mu_quotient[2]", "mu_affine[2]"]),
    ])
    def test_windows_csv_counts_every_replica_once(self, monkeypatch, experiment, extra,
                                                   estimates):
        # no slack layers and no fiber halo: first windows too small for some replicas
        monkeypatch.setattr(estimate_module, "SLACK_LAYERS", 0)
        monkeypatch.setattr(estimate_module, "FIBER_HALO", 0)
        result = run_experiment({
            "experiment": experiment, "preset": "cubic2", "distribution": "exponential:1",
            "k_max": 4, "replicas": 12, "base_seed": 3, "threads": 1, "max_coord": 2,
            "zero_threshold": 0.02, "slack_std_errors": 3.0, **extra})
        rows = list(csv.reader(result.extra_files["windows.csv"].splitlines()))
        assert rows[0] == ["estimate", "radius", "replicas"]
        assert [name for name, _, _ in rows[1:]] == sorted(
            (name for name, _, _ in rows[1:]), key=estimates.index)
        summary = dict(line.split("=", 1) for line in result.summary)
        used = {"mu[1,0]": summary.get("radius_used[1,0]"),
                "mu[1,1]": summary.get("radius_used[1,1]"),
                "shape": summary.get("radius_used")}
        for name in estimates:
            radii = [int(r) for e, r, _ in rows[1:] if e == name]
            assert radii == sorted(set(radii))
            assert sum(int(n) for e, _, n in rows[1:] if e == name) == 12
            if name in used:
                assert max(radii) == int(used[name])
        assert len(rows) - 1 > len(estimates)  # some estimate used two radii
        if experiment == "mu":
            # one batch serves every direction, so they share the replica radii
            by_name = [[(r, n) for e, r, n in rows[1:] if e == name] for name in estimates]
            assert by_name[0] == by_name[1]
            assert used["mu[1,0]"] == used["mu[1,1]"]

    def test_summary_records_the_sampler(self):
        result = run_experiment({"experiment": "lattice", "preset": "cubic2", "radius": 1})
        assert "sampler=philox-shell-v1" in result.summary


# what main maps to exit code 1
CONTRACT_ERRORS = (ConfigError, LatticeError, GraphError, DistributionError,
                   MomentConditionError, EstimatorError, WindowLimitError, ValueError)


# a small valid config per experiment, and the malformed values one field may take
FUZZ_VALID = {
    "mu": {"direction": "1,0"},
    "shape": {"n_dirs": 4, "max_coord": 1},
    "monotonicity": {"kernel": "1,-1", "direction": "2"},
    "lift-check": {"kernel": "1,-1", "target_index": "1", "mode": "exhaustive",
                   "distribution": "bernoulli:0.5", "t_grid": [0.0, 1.0]},
    "positivity": {"direction": "1,0", "p_grid": [0.0, 1.0]},
}
FUZZ_MALFORMED = {
    "k_max": [-1, 0, 10 ** 12], "replicas": [-1, 0], "n_dirs": [-1, 0],
    "max_coord": [-1, 0], "r_quotient": [-1, 10 ** 12], "r_cover": [-1, 10 ** 12],
    "budget": [0, 1], "direction": ["1,0,0", "0,0", "2", "1,0", "1/3,2/3"],
    "directions": [[], ["1,0", "1"], ["1,0", "0,1"]], "kernel": ["1", "1,0;0,1", "2,0"],
    "target_index": ["1,0", [], [10 ** 12], "0"],
    "t_grid": [[], [math.nan], [-1.0], [0.0, 10 ** 12]],
    "p_grid": [[], [0.5, math.nan], [2.0], [-0.5], [1.0, 0.0]],
    "slack_std_errors": [math.nan, -1.0, 0.0], "mode": ["monte_carlo", "neither"],
    "distribution": ["exponential:1", "bernoulli:0.5", "deterministic:0"],
    "preset": ["cubic1", "triangular"],
}


class TestRunnerFuzz:
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(data=st.data())
    def test_runners_return_or_raise_a_contract_error(self, data):
        experiment = data.draw(st.sampled_from(sorted(FUZZ_VALID)))
        config = {"experiment": experiment, "preset": "cubic2",
                  "distribution": "exponential:1", "k_max": 2, "replicas": 2,
                  "base_seed": 1, "zero_threshold": 0.02, "slack_std_errors": 3.0,
                  "r_quotient": 1, "r_cover": 1, "budget": 1 << 22,
                  "threads": data.draw(st.sampled_from([1, 2])),
                  **FUZZ_VALID[experiment]}
        for key in data.draw(st.lists(st.sampled_from(sorted(FUZZ_MALFORMED)),
                                      max_size=3, unique=True)):
            config[key] = data.draw(st.sampled_from(FUZZ_MALFORMED[key]))
        try:
            result = run_experiment(config)
        except CONTRACT_ERRORS:
            pass
        else:
            assert result.exit_code in (0, 2)
        assert not multiprocessing.active_children()


class TestLatticeAndQuotientCommands:
    def test_lattice_roundtrip_through_file(self, tmp_path):
        out = tmp_path / "lat"
        assert run_cli(["lattice", "--preset", "honeycomb", "--radius", "2",
                        "--out", str(out), "--threads", "1"]) == 0
        lattice_file = out / "lattice.txt"
        assert lattice_file.exists()
        out2 = tmp_path / "lat2"
        assert run_cli(["lattice", "--lattice-file", str(lattice_file),
                        "--radius", "2", "--out", str(out2), "--threads", "1"]) == 0
        assert (out2 / "lattice.txt").read_bytes() == lattice_file.read_bytes()

    @pytest.mark.parametrize("big", [2 ** 63 - 1, 10 ** 30])
    def test_a_voltage_past_int64_runs_like_the_lattice_without_it(self, tmp_path, big, capsys):
        # cubic2 with an extra loop of voltage (big, big): no window a run builds
        # holds an instance of it, so the runs read as cubic2's, but for the
        # base graph's orbit counts.  The edge connectivity needs a window that
        # does hold one, so the commands that print it, lattice and mu, stop
        text = lattice_to_text(*build_preset("cubic2")).replace(
            "halfedges 4", "halfedges 6").replace(
            "position", f"halfedge 4 0 0 5 {big} {big}\nhalfedge 5 0 0 4 {-big} {-big}\n"
                        "position")
        lattice_file = tmp_path / "lat.txt"
        lattice_file.write_text(text)
        mu = ["mu", "--direction", "1,0", "--dist", "exponential:1", "--k-max", "3",
              "--replicas", "4"]
        capsys.readouterr()
        for argv in (["lattice", "--radius", "2"], mu):
            assert run_cli(argv + ["--lattice-file", str(lattice_file), "--out",
                                   str(tmp_path / argv[0]), "--threads", "1"]) == 1
            assert capsys.readouterr().err == (
                f"error: edge connectivity needs a window of radius {big + 1} or more (the"
                f" largest voltage entry is {big}), above the cap of 400000 vertices\n")
        file_ests, preset_ests = (
            estimate_time_constant(*parts, TimeDistribution.parse("exponential:1"), [(1, 0)],
                                   3, 4, 1)
            for parts in (lattice_from_text(text), build_preset("cubic2")))
        assert file_ests == preset_ests
        outs = [tmp_path / f"quotient-{source}" for source in ("file", "preset")]
        for out, source in zip(outs, (["--lattice-file", str(lattice_file)],
                                      ["--preset", "cubic2"])):
            assert run_cli(["quotient", "--kernel", "1,-1", "--radius", "2"] + source
                           + ["--out", str(out), "--threads", "1"]) == 0
        file_lines, preset_lines = (
            [line for line in (out / "summary.txt").read_text().splitlines()
             if not line.startswith(("# timing:", "config=", "lattice_hash=", "edge_orbits=",
                                     "quotient_edge_orbits="))]
            for out in outs)
        assert file_lines == preset_lines

    def test_connectivity_window_holds_every_half_edge(self, tmp_path, capsys):
        # one vertex with loops of voltage 100 and 101: at radius 3 the connectivity
        # window held neither, read 0, and a pareto run's moment check refused k = 0
        lattice_file = tmp_path / "far.txt"
        lattice_file.write_text("crystal-lattice 1\ndim 1\nvertices 1\nvertex 0\nhalfedges 4\n"
                                "halfedge 0 0 0 1 100\nhalfedge 1 0 0 0 -100\n"
                                "halfedge 2 0 0 3 101\nhalfedge 3 0 0 2 -101\n"
                                "position 0 0.0\nperiod 1.0\n")
        source = ["--lattice-file", str(lattice_file), "--threads", "1"]
        assert run_cli(["lattice", "--radius", "3", "--out", str(tmp_path / "l")] + source) == 0
        summary = (tmp_path / "l" / "summary.txt").read_text().splitlines()
        assert "edge_connectivity=2" in summary and "certificate_paths=2" in summary
        capsys.readouterr()
        for law in ("pareto:3", "exponential:1"):
            assert run_cli(["mu", "--direction", "1", "--dist", law, "--k-max", "2",
                            "--replicas", "3", "--out", str(tmp_path / law)] + source) == 1
            assert capsys.readouterr().err == (
                "error: boundary flags persisted after 4 window enlargements\n")

    def test_cubic7_lattice_command_finds_its_connectivity(self, tmp_path):
        # the R = 3 window of cubic7 is above the vertex cap, so the connectivity
        # window drops to R = 2 whatever --radius sizes the printed window
        out = tmp_path / "c7"
        proc = subprocess.run(
            [sys.executable, "-m", "crystalfpp.cli", "lattice", "--preset", "cubic7",
             "--radius", "1", "--out", str(out), "--threads", "1"],
            capture_output=True, text=True, timeout=120, env=PACKAGE_ENV)
        assert proc.returncode == 0 and proc.stderr == ""
        summary = (out / "summary.txt").read_text().splitlines()
        assert "window_vertices=2187" in summary
        assert "edge_connectivity=14" in summary and "certificate_paths=14" in summary

    def test_quotient_writes_sublattice_file(self, tmp_path):
        out = tmp_path / "q"
        code = run_cli(["quotient", "--preset", "cubic3", "--kernel", "1,1,1",
                        "--out", str(out), "--threads", "1"])
        assert code == 0
        assert "crystal-lattice 1" in (out / "quotient.txt").read_text()
        assert "verdict=pass" in (out / "summary.txt").read_text()

    def test_lift_check_cli(self, tmp_path):
        out = tmp_path / "lift"
        code = run_cli(["lift-check", "--preset", "cubic2", "--kernel", "1,-1",
                        "--dist", "bernoulli:0.5", "--target-index", "1",
                        "--t-grid", "0,1,2", "--mode", "exhaustive",
                        "--out", str(out), "--threads", "1"])
        assert code == 0
        assert "scope=window-restricted" in (out / "summary.txt").read_text()

    def test_positivity_cli(self, tmp_path):
        out = tmp_path / "pos"
        code = run_cli(["positivity", "--preset", "cubic2",
                        "--p-grid", "0,1", "--direction", "1,0",
                        "--k-max", "5", "--replicas", "3", "--seed", "2",
                        "--out", str(out), "--threads", "1"])
        assert code == 0


class TestSvg:
    def shape(self, dist=TimeDistribution.deterministic(1), dirs=8):
        lat, real = build_preset("cubic2")
        return estimate_shape(lat, real, dist, dirs, 6, 2, 4)

    def test_l1_ball_renders_four_vertices(self):
        shape = self.shape()
        svg = render_shape_svg(shape)
        assert svg.startswith("<svg")
        assert svg.count("<circle") == len(shape.directions)
        assert "polygon" in svg
        assert len(shape.hull) == 4

    def test_overlay_and_legend(self):
        shape = self.shape()
        overlay = np.array([(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)])
        svg = render_shape_svg(shape, overlay=overlay,
                               labels=("cover shape", "quotient shape"))
        assert svg.count("<polygon") == 2
        assert "cover shape" in svg and "quotient shape" in svg
        assert "stroke-dasharray" in svg

    def test_errors(self):
        lat, real = build_preset("cubic3")
        shape3 = estimate_shape(lat, real, TimeDistribution.deterministic(1),
                                6, 2, 2, 4)
        with pytest.raises(ValueError):
            render_shape_svg(shape3)
        shape_empty = self.shape()
        shape_empty.directions = ()
        with pytest.raises(ValueError):
            render_shape_svg(shape_empty)

    def test_render_command_from_csv(self, tmp_path):
        # bernoulli:1 makes every time zero: the unbounded-shape regime
        for case, dist in enumerate(["deterministic:1", "bernoulli:1"]):
            out = tmp_path / f"s{case}"
            run_cli(["shape", "--preset", "cubic2", "--dist", dist,
                     "--dirs", "8", "--k-max", "6", "--replicas", "2", "--seed", "1",
                     "--out", str(out), "--threads", "1"])
            out2 = tmp_path / f"render{case}"
            code = run_cli(["render", "--preset", "cubic2",
                            "--input-csv", str(out / "detail.csv"),
                            "--out", str(out2), "--threads", "1"])
            assert code == 0
            assert (out2 / "shape.svg").read_text() == (out / "shape.svg").read_text()
