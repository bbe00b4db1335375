import json
import os

import numpy as np
import pytest

from crystalfpp.cli import (
    ConfigError,
    build_parser,
    config_schema,
    load_config,
    main,
    render_shape_svg,
    run_experiment,
)
from crystalfpp.estimate import estimate_shape
from crystalfpp.fpp import TimeDistribution
from crystalfpp.lattice import build_preset


def run_cli(args):
    return main(args)


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
    ])
    def test_flag_values_meet_the_schema(self, flags, message):
        with pytest.raises(ConfigError) as err:
            load_config(None, flags)
        assert message in str(err.value)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "frobnicate"})


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
    ], ids=["missing-lattice-file", "missing-config", "missing-input-csv", "bare-position",
            "dist-unknown-param", "dist-missing-param", "dist-not-a-family", "dist-number",
            "direction-number", "directions-number", "kernel-number", "grid-number",
            "target-wrong-dim", "null-k-max", "short-render-row", "halfedge-without-voltage",
            "t-grid-inf", "direction-zero-denominator", "render-zero-direction",
            "render-long-direction", "slack-nan", "slack-nan-config", "threads-zero",
            "max-coord-zero"])
    def test_malformed_input_exits_one_without_artifacts(self, tmp_path, capsys, argv, files):
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
        assert not out.exists()

    def test_fail_verdict_exits_two(self):
        # diagram verification with an impossible tolerance forces the
        # fail-verdict path deterministically
        result = run_experiment({
            "experiment": "quotient", "preset": "cubic2", "kernel": "1,-1",
            "tolerance": -1.0, "radius": 3, "base_seed": 1, "out_dir": "unused",
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
        base = ["mu", "--preset", "cubic2", "--dist", "exponential:1",
                "--direction", "1,0", "--k-max", "5", "--replicas", "8",
                "--seed", "4"]
        run_cli(base + ["--threads", "1", "--out", str(tmp_path / "serial")])
        run_cli(base + ["--threads", "2", "--out", str(tmp_path / "par")])
        assert ((tmp_path / "serial" / "detail.csv").read_bytes()
                == (tmp_path / "par" / "detail.csv").read_bytes())


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
