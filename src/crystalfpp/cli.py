"""Command-line front end: configured experiments, artifact emission, SVG shapes.

One subcommand per estimator entry point.  A run is configured by a single
JSON document (``--config``) whose fields individual flags override; the
artifacts are a ``summary.txt`` (key=value lines, timing isolated on the last
line), a ``detail.csv`` with frozen column order, and an SVG polygon where a
shape is available.  Identical config and seed give byte-identical CSVs.

Exit codes: 0 = success or pass-verdict, 2 = fail-verdict, 1 = error (no
artifacts are written on errors).
"""
from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .estimate import (
    EstimatorError,
    ShapeEstimate,
    estimate_shape,
    estimate_time_constant,
    lifting_inequality_check,
    monotonicity_experiment,
    positivity_scan,
)
from .fpp import FAMILIES, SAMPLER, DistributionError, MomentConditionError, TimeDistribution
from .lattice import (
    WindowLimitError,
    build_preset,
    edge_connectivity_estimate,
    instantiate_window,
    lattice_from_text,
    lattice_hash,
    lattice_to_text,
)
from .quotient import KernelSublattice, build_quotient, verify_diagram


class ConfigError(ValueError):
    pass


def config_schema() -> dict:
    """The JSON schema shipped with the package (config_schema.json)."""
    import importlib.resources

    ref = importlib.resources.files("crystalfpp") / "config_schema.json"
    return json.loads(ref.read_text())


def _read_input(path: str) -> str:
    """Text of an input file; an unreadable path is a configuration error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None


def load_config(path: str | None, overrides: dict) -> dict:
    """Merge config file and flag overrides; flags win.

    The schema's properties are the known keys (others reject) and carry the
    defaults.  Every value from the file and from flags must meet its schema
    type, minimum, maximum and enum, and a number must be finite.
    """
    merged = _schema_defaults()
    if path:
        try:
            config = json.loads(_read_input(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config {path}: top level must be an object")
        merged.update(_checked(config, f"config {path}: "))
    merged.update(_checked({k: v for k, v in overrides.items() if v is not None}))
    return merged


def _schema_defaults() -> dict:
    return {key: spec["default"] for key, spec in config_schema()["properties"].items()
            if "default" in spec}


def _checked(values: dict, where: str = "") -> dict:
    """The values, once every key is a schema property and every value meets its entry."""
    properties = config_schema()["properties"]
    unknown = sorted(set(values) - set(properties))
    if unknown:
        raise ConfigError(f"{where}unknown keys {', '.join(unknown)}")
    for key, value in values.items():
        problem = _schema_problem(value, properties[key])
        if problem:
            raise ConfigError(f"{where}{key} {problem}, got {value!r}")
    return values


def _schema_problem(value, spec: dict) -> str | None:
    """How a config value breaks its schema entry, or None if it does not."""
    kind = spec.get("type")
    if kind and not _has_json_type(value, kind):
        return f"must be of type {kind}"
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    if "minimum" in spec and value < spec["minimum"]:
        return f"must be at least {spec['minimum']}"
    if "maximum" in spec and value > spec["maximum"]:
        return f"must be at most {spec['maximum']}"
    if "enum" in spec and value not in spec["enum"]:
        return f"must be one of {', '.join(spec['enum'])}"
    return None


def _has_json_type(value, kind: str) -> bool:
    """Does a parsed JSON value have the schema type `kind` (a whole float is an integer)?"""
    if isinstance(value, bool):
        return False
    if kind == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, {"string": str, "integer": int, "number": (int, float),
                              "array": list}[kind])


def _parse_int_vector(spec, what: str) -> tuple[int, ...]:
    """'a,b' or a list of whole numbers (a JSON 1.0 counts) as a tuple of ints."""
    parts = spec.split(",") if isinstance(spec, str) else spec
    if isinstance(parts, list) and all(isinstance(x, str) or _has_json_type(x, "integer")
                                       for x in parts):
        try:
            return tuple(int(x) for x in parts)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be 'a,b' or a list of whole numbers, got {spec!r}")


def _kernel(config: dict, dim: int) -> KernelSublattice:
    spec = config.get("kernel")
    if spec is None:
        raise ConfigError(f"{config['experiment']} needs a kernel")
    columns = spec.split(";") if isinstance(spec, str) else spec
    if not isinstance(columns, list):
        raise ConfigError(f"kernel must be 'a,b;c,d' or a list of columns, got {spec!r}")
    return KernelSublattice.of([_parse_int_vector(col, "a kernel column") for col in columns
                                if not isinstance(col, str) or col.strip()], dim)


# Fraction expands a decimal exponent into an exact integer of that many digits,
# so longer direction components and larger exponents are refused before it runs
MAX_DIRECTION_TOKEN = 64


def _oversized(token: str) -> bool:
    exponent = token.lower().partition("e")[2].lstrip("+-")
    return len(token) > MAX_DIRECTION_TOKEN or (
        exponent.isdecimal() and int(exponent) > MAX_DIRECTION_TOKEN)


def _parse_fraction_vector(spec) -> tuple[Fraction, ...]:
    parts = spec.split(",") if isinstance(spec, str) else spec
    try:
        tokens = [str(x).strip() for x in parts]
        if any(_oversized(t) for t in tokens):
            raise OverflowError
        return tuple(Fraction(t) for t in tokens)
    except OverflowError:
        raise ConfigError(f"direction components must be at most {MAX_DIRECTION_TOKEN}"
                          f" characters, with exponents at most {MAX_DIRECTION_TOKEN},"
                          f" got {spec!r}") from None
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"direction must be 'a,b' or a list of rationals,"
                          f" got {spec!r}") from None


def _parse_float_list(spec) -> list[float]:
    """A grid: 'a,b,...' or a list of numbers, and at least one of them."""
    grid = None
    try:
        if isinstance(spec, str):
            grid = [float(x) for x in spec.split(",") if x.strip()]
        elif isinstance(spec, list) and all(_has_json_type(x, "number") for x in spec):
            grid = [float(x) for x in spec]
    except (ValueError, OverflowError):
        pass
    if not grid:
        raise ConfigError(f"grid must be 'a,b,...' or a non-empty list of numbers,"
                          f" got {spec!r}")
    return grid


def _parse_directions(config: dict) -> list[tuple[Fraction, ...]]:
    dirs = config.get("directions") or ([config["direction"]]
                                        if config.get("direction") else [])
    if not isinstance(dirs, list):
        raise ConfigError(f"directions must be a list, got {dirs!r}")
    if not dirs:
        raise ConfigError(f"{config['experiment']} needs direction or directions")
    return [_parse_fraction_vector(d) for d in dirs]


def _resolve_lattice(config: dict):
    preset = config.get("preset")
    path = config.get("lattice_file")
    if preset and path:
        raise ConfigError("give either preset or lattice_file, not both")
    if preset:
        return build_preset(preset)
    if path:
        return lattice_from_text(_read_input(path))
    raise ConfigError("a lattice is required: set preset or lattice_file")


def _resolve_distribution(config: dict) -> TimeDistribution:
    spec = config.get("distribution")
    if spec is None:
        raise ConfigError("a distribution is required, e.g. exponential:1")
    if isinstance(spec, str):
        return TimeDistribution.parse(spec)
    if not isinstance(spec, dict):
        raise ConfigError(f"distribution must be 'family:params' or an object, got {spec!r}")
    family = spec.get("family")
    if family not in FAMILIES:
        raise ConfigError(f"unknown distribution family {family!r}")
    params = {k: v for k, v in spec.items() if k != "family"}
    if not all(_has_json_type(v, "number") for v in params.values()):
        raise ConfigError(f"distribution parameters must be numbers, got {spec!r}")
    try:
        return getattr(TimeDistribution, family)(**params)
    except (TypeError, OverflowError):
        raise DistributionError(f"bad parameters {sorted(params)} for {family}") from None


def _threads(config: dict) -> int:
    """The threads key, or else the CPUs this process may run on."""
    if config.get("threads"):
        return int(config["threads"])
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# SVG


# render_shape_svg's side length in pixels, and its whiskers' half-width in
# standard errors
SVG_WIDTH = 480
WHISKER_Z = 3.0


def render_shape_svg(shape: ShapeEstimate, overlay=None, labels=("shape", "overlay")) -> str:
    """SVG polygon of a planar shape estimate with per-vertex CI whiskers.

    overlay is a polygon, an array of vertices (a bounded ShapeEstimate's
    hull, say); it is drawn dashed with a legend entry.  Pure function of
    its inputs.
    """
    if shape.dim != 2:
        raise ValueError("SVG rendering needs a 2-dimensional shape")
    if len(shape.directions) == 0:
        raise ValueError("shape estimate has no directions")
    points = None if shape.unbounded else shape.points
    over_poly = None if overlay is None else np.asarray(overlay, dtype=float)

    radius = 1.0
    if points is not None:
        radius = max(radius, float(np.max(np.linalg.norm(points, axis=1))))
        for j in range(len(shape.directions)):
            radius = max(radius, shape.radial_interval(j, WHISKER_Z)[1])
    if over_poly is not None and len(over_poly):
        radius = max(radius, float(np.max(np.linalg.norm(over_poly, axis=1))))
    pad = 0.1 * radius
    scale = (SVG_WIDTH / 2) / (radius + pad)
    cx = cy = SVG_WIDTH / 2

    def xy(p):
        return f"{cx + scale * p[0]:.3f},{cy - scale * p[1]:.3f}"

    out = io.StringIO()
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="{SVG_WIDTH}" height="{SVG_WIDTH}" '
              f'viewBox="0 0 {SVG_WIDTH} {SVG_WIDTH}">\n')
    out.write(f'<line x1="0" y1="{cy}" x2="{SVG_WIDTH}" y2="{cy}" stroke="#dddddd"/>\n')
    out.write(f'<line x1="{cx}" y1="0" x2="{cx}" y2="{SVG_WIDTH}" stroke="#dddddd"/>\n')
    legend = []
    if shape.unbounded:
        out.write(f'<text x="12" y="24" font-size="13">unbounded-shape regime '
                  f'(all estimates below {shape.zero_threshold})</text>\n')
    if points is not None and shape.hull is not None and len(shape.hull) >= 2:
        pts = " ".join(xy(p) for p in shape.hull)
        out.write(f'<polygon points="{pts}" fill="none" stroke="#1f4e9c" '
                  f'stroke-width="1.5"/>\n')
        legend.append((labels[0], "#1f4e9c", "solid"))
        for j, p in enumerate(points):
            out.write(f'<circle cx="{cx + scale * p[0]:.3f}" '
                      f'cy="{cy - scale * p[1]:.3f}" r="2.2" fill="#1f4e9c"/>\n')
            lo, hi = shape.radial_interval(j, WHISKER_Z)
            u = shape.unit_directions[j]
            a, b = lo * u, min(hi, 10 * radius) * u
            out.write(f'<line x1="{cx + scale * a[0]:.3f}" y1="{cy - scale * a[1]:.3f}" '
                      f'x2="{cx + scale * b[0]:.3f}" y2="{cy - scale * b[1]:.3f}" '
                      f'stroke="#9c1f1f" stroke-width="1"/>\n')
    if over_poly is not None and len(over_poly) >= 2:
        pts = " ".join(xy(p) for p in over_poly)
        out.write(f'<polygon points="{pts}" fill="none" stroke="#1f9c4e" '
                  f'stroke-width="1.5" stroke-dasharray="6,4"/>\n')
        legend.append((labels[1], "#1f9c4e", "dashed"))
    y = 20
    for name, color, style in legend:
        dash = ' stroke-dasharray="6,4"' if style == "dashed" else ""
        out.write(f'<line x1="12" y1="{y - 4}" x2="40" y2="{y - 4}" '
                  f'stroke="{color}" stroke-width="2"{dash}/>\n')
        out.write(f'<text x="46" y="{y}" font-size="12">{name}</text>\n')
        y += 18
    out.write("</svg>\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentResult:
    exit_code: int
    summary: list[str]
    csv_header: list[str] | None = None
    csv_rows: list[list] = field(default_factory=list)
    extra_files: dict[str, str] = field(default_factory=dict)


def _provenance(config: dict, lattice=None, realization=None,
                distribution=None) -> list[str]:
    lines = [
        f"experiment={config['experiment']}",
        f"crystalfpp_version={__version__}",
        f"numpy_version={np.__version__}",
        f"base_seed={config.get('base_seed')}",
        f"sampler={SAMPLER}",
        "config=" + json.dumps({k: config[k] for k in sorted(config)
                                if k not in ("out_dir", "threads")},
                               default=str, sort_keys=True),
    ]
    if lattice is not None:
        lines.append(f"lattice_hash={lattice_hash(lattice, realization)}")
    if distribution is not None:
        lines.append(f"distribution={distribution.label()}")
    return lines


def _csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _windows_csv(estimates) -> str:
    """windows.csv: how many replicas of each (name, replica radii) estimate
    took their values on each window radius."""
    return _csv_text([["estimate", "radius", "replicas"]]
                     + [[name, r, n] for name, radii in estimates
                        for r, n in sorted(Counter(radii).items())])


def _run_lattice(config: dict, lat, real) -> ExperimentResult:
    radius = int(config["radius"])
    window = instantiate_window(lat, real, radius)
    conn = edge_connectivity_estimate(lat, real)
    summary = _provenance(config, lat, real)
    summary += [
        f"dim={lat.dim}",
        f"base_vertices={len(lat.base.vertices)}",
        f"edge_orbits={len(lat.base.edge_orbits())}",
        f"window_radius={radius}",
        f"window_vertices={len(window.vertices)}",
        f"window_edge_orbits={len(window.orbit_ends)}",
        f"edge_connectivity={conn.value}",
        f"certificate_paths={len(conn.paths)}",
    ]
    header = ["vertex", "index", "x"]
    rows = [[u, ";".join(str(c) for c in z),
             ";".join(repr(float(c)) for c in window.coords[i])]
            for i, (u, z) in enumerate(window.vertices)]
    return ExperimentResult(0, summary, header, rows,
                            {"lattice.txt": lattice_to_text(lat, real)})


def _run_quotient(config: dict, lat, real) -> ExperimentResult:
    kernel = _kernel(config, lat.dim)
    qdata = build_quotient(lat, real, kernel)
    tol = float(config["tolerance"])
    report = verify_diagram(qdata, radius=int(config["radius"]), tol=tol)
    summary = _provenance(config, lat, real)
    summary += [
        f"kernel={';'.join(','.join(str(c) for c in col) for col in kernel.columns)}",
        f"quotient_dim={qdata.dim_quotient}",
        "q_matrix=" + ";".join(",".join(str(c) for c in row) for row in qdata.q),
        f"quotient_edge_orbits={len(qdata.sub_lattice.base.edge_orbits())}",
        f"diagram_max_deviation={report.max_deviation!r}",
        f"diagram_tolerance={tol!r}",
        f"verdict={'pass' if report.passed else 'fail'}",
    ]
    header = ["half_edge", "voltage", "quotient_voltage"]
    rows = [[eid, ";".join(str(c) for c in lat.voltage[eid]),
             ";".join(str(c) for c in qdata.sub_lattice.voltage[eid])]
            for eid in lat.base.half_edges]
    files = {"quotient.txt": lattice_to_text(qdata.sub_lattice, qdata.sub_realization)}
    return ExperimentResult(0 if report.passed else 2, summary, header, rows, files)


def _run_mu(config: dict, lat, real) -> ExperimentResult:
    dist = _resolve_distribution(config)
    dirs = _parse_directions(config)
    summary = _provenance(config, lat, real, dist)
    rows, trace, windows = [], [], []
    ests = estimate_time_constant(lat, real, dist, dirs, int(config["k_max"]),
                                  int(config["replicas"]), int(config["base_seed"]),
                                  workers=_threads(config))
    for vec, est in zip(dirs, ests):
        tag = ",".join(str(c) for c in vec)
        summary += [
            f"mu[{tag}]={est.point_estimate!r}",
            f"std_error[{tag}]={est.std_error!r}",
            f"radius_used[{tag}]={est.radius_used}",
            f"enlargements[{tag}]={est.enlargements}",
            f"boundary_flags[{tag}]=0",
        ]
        rows += [[tag, i, repr(v)] for i, v in enumerate(est.samples)]
        trace += [[tag, k, repr(v)] for k, v in enumerate(est.trace, 1)]
        windows.append((f"mu[{tag}]", est.replica_radii))
    summary.append(f"edge_connectivity={edge_connectivity_estimate(lat, real).value}")
    return ExperimentResult(0, summary, ["direction", "replica", "normalized_time"], rows, {
        "trace.csv": _csv_text([["direction", "k", "mean_normalized_time"]] + trace),
        "windows.csv": _windows_csv(windows)})


def _run_shape(config: dict, lat, real) -> ExperimentResult:
    dist = _resolve_distribution(config)
    shape = estimate_shape(
        lat, real, dist, int(config["n_dirs"]), int(config["k_max"]),
        int(config["replicas"]), int(config["base_seed"]),
        max_coord=int(config["max_coord"]),
        zero_threshold=float(config["zero_threshold"]), workers=_threads(config))
    summary = _provenance(config, lat, real, dist)
    summary += [
        f"n_directions={len(shape.directions)}",
        f"k_max={shape.k_max}",
        f"replicas={shape.replicas}",
        f"radius_used={shape.radius_used}",
        f"boundary_flags=0",
        f"unbounded={shape.unbounded}",
    ]
    header = ["dir_index", "direction", "replica", "normalized_time"]
    rows = []
    for j, z in enumerate(shape.directions):
        tag = ",".join(str(c) for c in z)
        summary.append(f"mu[{tag}]={float(shape.mu[j])!r} se={float(shape.std_errors[j])!r}")
        rows += [[j, tag, i, repr(float(shape.samples[i, j]))] for i in range(shape.replicas)]
    files = {"windows.csv": _windows_csv([("shape", shape.replica_radii)])}
    if lat.dim == 2:
        files["shape.svg"] = render_shape_svg(shape)
    return ExperimentResult(0, summary, header, rows, files)


def _run_monotonicity(config: dict, lat, real) -> ExperimentResult:
    dist = _resolve_distribution(config)
    report = monotonicity_experiment(
        lat, real, _kernel(config, lat.dim), dist, _parse_directions(config),
        int(config["k_max"]), int(config["replicas"]), int(config["base_seed"]),
        slack_z=float(config["slack_std_errors"]), workers=_threads(config))
    summary = _provenance(config, lat, real, dist)
    summary.append(f"quotient_dim={report.qdata.dim_quotient}")
    header = ["direction", "mu_quotient", "se_quotient", "mu_affine", "se_affine",
              "slack", "fiber_size", "passed"]
    rows = []
    windows = []
    for e in report.entries:
        tag = ",".join(str(c) for c in e.direction)
        summary.append(
            f"verdict[{tag}]={'pass' if e.passed else 'fail'}"
            f" mu_affine={e.mu_affine!r} mu_quotient={e.mu_quotient!r}")
        rows.append([tag, repr(e.mu_quotient), repr(e.se_quotient),
                     repr(e.mu_affine), repr(e.se_affine), repr(e.slack),
                     e.fiber_size, e.passed])
        windows += [(f"mu_quotient[{tag}]", e.replica_radii_quotient),
                    (f"mu_affine[{tag}]", e.replica_radii_cover)]
    summary.append(f"verdict={'pass' if report.all_passed else 'fail'}")
    return ExperimentResult(0 if report.all_passed else 2, summary, header, rows,
                            {"windows.csv": _windows_csv(windows)})


def _run_lift_check(config: dict, lat, real) -> ExperimentResult:
    dist = _resolve_distribution(config)
    kernel = _kernel(config, lat.dim)
    if config.get("target_index") is None:
        raise ConfigError("lift-check needs target_index (quotient translation)")
    target = _parse_int_vector(config["target_index"], "target_index")
    t_grid = _parse_float_list(config["t_grid"] if "t_grid" in config else [0.0, 1.0, 2.0])
    report = lifting_inequality_check(
        lat, real, kernel, dist, target, t_grid,
        mode=str(config["mode"]), budget=int(config["budget"]),
        r_quotient=int(config["r_quotient"]), r_cover=int(config["r_cover"]),
        replicas=int(config["replicas"]), base_seed=int(config["base_seed"]),
        slack_z=float(config["slack_std_errors"]), workers=_threads(config))
    summary = _provenance(config, lat, real, dist)
    summary += [
        f"mode={report.mode}",
        "scope=window-restricted",
        f"fiber_size={report.fiber_size}",
        f"config_count={report.config_count}",
    ]
    header = ["t", "lhs", "rhs", "se_lhs", "se_rhs", "passed"]
    rows = []
    for r in report.rows:
        summary.append(f"tail[{r.t!r}]: lhs={r.lhs!r} rhs={r.rhs!r}"
                       f" {'pass' if r.passed else 'fail'}")
        rows.append([repr(r.t), repr(r.lhs), repr(r.rhs), repr(r.se_lhs),
                     repr(r.se_rhs), r.passed])
    summary.append(f"verdict={'pass' if report.all_passed else 'fail'}")
    return ExperimentResult(0 if report.all_passed else 2, summary, header, rows)


def _run_positivity(config: dict, lat, real) -> ExperimentResult:
    if config.get("direction") is None:
        raise ConfigError("positivity needs a direction")
    p_grid = _parse_float_list(config["p_grid"] if "p_grid" in config
                               else [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    report = positivity_scan(
        lat, real, p_grid, _parse_fraction_vector(config["direction"]),
        int(config["k_max"]), int(config["replicas"]), int(config["base_seed"]),
        slack_z=float(config["slack_std_errors"]), workers=_threads(config))
    summary = _provenance(config, lat, real)
    summary.append("distribution=bernoulli(p) over p_grid")
    header = ["p", "mu", "std_error", "zero_flag"]
    rows = []
    for r in report.rows:
        summary.append(f"mu[p={r.p!r}]={r.mu!r} se={r.std_error!r} zero={r.zero_flag}")
        rows.append([repr(r.p), repr(r.mu), repr(r.std_error), r.zero_flag])
    summary.append(f"zero_range={','.join(repr(p) for p in report.zero_ps)}")
    summary.append(f"verdict={'pass' if report.nonincreasing_ok else 'fail'}")
    return ExperimentResult(0 if report.nonincreasing_ok else 2, summary, header, rows)


def _run_render(config: dict, lat, real) -> ExperimentResult:
    path = config.get("input_csv")
    if not path:
        raise ConfigError("render needs input_csv (a shape detail file)")
    direction_of: dict[int, tuple[int, ...]] = {}
    index_of: dict[tuple[int, ...], int] = {}
    values: dict[int, list[float]] = {}
    reader = csv.reader(io.StringIO(_read_input(path)))
    for row in reader:
        if not row or row[0] == "dir_index":
            continue
        where = f"{path}: line {reader.line_num}"
        if len(row) < 4:
            raise ConfigError(f"{where}: a shape row needs 4 fields, got {len(row)}")
        try:
            j = int(row[0])
        except ValueError:
            raise ConfigError(f"{where}: dir_index {row[0]!r} must be an integer") from None
        z = _csv_direction(row[1], lat.dim, where)
        if direction_of.setdefault(j, z) != z:
            raise ConfigError(f"{where}: dir_index {j} already has direction"
                              f" {','.join(map(str, direction_of[j]))!r}, got {row[1]!r}")
        if index_of.setdefault(z, j) != j:
            raise ConfigError(f"{where}: direction {row[1]!r} already has dir_index"
                              f" {index_of[z]}, got {j}")
        values.setdefault(j, []).append(_csv_time(row[3], where))
    if not values:
        raise ConfigError(f"{path}: no shape rows found")
    order = sorted(values)
    if len({len(values[j]) for j in order}) != 1:
        raise ConfigError(f"{path}: directions have different replica counts")
    dirs = [direction_of[j] for j in order]
    samples = np.array([values[j] for j in order]).T
    shape = ShapeEstimate.from_samples(
        real, dirs, samples, float(config["zero_threshold"]), k_max=0, replicas=0,
        radius_used=0)
    svg = render_shape_svg(shape)
    summary = _provenance(config, lat, real) + [f"n_directions={len(dirs)}"]
    return ExperimentResult(0, summary, None, [], {"shape.svg": svg})


def _csv_direction(text: str, dim: int, where: str) -> tuple[int, ...]:
    """A shape row's direction: dim comma-separated integers, not all zero."""
    try:
        z = tuple(int(c) for c in text.split(","))
    except ValueError:
        z = ()
    if len(z) != dim or not any(z):
        raise ConfigError(f"{where}: direction {text!r} must be {dim} integers, not all zero")
    return z


def _csv_time(text: str, where: str) -> float:
    """A shape row's normalized time: finite and at least 0 (0 is the all-zero law)."""
    try:
        t = float(text)
    except ValueError:
        t = math.nan
    if not (math.isfinite(t) and t >= 0):
        raise ConfigError(f"{where}: normalized_time {text!r} must be a finite number >= 0")
    return t


_RUNNERS = {
    "lattice": _run_lattice,
    "quotient": _run_quotient,
    "mu": _run_mu,
    "shape": _run_shape,
    "monotonicity": _run_monotonicity,
    "lift-check": _run_lift_check,
    "positivity": _run_positivity,
    "render": _run_render,
}


def run_experiment(config: dict) -> ExperimentResult:
    """Execute the configured experiment; raises on invalid configuration.

    The config meets the same schema checks as load_config, and a key it
    leaves out takes its schema default.  The lattice is resolved here, once,
    and every runner takes it as (config, lattice, realization).
    """
    config = {**_schema_defaults(), **_checked(config)}
    name = config.get("experiment")
    runner = _RUNNERS.get(name)
    if runner is None:
        raise ConfigError(f"unknown experiment {name!r}")
    return runner(config, *_resolve_lattice(config))


def write_artifacts(result: ExperimentResult, out_dir: str, started: float) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    wall = time.perf_counter() - started
    summary = list(result.summary)
    summary.append(f"# timing: {stamp} wall={wall:.3f}s")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    files = dict(result.extra_files)
    if result.csv_header is not None:
        files["detail.csv"] = _csv_text([result.csv_header] + result.csv_rows)
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(content)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalfpp",
        description="First-passage percolation experiments on crystal lattices")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON experiment config; flags override it")
        p.add_argument("--preset", help="lattice preset: cubic<d>, triangular,"
                                        " honeycomb, diamond")
        p.add_argument("--lattice-file", dest="lattice_file",
                       help="custom lattice file (crystal-lattice format)")
        p.add_argument("--kernel", help="kernel columns, e.g. '1,-1' or '1,1;0,2'")
        p.add_argument("--dist", dest="distribution",
                       help="distribution, e.g. deterministic:1 or bernoulli:0.5")
        p.add_argument("--direction", help="rational direction, e.g. '1,0' or '1/2,1'")
        p.add_argument("--dirs", dest="n_dirs", type=int, help="number of directions")
        p.add_argument("--k-max", dest="k_max", type=int)
        p.add_argument("--replicas", type=int)
        p.add_argument("--seed", dest="base_seed", type=int)
        p.add_argument("--t-grid", dest="t_grid", help="comma separated times")
        p.add_argument("--p-grid", dest="p_grid", help="comma separated probabilities")
        p.add_argument("--target-index", dest="target_index",
                       help="quotient translation index, e.g. '1'")
        p.add_argument("--mode", choices=["exhaustive", "monte_carlo"])
        p.add_argument("--radius", type=int, help="window radius (lattice/quotient)")
        p.add_argument("--out", dest="out_dir", help="artifact directory")
        p.add_argument("--threads", type=int,
                       help="processes that solve replicas, this one included: N starts a"
                            " pool of N - 1 (default: the CPUs this process may run on)")
        p.add_argument("--slack", dest="slack_std_errors", type=float,
                       help="verdict slack in standard errors")
        p.add_argument("--max-coord", dest="max_coord", type=int)
        p.add_argument("--input-csv", dest="input_csv", help="shape detail csv (render)")
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    try:
        config = load_config(args.config, overrides)
        config["experiment"] = args.experiment
        result = run_experiment(config)
    except (ValueError, EstimatorError, MomentConditionError, WindowLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_artifacts(result, config["out_dir"], started)
    verdict = "ok" if result.exit_code == 0 else "FAIL"
    print(f"{args.experiment}: {verdict} (artifacts in {config['out_dir']})")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
