"""Property tests for the input parsers: malformed input raises ValueError only.

`crystalfpp.cli.main` turns a ValueError (every contract error subclasses it)
into one `error:` line and exit code 1, so any other exception escaping a
parser would reach the user as a traceback.  Whatever parses must also be
usable: a loaded lattice builds a window, a distribution has finite
parameters, and a loaded config meets its schema.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalfpp.cli import (
    _kernel,
    _parse_directions,
    _parse_float_list,
    _parse_int_vector,
    _resolve_distribution,
    config_schema,
    load_config,
)
from crystalfpp.fpp import FAMILIES, TimeDistribution
from crystalfpp.lattice import (
    LatticeError,
    build_preset,
    instantiate_window,
    lattice_from_text,
    lattice_to_text,
)
from crystalfpp.quotient import KernelSublattice, invariant_factors

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=500)

NUMBER_TEXT = st.one_of(
    st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e300", "-0", "1_0", "", " ", "x"]))


@FUZZ
@given(st.one_of(
    st.text(max_size=20),
    st.builds(lambda name, args: f"{name}:{','.join(args)}",
              st.sampled_from(FAMILIES + ("", "Exponential", " pareto")),
              st.lists(NUMBER_TEXT, max_size=4))))
def test_distribution_spec_raises_only_value_errors(spec):
    try:
        dist = TimeDistribution.parse(spec)
    except ValueError:
        return
    assert all(math.isfinite(x) for x in dist.params)


@st.composite
def mutated_lattice_text(draw):
    """A serialized preset with one to three line- or token-level mutations."""
    lines = lattice_to_text(*build_preset(draw(st.sampled_from(
        ["cubic1", "cubic2", "triangular", "honeycomb", "diamond"])))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        action = draw(st.sampled_from(["drop", "duplicate", "drop-token", "duplicate-token",
                                       "number-token", "text-token"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            if action == "drop-token":
                del tokens[j]
            elif action == "duplicate-token":
                tokens.insert(j, tokens[j])
            elif action == "number-token":
                tokens[j] = draw(st.sampled_from(
                    ["0", "-1", "2", "7", "1.5", "nan", "inf", "-inf", "1e300", "1e400"]))
            else:
                tokens[j] = draw(st.sampled_from(["", "x", "#", "dim", "vertices", "vertex",
                                                  "halfedge", "position", "period"])
                                 | st.text(max_size=3))
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines) + "\n"


@FUZZ
@given(mutated_lattice_text())
def test_lattice_file_raises_only_value_errors(text):
    try:
        lattice, realization = lattice_from_text(text)
    except ValueError:
        return
    assert set(realization.positions) == set(lattice.base.vertices)
    assert np.isfinite(instantiate_window(lattice, realization, 1).coords).all()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    # edge values: JSON integers too large for a float, and what json reads as NaN
    | st.sampled_from([10 ** 400, -(10 ** 400), math.nan, math.inf, -math.inf, -1, 0, 1.5])
    | st.sampled_from(["1,-1", "1/2,1", "exponential:1", "1;0,1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["family", "rate", "p", "a", "b", "x"]), inner, max_size=3),
    max_leaves=6)
PROPERTIES = config_schema()["properties"]
CONFIGS = st.dictionaries(st.sampled_from(sorted(PROPERTIES) + ["bogus"]), JSON_VALUES,
                          max_size=4)


UNTYPED_PARSERS = {
    "kernel": lambda v: _kernel({"experiment": "quotient", "kernel": v}, 2),
    "distribution": lambda v: _resolve_distribution({"distribution": v}),
    "direction": lambda v: _parse_directions({"experiment": "mu", "direction": v}),
    "directions": lambda v: _parse_directions({"experiment": "mu", "directions": v}),
    "t_grid": _parse_float_list,
    "p_grid": _parse_float_list,
    "target_index": lambda v: _parse_int_vector(v, "target_index"),
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "c.json"


@FUZZ
@given(config=CONFIGS, as_flags=st.booleans())
def test_config_values_raise_only_value_errors(config_path, config, as_flags):
    """Every schema key gets values of every JSON type, from a file or as flags."""
    config_path.write_text(json.dumps(config))
    try:
        merged = (load_config(None, config) if as_flags
                  else load_config(str(config_path), {}))
    except ValueError:
        return
    for key, value in merged.items():
        spec = PROPERTIES[key]
        if spec.get("type") in ("integer", "number"):
            assert not isinstance(value, bool)
            assert isinstance(value, int) or math.isfinite(value)
            assert value >= spec.get("minimum", -math.inf)
        if spec.get("type") == "integer":
            assert isinstance(value, int) or value.is_integer()


@FUZZ
@given(key=st.sampled_from(sorted(UNTYPED_PARSERS)), value=JSON_VALUES)
def test_untyped_config_values_raise_only_value_errors(key, value):
    """The schema gives no type for these keys; their parsers check the value."""
    try:
        UNTYPED_PARSERS[key](value)
    except ValueError:
        pass


KERNEL_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30),
                         st.sampled_from([2, -2, 10 ** 30, -10 ** 30]))


@st.composite
def kernel_columns(draw):
    """Kernel columns that may be unit, zero, dependent, torsion, huge, or of the
    wrong length."""
    dim = draw(st.integers(1, 4))
    columns = draw(st.lists(st.one_of(
        st.lists(KERNEL_ENTRY, min_size=dim, max_size=dim),
        st.just([0] * dim),
        st.integers(0, dim - 1).map(lambda i: [int(k == i) for k in range(dim)]),
        st.integers(0, dim - 1).map(lambda i: [2 * (k == i) for k in range(dim)]),
        st.lists(KERNEL_ENTRY, max_size=dim + 1).filter(lambda col: len(col) != dim)),
        max_size=dim + 1))
    if columns and draw(st.booleans()):
        factor = draw(st.sampled_from([0, 1, -2, 10 ** 30]))
        columns.append([factor * c for c in columns[0]])
    return columns, dim


@FUZZ
@given(kernel_columns())
def test_kernel_raises_only_lattice_errors(case):
    columns, dim = case
    try:
        kernel = KernelSublattice.of(columns, dim)
    except LatticeError:
        return
    assert kernel.columns == tuple(tuple(col) for col in columns)
    assert kernel.rank <= dim
    if columns:
        assert invariant_factors(kernel.matrix()) == (1,) * kernel.rank
