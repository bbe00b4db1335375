import concurrent.futures
import math
import multiprocessing
import os
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import bellman_ford, bfs_hops, exhaustive_tail, zero_cluster_spans
from oracles import norm_property_report

import crystalfpp.estimate as estimate_module
from crystalfpp.estimate import (
    BudgetError,
    EstimatorError,
    angular_direction_grid,
    convex_hull_2d,
    distance_to_polygon,
    estimate_shape,
    estimate_time_constant,
    hausdorff_distance,
    lifting_inequality_check,
    monotonicity_experiment,
    polygon_contains,
    positivity_scan,
    rational_direction,
)
from crystalfpp.fpp import (
    MomentConditionError,
    TimeDistribution,
    replica_seed,
    sample_configuration,
)
from crystalfpp.graph_core import graph_from_edges
from crystalfpp.lattice import LatticeError, build_custom, build_preset, instantiate_window
from crystalfpp.lattice import Realization
from crystalfpp.quotient import KernelSublattice, build_quotient, covering_fiber

DET1 = TimeDistribution.deterministic(1)
EXP1 = TimeDistribution.exponential(1)

L1_BALL = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])


def translated(realization, b):
    """The realization with every base position moved by b."""
    return Realization({u: np.add(p, b) for u, p in realization.positions.items()},
                       realization.period)


def transformed(realization, a_matrix):
    """The realization under the linear map a_matrix, positions and period."""
    return Realization({u: a_matrix @ np.array(p) for u, p in realization.positions.items()},
                       a_matrix @ realization.period_matrix())


class TestGeometry:
    def test_hull_prunes_collinear(self):
        pts = [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1), (1, 1), (1, 0.5)]
        hull = convex_hull_2d(np.array(pts, dtype=float))
        assert sorted(map(tuple, hull)) == [(0, 0), (0, 1), (2, 0), (2, 1)]

    def test_distance_inside_is_zero(self):
        assert distance_to_polygon((0.2, 0.1), L1_BALL) == 0.0
        assert distance_to_polygon((2.0, 0.0), L1_BALL) == pytest.approx(1.0)

    def test_hausdorff(self):
        assert hausdorff_distance(L1_BALL, L1_BALL) == 0.0
        bigger = 2 * L1_BALL
        assert hausdorff_distance(L1_BALL, bigger) == pytest.approx(1.0)

    def test_containment(self):
        assert polygon_contains(2 * L1_BALL, L1_BALL)
        assert not polygon_contains(L1_BALL, 2 * L1_BALL)

    def test_rational_direction(self):
        coords, n, step = rational_direction(("1/2", 1))
        assert coords == (Fraction(1, 2), Fraction(1))
        assert n == 2 and step == (1, 2)
        with pytest.raises(ValueError):
            rational_direction((0, 0))


class TestTimeConstant:
    def test_deterministic_unit_is_exact(self):
        lat, real = build_preset("cubic2")
        est, = estimate_time_constant(lat, real, DET1, [(1, 0)], 10, 2, 99)
        assert est.point_estimate == 1.0
        assert est.std_error == 0.0
        assert est.trace == tuple([1.0] * 10)

    def test_quotient_line_matches_analytic_value(self):
        # two parallel exponential edges per step: mu = 2 E min = 1 exactly
        lat, real = build_preset("cubic2")
        q = build_quotient(lat, real, KernelSublattice.of([(1, -1)], 2))
        est, = estimate_time_constant(q.sub_lattice, q.sub_realization, EXP1,
                                      [(2,)], 60, 80, 2024, seed_role=1)
        assert abs(est.point_estimate - 1.0) <= 3 * est.std_error

    def test_supercritical_bernoulli_is_near_zero(self):
        lat, real = build_preset("cubic2")
        est, = estimate_time_constant(lat, real, TimeDistribution.bernoulli(0.9),
                                      [(1, 0)], 20, 16, 5)
        assert est.point_estimate < 0.05
        # independent confirmation that p = 0.9 is supercritical at this scale:
        # the zero-time cluster spans the window in most replicas
        win = instantiate_window(lat, real, 10)
        spans = 0
        for seed in range(20):
            cfg = sample_configuration(win, TimeDistribution.bernoulli(0.9), seed)
            spans += zero_cluster_spans(win, cfg.times)
        assert spans >= 18

    def test_moment_gate_refuses_heavy_tail(self):
        lat, real = build_preset("cubic2")
        with pytest.raises(MomentConditionError) as err:
            estimate_time_constant(lat, real, TimeDistribution.pareto(0.4),
                                   [(1, 0)], 4, 2, 1)
        assert "1.6" in str(err.value)

    def test_moment_gate_accepts_lighter_tail(self):
        lat, real = build_preset("cubic2")
        est, = estimate_time_constant(lat, real, TimeDistribution.pareto(0.6),
                                      [(1, 0)], 4, 4, 1)
        assert est.point_estimate > 0

    def test_deterministic_function_of_seed(self):
        lat, real = build_preset("cubic2")
        a, = estimate_time_constant(lat, real, EXP1, [(1, 1)], 6, 10, 77)
        b, = estimate_time_constant(lat, real, EXP1, [(1, 1)], 6, 10, 77)
        c, = estimate_time_constant(lat, real, EXP1, [(1, 1)], 6, 10, 78)
        assert a.samples == b.samples
        assert a.samples != c.samples

    def test_parallel_equals_serial(self):
        lat, real = build_preset("cubic2")
        a, = estimate_time_constant(lat, real, EXP1, [(1, 0)], 6, 8, 3, workers=1)
        b, = estimate_time_constant(lat, real, EXP1, [(1, 0)], 6, 8, 3, workers=2)
        assert a.samples == b.samples
        assert a.point_estimate == b.point_estimate

    def test_rational_direction_scaling(self):
        lat, real = build_preset("cubic2")
        est, = estimate_time_constant(lat, real, DET1, [("1/2", 0)], 4, 2, 1)
        assert est.scale == 2 and est.step == (1, 0)
        assert est.point_estimate == pytest.approx(0.5)  # mu(x/2) = mu(x)/2

    def test_realization_invariance(self):
        # same period, different base positions / global translation: passage
        # times target abstract vertices, so estimates agree exactly
        lat, real = build_preset("honeycomb")
        moved = Realization({0: (0.0, 0.0), 1: (0.5, 0.2)}, real.period)
        shifted = translated(real, (0.37, -1.4))
        base, = estimate_time_constant(lat, real, EXP1, [(1, 0)], 6, 12, 9)
        alt, = estimate_time_constant(lat, moved, EXP1, [(1, 0)], 6, 12, 9)
        trans, = estimate_time_constant(lat, shifted, EXP1, [(1, 0)], 6, 12, 9)
        assert base.samples == alt.samples == trans.samples

    @pytest.mark.parametrize("preset, directions", [
        ("cubic2", [(1, 0), (0, 1), (2, 1), ("1/2", -1)]),
        ("triangular", [(1, 0), (1, 1), (-1, 2)]),
    ])
    def test_batched_directions_equal_one_direction_calls(self, preset, directions):
        lat, real = build_preset(preset)
        batch = estimate_time_constant(lat, real, DET1, directions, 4, 3, 8)
        assert [e.direction for e in batch] == [rational_direction(d)[0] for d in directions]
        for d, est in zip(directions, batch):
            one, = estimate_time_constant(lat, real, DET1, [d], 4, 3, 8)
            assert (est.point_estimate, est.std_error, est.samples, est.trace) == (
                one.point_estimate, one.std_error, one.samples, one.trace)

    def test_a_replica_on_its_one_direction_window_keeps_its_value(self):
        # the batch reruns a replica flagged in any direction for every
        # direction, so only its window can differ from a one-direction call
        lat, real = build_preset("cubic2")
        directions = [(1, 0), (0, 1), (2, 1)]
        batch = estimate_time_constant(lat, real, EXP1, directions, 3, 20, 4)
        same_window = 0
        for d, est in zip(directions, batch):
            one, = estimate_time_constant(lat, real, EXP1, [d], 3, 20, 4)
            for i, (r, r_one) in enumerate(zip(est.replica_radii, one.replica_radii)):
                if r == r_one:
                    same_window += 1
                    assert est.samples[i] == one.samples[i]
        assert same_window >= 20


def two_loop_line(a, b):
    """One vertex on a line with two loops of voltages a and b: with gcd 1 the
    lattice is connected, but a step of 1 needs an excursion to a or b."""
    return build_custom(graph_from_edges(1, [(0, 0), (0, 0)]),
                        {0: (a,), 1: (-a,), 2: (b,), 3: (-b,)}, {0: (0.0,)}, [(1.0,)])


class TestInfiniteTimes:
    def test_a_target_the_window_cuts_off_reruns_on_a_larger_window(self):
        # the first window, R = 6, holds no loop of voltage 7 or 8 at all
        est, = estimate_time_constant(*two_loop_line(7, 8), EXP1, [(1,)], 2, 6, 3)
        assert est.enlargements == 2 and set(est.replica_radii) == {9, 13}
        assert all(map(math.isfinite, est.samples + est.trace + (est.std_error,)))

    def test_a_target_no_window_reaches_is_an_error(self):
        # a step of 1 needs the vertex at 101, beyond R = 6 + 3 + 4 + 6 + 9 = 28
        lat, real = two_loop_line(100, 101)
        with pytest.raises(EstimatorError, match="boundary flags persisted after 4"):
            estimate_time_constant(lat, real, EXP1, [(1,)], 2, 3, 1)
        with pytest.raises(EstimatorError, match="boundary flags persisted after 4"):
            estimate_shape(lat, real, EXP1, 2, 2, 3, 1)

    @pytest.mark.parametrize("law", ["deterministic:1e308", "uniform:0,1e308",
                                     "pareto:1e308,1e308", "uniform:0,1e200",
                                     "exponential:1e-308"])
    def test_times_past_float64_name_the_law(self, law):
        dist = TimeDistribution.parse(law)
        lat, real = build_preset("cubic2")
        kernel = KernelSublattice.of([(1, -1)], 2)
        for run in (lambda: estimate_time_constant(lat, real, dist, [(1, 0)], 2, 3, 1),
                    lambda: estimate_shape(lat, real, dist, 8, 2, 3, 1),
                    lambda: monotonicity_experiment(lat, real, kernel, dist, [(2,)], 2, 3, 1)):
            with pytest.raises(EstimatorError,
                               match=re.escape(f"under {dist.label()} overflow float64")):
                run()

    def test_an_overflow_on_the_cover_side_names_the_law(self, monkeypatch):
        # the quotient side runs the unit law, so only the cover side overflows
        original = estimate_module.estimate_time_constant
        monkeypatch.setattr(estimate_module, "estimate_time_constant",
                            lambda lat, real, dist, *args, **kwargs:
                            original(lat, real, DET1, *args, **kwargs))
        lat, real = build_preset("cubic2")
        with pytest.raises(EstimatorError, match=re.escape("uniform:0.0,1e+200 overflow")):
            monotonicity_experiment(lat, real, KernelSublattice.of([(1, -1)], 2),
                                    TimeDistribution.uniform(0, 1e200), [(2,)], 2, 3, 1)


class TestMomentGuard:
    """Only a pareto verdict depends on the edge connectivity, so only a
    pareto law runs its max flow."""

    def test_light_laws_skip_the_max_flow(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("edge connectivity computed for a light-tailed law")

        monkeypatch.setattr(estimate_module, "edge_connectivity_estimate", refuse)
        lat, real = build_preset("cubic2")
        estimate_time_constant(lat, real, EXP1, [(1, 0)], 2, 2, 1)
        positivity_scan(lat, real, [0.0, 0.5], (1, 0), 2, 2, 1)
        monotonicity_experiment(lat, real, KernelSublattice.of([(1, -1)], 2), EXP1,
                                [(1,)], 2, 2, 1)

    def test_pareto_law_runs_the_max_flow(self, monkeypatch):
        calls = []
        connectivity = estimate_module.edge_connectivity_estimate
        monkeypatch.setattr(estimate_module, "edge_connectivity_estimate",
                            lambda *args: calls.append(args) or connectivity(*args))
        lat, real = build_preset("cubic2")
        est, = estimate_time_constant(lat, real, TimeDistribution.pareto(0.6), [(1, 0)], 2, 2, 1)
        assert len(calls) == 1 and "2.4" in est.moment_witness

    def test_one_guard_per_side_of_a_batch(self, monkeypatch):
        dims = []
        guard = estimate_module._moment_guard
        monkeypatch.setattr(estimate_module, "_moment_guard",
                            lambda lat, *args: dims.append(lat.dim) or guard(lat, *args))
        lat, real = build_preset("cubic2")
        estimate_time_constant(lat, real, EXP1, [(1, 0), (0, 1), (1, 1)], 2, 2, 1)
        assert dims == [2]
        dims.clear()
        monotonicity_experiment(lat, real, KernelSublattice.of([(1, -1)], 2), EXP1,
                                [(1,), (-2,)], 2, 2, 1)
        assert sorted(dims) == [1, 2]  # the quotient side and the cover side


class TestShape:
    def test_deterministic_cubic_is_l1_ball(self):
        lat, real = build_preset("cubic2")
        shape = estimate_shape(lat, real, DET1, 16, 12, 2, 4)
        assert not shape.unbounded
        assert hausdorff_distance(shape.hull, L1_BALL) < 1e-9

    def test_deterministic_triangular_is_hexagon(self):
        lat, real = build_preset("triangular")
        shape = estimate_shape(lat, real, DET1, 12, 8, 2, 4)
        # oracle: breadth-first hop distances give the graph-metric ball
        win = instantiate_window(lat, real, 9)
        hops = bfs_hops(win, win.vertex_index[(0, (0, 0))])
        pts = []
        for z in [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]:
            target = (0, tuple(8 * c for c in z))
            d = hops[win.vertex_index[target]]
            pts.append(win.coords[win.vertex_index[target]] / d)
        hexagon = convex_hull_2d(np.array(pts))
        assert hausdorff_distance(shape.hull, hexagon) < 1e-9
        assert len(shape.hull) == 6

    def test_unbounded_regime_reported(self):
        lat, real = build_preset("cubic2")
        shape = estimate_shape(lat, real, TimeDistribution.bernoulli(0.95),
                               8, 20, 8, 6)
        assert shape.unbounded
        assert shape.hull is None

    def test_central_symmetry_within_ci(self):
        lat, real = build_preset("cubic2")
        shape = estimate_shape(lat, real, EXP1, 8, 10, 24, 11)
        dir_index = {z: j for j, z in enumerate(shape.directions)}
        for z, j in dir_index.items():
            neg = tuple(-c for c in z)
            if neg in dir_index:
                k = dir_index[neg]
                pooled = math.hypot(shape.std_errors[j], shape.std_errors[k])
                assert abs(shape.mu[j] - shape.mu[k]) <= 3 * pooled + 1e-9

    def test_three_dimensional_radial_table_only(self):
        lat, real = build_preset("cubic3")
        shape = estimate_shape(lat, real, DET1, 6, 3, 2, 4)
        assert shape.hull is None
        assert len(shape.directions) == 26
        assert shape.mu.shape == (26,)

    def test_linear_map_equivariance(self):
        # estimated shape under A o Phi equals A applied to the shape under Phi
        lat, real = build_preset("cubic2")
        a_mat = np.array([[2.0, 0.0], [0.0, 1.0]])
        stretched = transformed(real, a_mat)
        shape_a = estimate_shape(lat, stretched, DET1, 16, 8, 2, 4)
        shape = estimate_shape(lat, real, DET1, 16, 8, 2, 4)
        mapped = convex_hull_2d((a_mat @ shape.hull.T).T)
        assert hausdorff_distance(shape_a.hull, mapped) < 1e-9

    def test_rotation_symmetric_directions_agree_exactly(self):
        # quarter-turn symmetry of the square lattice: mu(u) = mu(Au)
        lat, real = build_preset("cubic2")
        shape = estimate_shape(lat, real, DET1, 8, 6, 2, 4)
        dir_index = {z: j for j, z in enumerate(shape.directions)}
        for (a, b), j in dir_index.items():
            rot = (-b, a)
            if rot in dir_index:
                assert shape.mu[j] == shape.mu[dir_index[rot]]

    def test_angular_grid_covers_axes(self):
        _, real = build_preset("cubic2")
        dirs = angular_direction_grid(real, 16, 2)
        assert len(dirs) == 16
        for axis in [(1, 0), (0, 1), (-1, 0), (0, -1)]:
            assert axis in dirs


class TestNormProperties:
    def test_deterministic_subadditivity_exact(self):
        lat, real = build_preset("cubic2")
        ests = [estimate_time_constant(lat, real, DET1, [d], 6, 2, 5)[0]
                for d in [(1, 0), (0, 1), (1, 1)]]
        report = norm_property_report(ests)
        sub = [c for c in report.checks if c.kind == "subadditivity"]
        assert len(sub) == 1
        assert sub[0].lhs == 2.0 and sub[0].rhs == 2.0
        assert report.all_passed

    def test_exponential_properties_within_slack(self):
        lat, real = build_preset("cubic2")
        dirs = [(1, 0), (0, 1), (1, 1), (2, 0), ("1/2", 0), (-1, 0)]
        k_for = {(1, 0): 16, (0, 1): 16, (1, 1): 12, (2, 0): 8,
                 ("1/2", 0): 16, (-1, 0): 16}
        ests = [estimate_time_constant(lat, real, EXP1, [d], k_for[d], 30, 17)[0]
                for d in dirs]
        report = norm_property_report(ests)
        kinds = {c.kind for c in report.checks}
        assert {"subadditivity", "homogeneity", "symmetry"} <= kinds
        for c in report.checks:
            assert c.passed, (c.kind, c.detail, c.lhs, c.rhs, c.slack)


class TestMonotonicity:
    def test_deterministic_diagonal_exact_equality(self):
        lat, real = build_preset("cubic2")
        report = monotonicity_experiment(lat, real,
                                         KernelSublattice.of([(1, -1)], 2),
                                         DET1, [(2,)], 8, 2, 3)
        e = report.entries[0]
        assert e.mu_quotient == pytest.approx(2.0, abs=1e-9)
        assert e.mu_affine == pytest.approx(2.0, abs=1e-9)
        assert report.all_passed

    def test_exponential_diagonal(self):
        lat, real = build_preset("cubic2")
        report = monotonicity_experiment(lat, real,
                                         KernelSublattice.of([(1, -1)], 2),
                                         EXP1, [(2,)], 16, 24, 3)
        e = report.entries[0]
        assert e.mu_affine <= e.mu_quotient + e.slack
        assert abs(e.mu_quotient - 1.0) < 0.15  # near the analytic value

    def test_cubic3_to_triangular_hexagon_directions(self):
        lat, real = build_preset("cubic3")
        q = build_quotient(lat, real, KernelSublattice.of([(1, 1, 1)], 3))
        hex_dirs = [tuple(int(c) for c in q.project_index(e))
                    for e in np.eye(3, dtype=int)]
        hex_dirs += [tuple(-c for c in d) for d in hex_dirs]
        report = monotonicity_experiment(lat, real,
                                         KernelSublattice.of([(1, 1, 1)], 3),
                                         DET1, hex_dirs, 4, 2, 3)
        for e in report.entries:
            assert abs(e.mu_affine - e.mu_quotient) < 1e-9
        assert report.all_passed

    @pytest.mark.parametrize("preset, kernel, directions", [
        ("cubic2", [(1, -1)], [(2,), (-1,), (3,)]),
        ("cubic3", [(1, 1, 1)], [(1, 0), (0, -1), (-1, -1), (2, 1)]),
    ])
    def test_batched_directions_equal_one_direction_calls(self, preset, kernel, directions):
        lat, real = build_preset(preset)
        kernel = KernelSublattice.of(kernel, lat.dim)

        def values(e):
            return e.direction, e.mu_quotient, e.se_quotient, e.mu_affine, e.se_affine, e.slack

        batch = monotonicity_experiment(lat, real, kernel, DET1, directions, 3, 2, 3).entries
        assert len(batch) == len(directions)
        for d, e in zip(directions, batch):
            one, = monotonicity_experiment(lat, real, kernel, DET1, [d], 3, 2, 3).entries
            assert values(e) == values(one)

    def test_polytope_containment_deterministic(self):
        # quotient unit ball inside the projected cover ball, vertexwise
        lat, real = build_preset("cubic3")
        q = build_quotient(lat, real, KernelSublattice.of([(1, 1, 1)], 3))
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        projected = convex_hull_2d((q.p_matrix @ octahedron.T).T)
        # quotient hexagon from exact graph distances (breadth-first oracle)
        win = instantiate_window(q.sub_lattice, q.sub_realization, 8)
        hops = bfs_hops(win, win.vertex_index[(0, (0, 0))])
        pts = []
        for e in np.vstack([np.eye(3, dtype=int), -np.eye(3, dtype=int)]):
            z = tuple(int(c) for c in 4 * np.array(q.project_index(tuple(e))))
            d = hops[win.vertex_index[(0, z)]]
            pts.append(win.coords[win.vertex_index[(0, z)]] / d)
        hexagon = convex_hull_2d(np.array(pts))
        assert polygon_contains(projected, hexagon, tol=1e-9)
        assert polygon_contains(hexagon, projected, tol=1e-9)  # equality here


class TestLiftingInequality:
    def test_exhaustive_line_case(self):
        lat, real = build_preset("cubic2")
        report = lifting_inequality_check(
            lat, real, KernelSublattice.of([(1, -1)], 2),
            TimeDistribution.bernoulli(0.5), (1,), [0, 1, 2],
            mode="exhaustive", r_quotient=1, r_cover=1)
        by_t = {r.t: r for r in report.rows}
        assert by_t[0.0].lhs_exact == 1 and by_t[0.0].rhs_exact == 1
        assert by_t[1.0].lhs_exact == Fraction(1, 4)
        assert by_t[1.0].rhs_exact <= Fraction(1, 4)
        assert by_t[2.0].lhs_exact == 0 and by_t[2.0].rhs_exact == 0
        assert report.all_passed

    # low == high makes every total exactly 0 or 1; with p != 1/2 that also
    # catches high orbits counted from the weights instead of the mask.  The
    # last law has low and high of different denominators.
    @pytest.mark.parametrize("params", [(0.3, 0.5, 1.5), (0.5, 1.0, 1.0), (0.3, 1.0, 1.0),
                                        (0.3, 0.25, 1.5)])
    def test_exhaustive_matches_bellman_ford_enumeration(self, params):
        lat, real = build_preset("cubic2")
        kernel = KernelSublattice.of([(1, -1)], 2)
        thresholds = [0, 0.5, 0.75, 1, 1.5, 2, 3]
        report = lifting_inequality_check(
            lat, real, kernel, TimeDistribution.bernoulli(*params), (1,), thresholds,
            mode="exhaustive", r_quotient=2, r_cover=1)
        qdata = build_quotient(lat, real, kernel)
        win1 = instantiate_window(qdata.sub_lattice, qdata.sub_realization, 2)
        win_x = instantiate_window(lat, real, 1)
        fiber = [win_x.vertex_index[v] for v in covering_fiber(qdata, (0, (1,)), win_x)]
        assert len(fiber) == report.fiber_size == 2
        p, low, high = Fraction(str(params[0])), params[1], params[2]
        lhs = exhaustive_tail(win1, win1.vertex_index[(0, (0,))], [win1.vertex_index[(0, (1,))]],
                              p, low, high, thresholds)
        rhs = exhaustive_tail(win_x, win_x.vertex_index[(0, (0, 0))], fiber, p, low, high,
                              thresholds)
        assert [r.lhs_exact for r in report.rows] == lhs
        assert [r.rhs_exact for r in report.rows] == rhs
        if low == high:
            assert set(lhs) | set(rhs) <= {0, 1}

    # the source as a target, and targets the window cannot reach: on this line
    # lattice the R = 1 window splits into {index -1, 1} and {index 0}
    @pytest.mark.parametrize("case", ["source-target", "unreachable", "one-unreachable"])
    def test_enumerated_tail_matches_the_oracle_at_degenerate_targets(self, case):
        if case == "source-target":
            win = instantiate_window(*build_preset("cubic2"), 1)
            source, targets = (0, (0, 0)), [(0, (0, 0)), (0, (1, 0))]
        else:
            lat, real = build_custom(graph_from_edges(2, [(0, 1), (0, 0), (1, 1)]),
                                     {0: (0,), 1: (0,), 2: (2,), 3: (-2,), 4: (3,), 5: (-3,)},
                                     {0: (0.0,), 1: (0.5,)}, [[1.0]])
            win = instantiate_window(lat, real, 1)
            source = (0, (-1,))
            targets = [(0, (0,))] + ([(1, (1,))] if case == "one-unreachable" else [])
        idx = [win.vertex_index[v] for v in targets]
        p, thresholds = Fraction(1, 3), [0, 1, 2, 3]
        src = win.vertex_index[source]
        relevant = estimate_module._relevant_orbits(win, src, idx)
        got = estimate_module._enumerate_tail(win, src, idx, relevant, p, 0, 1, thresholds)
        assert got == exhaustive_tail(win, src, idx, p, 0, 1, thresholds)
        if case == "unreachable":
            assert got == [1, 1, 1, 1]

    # random line lattices: loops (a zero voltage makes a loop orbit), parallel
    # edges, pendant vertices, and voltages up to 3, so the window may split
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def test_pruned_tail_matches_the_unpruned_oracle(self, data):
        n = data.draw(st.integers(1, 3))
        vertex = st.integers(0, n - 1)
        edges = ([(i, i + 1, data.draw(st.integers(-1, 1))) for i in range(n - 1)]
                 + [(0, 0, data.draw(st.integers(1, 3)))]
                 + data.draw(st.lists(st.tuples(vertex, vertex, st.integers(-3, 3)),
                                      max_size=3)))
        voltage = {}
        for i, (_, _, v) in enumerate(edges):
            voltage[2 * i], voltage[2 * i + 1] = (v,), (-v,)
        try:
            lat, real = build_custom(graph_from_edges(n, [(a, b) for a, b, _ in edges]),
                                     voltage, {u: (u / n,) for u in range(n)}, [[1.0]])
        except LatticeError:  # the derived graph is disconnected
            assume(False)
        win = instantiate_window(lat, real, data.draw(st.integers(1, 2)))
        assume(len(win.orbit_keys) <= 10)
        vertices = st.integers(0, len(win.vertices) - 1)
        src = data.draw(vertices)
        targets = data.draw(st.lists(vertices, min_size=1, max_size=3, unique=True))
        if data.draw(st.booleans()):
            targets = [src] + [t for t in targets if t != src]
        p = data.draw(st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(5, 9),
                                       Fraction(0), Fraction(1, 2), Fraction(1)]))
        low, high = data.draw(st.sampled_from([(0, 1), (1, 2), (1, 1), (2, 5)]))
        thresholds = [0, 1, 2, 3, 5, 8]
        relevant = estimate_module._relevant_orbits(win, src, targets)
        got = estimate_module._enumerate_tail(win, src, targets, relevant, p, low, high,
                                              thresholds)
        assert got == exhaustive_tail(win, src, targets, p, low, high, thresholds)

    def test_relevant_orbits_of_the_quotient_are_the_parallel_pair(self):
        lat, real = build_preset("cubic2")
        qdata = build_quotient(lat, real, KernelSublattice.of([(1, -1)], 2))
        win = instantiate_window(qdata.sub_lattice, qdata.sub_realization, 5)
        assert len(win.orbit_keys) == 20
        source, target = win.vertex_index[(0, (0,))], win.vertex_index[(0, (1,))]
        relevant = estimate_module._relevant_orbits(win, source, [target])
        assert len(relevant) == 2
        for j in relevant:
            assert sorted(win.orbit_ends[j].tolist()) == sorted([source, target])

    @pytest.mark.parametrize("r_quotient", [5, 12])
    def test_exhaustive_count_is_the_searched_configurations(self, r_quotient):
        lat, real = build_preset("cubic2")
        kernel = KernelSublattice.of([(1, -1)], 2)

        def check(r):
            return lifting_inequality_check(
                lat, real, kernel, TimeDistribution.bernoulli(0.5), (1,), [0, 1, 2, 3],
                mode="exhaustive", r_quotient=r, r_cover=1)

        report = check(r_quotient)
        assert report.config_count == 4100
        assert [(r.lhs_exact, r.rhs_exact) for r in report.rows] == [
            (1, 1), (Fraction(1, 4), Fraction(95, 512)), (0, 0), (0, 0)]
        assert report.rows == check(1).rows

    @pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
    def test_target_outside_the_quotient_window_is_refused(self, mode):
        lat, real = build_preset("cubic2")
        with pytest.raises(EstimatorError, match="outside the quotient window"):
            lifting_inequality_check(
                lat, real, KernelSublattice.of([(1, -1)], 2),
                TimeDistribution.bernoulli(0.5), (5,), [1], mode=mode, replicas=10,
                r_quotient=1)

    @pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_threshold_is_a_value_error(self, mode, t):
        lat, real = build_preset("cubic2")
        with pytest.raises(ValueError, match="not a finite number"):
            lifting_inequality_check(
                lat, real, KernelSublattice.of([(1, -1)], 2),
                TimeDistribution.bernoulli(0.5), (1,), [t], mode=mode, replicas=10)

    def test_budget_exceeded_reports_count(self):
        lat, real = build_preset("cubic2")
        with pytest.raises(BudgetError) as err:
            lifting_inequality_check(
                lat, real, KernelSublattice.of([(1, -1)], 2),
                TimeDistribution.bernoulli(0.5), (1,), [1],
                mode="exhaustive", r_quotient=1, r_cover=2, budget=1 << 10)
        assert "configurations" in str(err.value)
        assert f"{(1 << 2) + (1 << 40)} configurations" in str(err.value)
        assert "2 of 4 + 40 of 40 orbits can change the time" in str(err.value)

    def test_exhaustive_needs_atomic_distribution(self):
        lat, real = build_preset("cubic2")
        with pytest.raises(Exception):
            lifting_inequality_check(
                lat, real, KernelSublattice.of([(1, -1)], 2), EXP1, (1,), [1],
                mode="exhaustive")

    def test_monte_carlo_mode(self):
        lat, real = build_preset("cubic3")
        report = lifting_inequality_check(
            lat, real, KernelSublattice.of([(1, 1, 1)], 3), EXP1, (1, 0),
            [0.25, 0.5, 1.0, 2.0], mode="monte_carlo", replicas=2000,
            base_seed=8, r_quotient=1, r_cover=1)
        assert report.mode == "monte_carlo"
        for r in report.rows:
            assert r.passed, (r.t, r.lhs, r.rhs)

    def test_monte_carlo_t_zero_is_one(self):
        lat, real = build_preset("cubic2")
        report = lifting_inequality_check(
            lat, real, KernelSublattice.of([(1, -1)], 2), EXP1, (1,), [0.0],
            mode="monte_carlo", replicas=200, base_seed=2)
        assert report.rows[0].lhs == 1.0 and report.rows[0].rhs == 1.0

    @pytest.mark.parametrize("dist", [EXP1, TimeDistribution.bernoulli(0.5)])
    def test_monte_carlo_rows_match_oracle_replicas(self, dist):
        # each replica's quotient time (role 1) and fiber minimum (role 0),
        # recomputed by relaxation on its own configurations
        lat, real = build_preset("cubic2")
        kernel = KernelSublattice.of([(1, -1)], 2)
        t_grid, replicas, seed = [0.0, 0.5, 1.0, 2.0, 3.0], 200, 6
        report = lifting_inequality_check(lat, real, kernel, dist, (1,), t_grid,
                                          mode="monte_carlo", replicas=replicas,
                                          base_seed=seed, r_quotient=2, r_cover=2)
        q = build_quotient(lat, real, kernel)
        win1 = instantiate_window(q.sub_lattice, q.sub_realization, 2)
        win_x = instantiate_window(lat, real, 2)
        fiber = [win_x.vertex_index[v] for v in covering_fiber(q, (0, (1,)), win_x)]
        quotient_times, fiber_mins = [], []
        for i in range(replicas):
            c1 = sample_configuration(win1, dist, replica_seed(seed, i, 1))
            cx = sample_configuration(win_x, dist, replica_seed(seed, i, 0))
            quotient_times.append(bellman_ford(win1, c1.times, win1.vertex_index[0, (0,)])
                                  [win1.vertex_index[0, (1,)]])
            dx = bellman_ford(win_x, cx.times, win_x.vertex_index[0, (0, 0)])
            fiber_mins.append(min(dx[j] for j in fiber))
        assert [r.t for r in report.rows] == t_grid
        for row in report.rows:
            assert row.lhs == sum(x >= row.t for x in quotient_times) / replicas
            assert row.rhs == sum(x >= row.t for x in fiber_mins) / replicas
        assert any(0 < r.lhs < 1 for r in report.rows)
        assert any(0 < r.rhs < 1 for r in report.rows)


class TestPositivity:
    def test_endpoints_exact(self):
        lat, real = build_preset("cubic2")
        report = positivity_scan(lat, real, [0.0, 0.5, 1.0], (1, 0), 10, 8, 31)
        assert report.rows[0].mu == 1.0  # all times 1: graph distance
        assert report.rows[0].std_error == 0.0
        assert not report.rows[0].zero_flag
        assert report.rows[-1].mu == 0.0  # all times 0
        assert report.rows[-1].zero_flag

    def test_trend_and_zero_range(self):
        lat, real = build_preset("cubic2")
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        report = positivity_scan(lat, real, grid, (1, 0), 16, 12, 13)
        assert report.nonincreasing_ok
        assert 0.9 in report.zero_ps
        assert 0.1 not in report.zero_ps

    @pytest.mark.parametrize("preset, p_c", [
        ("cubic2", 0.5),
        ("triangular", 2 * math.sin(math.pi / 18)),
        ("honeycomb", 1 - 2 * math.sin(math.pi / 18)),
    ])
    def test_zero_flag_brackets_the_bond_threshold(self, preset, p_c):
        # Kesten: mu = 0 exactly when P(t = 0) >= p_c, the bond percolation
        # threshold (exact values from Sykes and Essam).  The finite-k scan
        # brackets p_c; it does not locate it.
        lat, real = build_preset(preset)
        report = positivity_scan(lat, real, [p_c - 0.1, p_c + 0.15], (1, 0), 25, 32,
                                 20240821)
        below, above = report.rows
        assert not below.zero_flag, below
        assert above.zero_flag, above


# Each estimator on cubic2 with exponential(1) times, run by TestWindowEnlargement
# with no slack layers and no fiber halo, so the first window is too small for
# some replicas: (run() -> reported radius, the (lattice dim, radius) of every
# replica batch).  The monotonicity runs map the quotient replicas once on the
# line, then the cover replicas on three windows.  The multi-direction runs
# make one batch per window for all their directions, whose first window is
# set by the farthest target.
def _mu_run(workers=1):
    lat, real = build_preset("cubic2")
    est, = estimate_time_constant(lat, real, EXP1, [(1, 0)], 5, 20, 4, workers=workers)
    return est.radius_used


def _mu_three_directions_run(workers=1):
    lat, real = build_preset("cubic2")
    ests = estimate_time_constant(lat, real, EXP1, [(1, 0), (0, 1), (2, 1)], 3, 20, 4,
                                  workers=workers)
    assert len({(e.radius_used, e.replica_radii, e.enlargements) for e in ests}) == 1
    return ests[0].radius_used


def _shape_run(workers=1):
    lat, real = build_preset("cubic2")
    return estimate_shape(lat, real, EXP1, 8, 3, 10, 1, workers=workers).radius_used


def _monotonicity_run(workers=1, directions=((2,),)):
    lat, real = build_preset("cubic2")
    report = monotonicity_experiment(lat, real, KernelSublattice.of([(1, -1)], 2), EXP1,
                                     list(directions), 3, 10, 1, workers=workers)
    assert len({(e.radius_cover, e.replica_radii_cover) for e in report.entries}) == 1
    return report.entries[0].radius_cover


def _monotonicity_two_directions_run(workers=1):
    return _monotonicity_run(workers, [(2,), (-1,)])


ENLARGING_RUNS = {
    "mu": (_mu_run, [(2, 6), (2, 9)]),
    "mu-three-directions": (_mu_three_directions_run, [(2, 7), (2, 10)]),
    "shape": (_shape_run, [(2, 4), (2, 6)]),
    "monotonicity": (_monotonicity_run, [(1, 7), (2, 5), (2, 7), (2, 10)]),
    "monotonicity-two-directions": (_monotonicity_two_directions_run,
                                    [(1, 7), (2, 5), (2, 7), (2, 10)]),
}


class TestWindowEnlargement:
    @pytest.fixture(autouse=True)
    def tight_first_window(self, monkeypatch):
        monkeypatch.setattr(estimate_module, "SLACK_LAYERS", 0)
        monkeypatch.setattr(estimate_module, "FIBER_HALO", 0)

    @pytest.fixture
    def returned(self, monkeypatch):
        """(fn, ctx, indices, results) of every _map_replicas call, in order."""
        seen = []
        original = estimate_module._map_replicas

        def recording(fn, ctx, indices, workers):
            indices = list(indices)
            results = original(fn, ctx, indices, workers)
            seen.append((fn, ctx, indices, results))
            return results

        monkeypatch.setattr(estimate_module, "_map_replicas", recording)
        return seen

    def test_time_constant_enlarges_once(self, returned):
        lat, real = build_preset("cubic2")
        est, = estimate_time_constant(lat, real, EXP1, [(1, 0)], 5, 20, 4)
        assert est.enlargements == 1
        assert est.radius_used == 9  # 6 + max(2, 6 // 2)
        assert len(returned) == est.enlargements + 1
        # a replica's value is taken on the first window where it is unflagged,
        # and equals a direct call of the replica worker there
        for (fn, ctx, indices, results) in returned:
            for i, (times, flagged) in zip(indices, results):
                assert (times, flagged) == fn(ctx, i)
                if not flagged:
                    assert est.replica_radii[i] == ctx[0].radius
                    assert est.samples[i] == times[-1] / 5
        assert sorted(set(est.replica_radii)) == [6, 9]

    @pytest.mark.parametrize("name", ENLARGING_RUNS)
    def test_one_batch_per_window_and_the_radius_rule(self, returned, name):
        run, expected = ENLARGING_RUNS[name]
        assert run() == expected[-1][1]
        assert [(ctx[0].lattice.dim, ctx[0].radius) for _, ctx, _, _ in returned] == expected

    @pytest.mark.parametrize("name", ENLARGING_RUNS)
    def test_no_enlargement_allowed_raises(self, monkeypatch, name):
        monkeypatch.setattr(estimate_module, "MAX_ENLARGEMENTS", 0)
        run, _ = ENLARGING_RUNS[name]
        with pytest.raises(EstimatorError, match="boundary flags persisted"):
            run()

    @pytest.mark.parametrize("name", ENLARGING_RUNS)
    def test_only_the_flagged_replicas_rerun(self, returned, name):
        ENLARGING_RUNS[name][0]()
        for k, (fn, ctx, indices, results) in enumerate(returned):
            assert results == [fn(ctx, i) for i in indices]
            flagged = [i for i, (_, f) in zip(indices, results) if f]
            following = returned[k + 1:k + 2]
            if flagged:
                # the next batch is the same estimate on a larger window
                _, next_ctx, next_indices, _ = following[0]
                assert next_indices == flagged
                assert next_ctx[0].lattice == ctx[0].lattice
                assert next_ctx[0].radius > ctx[0].radius
            else:
                # a new estimate starts, with every replica
                assert all(idx == returned[0][2] for _, _, idx, _ in following)
        assert returned[0][2] == list(range(len(returned[0][2])))
        assert any(len(idx) < len(returned[0][2]) for _, _, idx, _ in returned)

    @pytest.mark.parametrize("name", ENLARGING_RUNS)
    def test_pool_stops_where_the_serial_run_stops(self, returned, name):
        run, _ = ENLARGING_RUNS[name]
        assert run(workers=2) == run()
        half = len(returned) // 2
        assert ([(idx, r) for _, _, idx, r in returned[:half]]
                == [(idx, r) for _, _, idx, r in returned[half:]])
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("name, batches", [
        ("mu", [(20, 2), (2, 1)]),
        ("shape", [(10, 2), (6, 2)]),
        ("monotonicity", [(10, 2), (10, 2), (3, 1), (1, 1)]),
        ("mu-three-directions", [(20, 2), (1, 1)]),
        ("monotonicity-two-directions", [(10, 2), (10, 2), (3, 1), (1, 1)]),
    ])
    def test_a_pool_worker_gets_at_least_two_replicas(self, monkeypatch, name, batches):
        seen, pool_sizes = [], []
        original = estimate_module._map_replicas

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pool_sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        def recording(fn, ctx, indices, workers):
            indices = list(indices)
            del pool_sizes[:]
            results = original(fn, ctx, indices, workers)
            seen.append((len(indices), 1 + sum(pool_sizes)))  # the caller and its pool
            return results

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(estimate_module, "_map_replicas", recording)
        ENLARGING_RUNS[name][0](workers=2)
        assert seen == batches  # (replicas, processes) of each batch
        assert not multiprocessing.active_children()

    def test_monotonicity_records_each_replica_radius(self):
        lat, real = build_preset("cubic2")
        entry, = monotonicity_experiment(lat, real, KernelSublattice.of([(1, -1)], 2), EXP1,
                                         [(2,)], 3, 10, 1).entries
        assert sorted(set(entry.replica_radii_cover)) == [5, 7, 10]
        assert entry.radius_cover == 10
        assert set(entry.replica_radii_quotient) == {7}
        assert len(entry.replica_radii_cover) == len(entry.replica_radii_quotient) == 10

    # a grid whose first window flags pairs of two of its three p values
    GRID = [0.3, 0.5, 0.7]

    def _grid_run(self, workers=1):
        lat, real = build_preset("cubic2")
        return positivity_scan(lat, real, self.GRID, (1, 0), 5, 10, 3, workers=workers).rows

    def test_a_positivity_grid_is_one_batch_per_window(self, returned, monkeypatch):
        built = []  # the radius of every window built
        original = estimate_module.instantiate_window
        monkeypatch.setattr(estimate_module, "instantiate_window",
                            lambda *args: built.append(args[2]) or original(*args))
        rows = self._grid_run()
        assert built == [6, 9]  # one window per radius for the whole grid
        assert [ctx[0].radius for _, ctx, _, _ in returned] == built
        (fn, ctx, first, results), (_, next_ctx, rerun, _) = returned
        assert first == list(range(30))  # (p index) * 10 + replica
        assert results == [fn(ctx, i) for i in first]
        assert rerun == [i for i, (_, flagged) in zip(first, results) if flagged]
        assert sorted({i // 10 for i in rerun}) == [1, 2]
        assert next_ctx[1:4] == ctx[1:4]  # the laws, the base seed and the replicas

        # each row is bit for bit the one-p estimate with that p's seed role,
        # which builds its own windows
        lat, real = build_preset("cubic2")
        del built[:]
        for idx, (p, row) in enumerate(zip(self.GRID, rows)):
            est, = estimate_time_constant(lat, real, TimeDistribution.bernoulli(p), [(1, 0)],
                                          5, 10, 3, seed_role=idx)
            assert (row.p, row.mu, row.std_error) == (p, est.point_estimate, est.std_error)
        assert built == [6, 6, 9, 6, 9]

    def test_a_positivity_grid_in_a_pool_equals_the_serial_grid(self, returned):
        assert self._grid_run(workers=2) == self._grid_run()
        assert [(len(idx), ctx[0].radius) for _, ctx, idx, _ in returned] == [
            (30, 6), (3, 9)] * 2
        assert not multiprocessing.active_children()

    def test_a_positivity_grid_raises_when_no_enlargement_is_allowed(self, monkeypatch):
        monkeypatch.setattr(estimate_module, "MAX_ENLARGEMENTS", 0)
        with pytest.raises(EstimatorError, match="boundary flags persisted"):
            self._grid_run()

    def test_shape_builds_no_orbit_keys(self, monkeypatch):
        built = []
        original = estimate_module.instantiate_window

        def recording(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(estimate_module, "instantiate_window", recording)
        _shape_run()
        assert [w.radius for w in built] == [4, 6]
        assert not any("orbit_keys" in w.__dict__ for w in built)


def _index_and_pid(pause, i):
    time.sleep(pause)
    return i, os.getpid()


def _fail_at(bad, i):
    if i == bad:
        raise LookupError(f"replica {i}")
    return i


class TestReplicaMap:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Every process pool opened; the fake starts no process.  It records
        the share of each submit and solves the share at once."""

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                self.max_workers, self.shares, self.shut_down = max_workers, [], False
                initializer(*initargs)
                opened.append(self)

            def submit(self, fn, share):
                self.shares.append(share)
                future = concurrent.futures.Future()
                future.set_result(fn(share))
                return future

            def shutdown(self, cancel_futures=False):
                self.shut_down = True

        opened = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(estimate_module, "_POOL_PAYLOAD", None)
        return opened

    def test_pool_is_capped_by_the_replica_count(self, pools):
        def fn(ctx, i):
            return ctx * i

        assert estimate_module._map_replicas(fn, 10, range(3), 1000) == [0, 10, 20]
        assert estimate_module._map_replicas(fn, 10, [7], 1000) == [70]
        assert estimate_module._map_replicas(fn, 10, [1, 4, 9, 3, 5], 4) == [10, 40, 90, 30, 50]
        # at least POOL_MIN_SHARE indices per process, the calling process one of them
        assert estimate_module.POOL_MIN_SHARE == 2
        assert [pool.max_workers for pool in pools] == [1]

    @pytest.mark.parametrize("indices, workers, processes", [
        (range(40), 4, 4), (range(40), 2, 2), ([9, 2, 7, 4, 1, 8, 0], 8, 3),
        (range(7, 12), 3, 2), (range(3), 3, 1)])
    def test_one_submit_per_strided_share(self, pools, indices, workers, processes):
        solved = []

        def fn(ctx, i):
            solved.append(i)
            return ctx * i

        indices = list(indices)
        assert estimate_module._map_replicas(fn, 3, indices, workers) == [3 * i for i in indices]
        if processes == 1:
            assert not pools and solved == indices
            return
        pool, = pools
        assert pool.max_workers == processes - 1 and pool.shut_down
        # share k >= 1 is one submit to the pool, share 0 is the caller's
        assert pool.shares == [indices[k::processes] for k in range(1, processes)]
        assert solved[len(indices) - len(indices[0::processes]):] == indices[0::processes]

    def test_the_caller_solves_share_zero(self):
        results = estimate_module._map_replicas(_index_and_pid, 0.01, range(40), 2)
        assert [i for i, _ in results] == list(range(40))
        assert [i for i, pid in results if pid == os.getpid()] == list(range(0, 40, 2))
        assert len({pid for _, pid in results[1::2]} - {os.getpid()}) == 1
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("bad", [4, 7], ids=["caller-share", "pool-share"])
    def test_an_exception_in_a_share_propagates_with_its_type(self, bad):
        with pytest.raises(LookupError, match=f"replica {bad}"):
            estimate_module._map_replicas(_fail_at, bad, range(10), 2)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_maps_the_given_indices_in_order(self, workers):
        assert estimate_module._map_replicas(pow, 2, [5, 0, 3], workers) == [32, 1, 8]
        assert estimate_module._map_replicas(pow, 2, [], workers) == []
        assert not multiprocessing.active_children()
