import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import bfs_hops, exhaustive_tail, zero_cluster_spans

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
    norm_property_report,
    polygon_contains,
    positivity_scan,
    rational_direction,
)
from crystalfpp.fpp import MomentConditionError, TimeDistribution, sample_configuration
from crystalfpp.lattice import build_preset, instantiate_window
from crystalfpp.quotient import KernelSublattice, build_quotient, covering_fiber

DET1 = TimeDistribution.deterministic(1)
EXP1 = TimeDistribution.exponential(1)

L1_BALL = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])


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
        est = estimate_time_constant(lat, real, DET1, (1, 0), 10, 2, 99)
        assert est.point_estimate == 1.0
        assert est.std_error == 0.0
        assert est.trace == tuple([1.0] * 10)

    def test_quotient_line_matches_analytic_value(self):
        # two parallel exponential edges per step: mu = 2 E min = 1 exactly
        lat, real = build_preset("cubic2")
        q = build_quotient(lat, real, KernelSublattice.of([(1, -1)], 2))
        est = estimate_time_constant(q.sub_lattice, q.sub_realization, EXP1,
                                     (2,), 60, 80, 2024, seed_role=1)
        assert abs(est.point_estimate - 1.0) <= 3 * est.std_error

    def test_supercritical_bernoulli_is_near_zero(self):
        lat, real = build_preset("cubic2")
        est = estimate_time_constant(lat, real, TimeDistribution.bernoulli(0.9),
                                     (1, 0), 20, 16, 5)
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
                                   (1, 0), 4, 2, 1)
        assert "1.6" in str(err.value)

    def test_moment_gate_accepts_lighter_tail(self):
        lat, real = build_preset("cubic2")
        est = estimate_time_constant(lat, real, TimeDistribution.pareto(0.6),
                                     (1, 0), 4, 4, 1)
        assert est.point_estimate > 0

    def test_deterministic_function_of_seed(self):
        lat, real = build_preset("cubic2")
        a = estimate_time_constant(lat, real, EXP1, (1, 1), 6, 10, 77)
        b = estimate_time_constant(lat, real, EXP1, (1, 1), 6, 10, 77)
        c = estimate_time_constant(lat, real, EXP1, (1, 1), 6, 10, 78)
        assert a.samples == b.samples
        assert a.samples != c.samples

    def test_parallel_equals_serial(self):
        lat, real = build_preset("cubic2")
        a = estimate_time_constant(lat, real, EXP1, (1, 0), 6, 8, 3, workers=1)
        b = estimate_time_constant(lat, real, EXP1, (1, 0), 6, 8, 3, workers=2)
        assert a.samples == b.samples
        assert a.point_estimate == b.point_estimate

    def test_rational_direction_scaling(self):
        lat, real = build_preset("cubic2")
        est = estimate_time_constant(lat, real, DET1, ("1/2", 0), 4, 2, 1)
        assert est.scale == 2 and est.step == (1, 0)
        assert est.point_estimate == pytest.approx(0.5)  # mu(x/2) = mu(x)/2

    def test_realization_invariance(self):
        # same period, different base positions / global translation: passage
        # times target abstract vertices, so estimates agree exactly
        lat, real = build_preset("honeycomb")
        from crystalfpp.lattice import Realization

        moved = Realization({0: (0.0, 0.0), 1: (0.5, 0.2)}, real.period)
        shifted = real.translated((0.37, -1.4))
        base = estimate_time_constant(lat, real, EXP1, (1, 0), 6, 12, 9)
        alt = estimate_time_constant(lat, moved, EXP1, (1, 0), 6, 12, 9)
        trans = estimate_time_constant(lat, shifted, EXP1, (1, 0), 6, 12, 9)
        assert base.samples == alt.samples == trans.samples


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
        stretched = real.transformed(a_mat)
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
        ests = [estimate_time_constant(lat, real, DET1, d, 6, 2, 5)
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
        ests = [estimate_time_constant(lat, real, EXP1, d, k_for[d], 30, 17)
                for d in dirs]
        report = norm_property_report(ests)
        kinds = {c.kind for c in report.checks}
        assert {"subadditivity", "homogeneity", "symmetry"} <= kinds
        for c in report.checks:
            assert c.passed, (c.kind, c.detail, c.lhs, c.rhs, c.slack)

    def test_mismatched_inputs_rejected(self):
        lat, real = build_preset("cubic2")
        a = estimate_time_constant(lat, real, EXP1, (1, 0), 4, 2, 5)
        b = estimate_time_constant(lat, real, EXP1, (0, 1), 4, 2, 6)
        with pytest.raises(ValueError):
            norm_property_report([a, b])


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
        assert report.window_restricted

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


# Each estimator on cubic2 with exponential(1) times and no slack layers, so the
# first window is too small: (run(**options) -> reported radius, the
# (lattice dim, radius) of every replica batch).  The monotonicity run maps the
# quotient replicas once on the line, then the cover replicas on two windows.
def _mu_run(**options):
    lat, real = build_preset("cubic2")
    return estimate_time_constant(lat, real, EXP1, (1, 0), 5, 20, 3, slack_layers=0,
                                  **options).radius_used


def _shape_run(**options):
    lat, real = build_preset("cubic2")
    return estimate_shape(lat, real, EXP1, 8, 3, 10, 1, slack_layers=0,
                          **options).radius_used


def _monotonicity_run(**options):
    lat, real = build_preset("cubic2")
    report = monotonicity_experiment(lat, real, KernelSublattice.of([(1, -1)], 2), EXP1,
                                     [(2,)], 3, 10, 1, slack_layers=0, fiber_halo=0,
                                     **options)
    return report.entries[0].radius_cover


ENLARGING_RUNS = {
    "mu": (_mu_run, [(2, 6), (2, 9)]),
    "shape": (_shape_run, [(2, 4), (2, 6)]),
    "monotonicity": (_monotonicity_run, [(1, 7), (2, 5), (2, 7)]),
}


class TestWindowEnlargement:
    @pytest.fixture
    def batches(self, monkeypatch):
        """(lattice dim, window radius) of every _map_replicas call, in order."""
        seen = []
        original = estimate_module._map_replicas

        def counting(fn, ctx, n, workers):
            seen.append((ctx[0].lattice.dim, ctx[0].radius))
            return original(fn, ctx, n, workers)

        monkeypatch.setattr(estimate_module, "_map_replicas", counting)
        return seen

    def test_time_constant_enlarges_once(self, batches):
        lat, real = build_preset("cubic2")
        est = estimate_time_constant(lat, real, EXP1, (1, 0), 5, 20, 3, slack_layers=0)
        assert est.enlargements == 1
        assert est.radius_used == 9  # 6 + max(2, 6 // 2)
        assert len(batches) == est.enlargements + 1

    @pytest.mark.parametrize("name", ENLARGING_RUNS)
    def test_one_batch_per_window_and_the_radius_rule(self, batches, name):
        run, expected = ENLARGING_RUNS[name]
        assert run() == expected[-1][1]
        assert batches == expected

    @pytest.mark.parametrize("name", ENLARGING_RUNS)
    def test_no_enlargement_allowed_raises(self, name):
        run, _ = ENLARGING_RUNS[name]
        with pytest.raises(EstimatorError, match="boundary flags persisted"):
            run(max_enlargements=0)
