"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every tolerance is pinned here, and each criterion carries its runtime budget.
"""
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from oracles import bellman_ford, bfs_hops, invariant_factors_by_minors, exact_determinant
from oracles import norm_property_report, tree_partition

from crystalfpp.estimate import (
    convex_hull_2d,
    estimate_shape,
    estimate_time_constant,
    hausdorff_distance,
    lifting_inequality_check,
    monotonicity_experiment,
    polygon_contains,
    positivity_scan,
)
from crystalfpp.fpp import (
    MomentConditionError,
    TimeDistribution,
    _bucket_width,
    _dijkstra,
    sample_configuration,
    passage_times,
    replica_seed,
)
from crystalfpp.graph_core import spanning_tree, tree_potentials
from crystalfpp.lattice import build_preset, instantiate_window
from crystalfpp.quotient import (
    KernelSublattice,
    build_quotient,
    smith_normal_form,
    verify_diagram,
)

DET1 = TimeDistribution.deterministic(1)
EXP1 = TimeDistribution.exponential(1)

L1_BALL = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:2d}: FAIL ({elapsed:.2f}s) - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d}: PASS ({elapsed:.2f}s <= {limit_seconds}s)"
          f" - {description}")
    assert elapsed < limit_seconds, (
        f"criterion {number} runtime {elapsed:.2f}s exceeds {limit_seconds}s")


def test_01_exact_deterministic_shape():
    with criterion(1, "cubic(2) deterministic shape equals the L1 ball", 5.0):
        lat, real = build_preset("cubic2")
        shape = estimate_shape(lat, real, DET1, 16, 30, 2, 42)
        assert len(shape.directions) == 16
        assert hausdorff_distance(shape.hull, L1_BALL) < 1e-9


def test_02_analytic_quotient_time_constant():
    with criterion(2, "line-quotient exponential time constant matches 1.0", 60.0):
        lat, real = build_preset("cubic2")
        q = build_quotient(lat, real, KernelSublattice.of([(1, -1)], 2))
        est, = estimate_time_constant(q.sub_lattice, q.sub_realization, EXP1,
                                      [(2,)], 100, 200, 20240817, seed_role=1)
        assert est.replicas == 200 and est.k_max == 100
        assert abs(est.point_estimate - 1.0) <= 3 * est.std_error, (
            est.point_estimate, est.std_error)


def test_03_monotonicity_of_shapes():
    with criterion(3, "covering monotonicity: diagonal quotient and"
                      " cubic(3) onto triangular", 300.0):
        # exponential times on the diagonal quotient of the square lattice
        lat2, real2 = build_preset("cubic2")
        report = monotonicity_experiment(
            lat2, real2, KernelSublattice.of([(1, -1)], 2), EXP1,
            [(2,)], 32, 120, 20240818)
        entry = report.entries[0]
        assert entry.mu_affine <= entry.mu_quotient + entry.slack, entry
        # deterministic times: exact polytope containment of the hexagon in
        # the projected octahedron (computed from independent oracles)
        lat3, real3 = build_preset("cubic3")
        kernel3 = KernelSublattice.of([(1, 1, 1)], 3)
        q3 = build_quotient(lat3, real3, kernel3)
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        projected_ball = convex_hull_2d((q3.p_matrix @ octahedron.T).T)
        win = instantiate_window(q3.sub_lattice, q3.sub_realization, 8)
        hops = bfs_hops(win, win.vertex_index[(0, (0, 0))])
        pts = []
        for e in np.vstack([np.eye(3, dtype=int), -np.eye(3, dtype=int)]):
            z = tuple(int(4 * c) for c in q3.project_index(tuple(e)))
            d = hops[win.vertex_index[(0, z)]]
            pts.append(win.coords[win.vertex_index[(0, z)]] / d)
        hexagon = convex_hull_2d(np.array(pts))
        assert polygon_contains(projected_ball, hexagon, tol=1e-9)
        # the estimator view agrees with the oracle polytopes
        hex_dirs = [tuple(int(c) for c in q3.project_index(tuple(e)))
                    for e in np.eye(3, dtype=int)]
        hex_dirs += [tuple(-c for c in d) for d in hex_dirs]
        det_report = monotonicity_experiment(lat3, real3, kernel3, DET1,
                                             hex_dirs, 4, 2, 7)
        assert det_report.all_passed
        for e in det_report.entries:
            assert abs(e.mu_affine - e.mu_quotient) < 1e-9


def test_04_lifting_inequality_exhaustive():
    with criterion(4, "lifting inequality holds exactly on matched"
                      " sub-windows", 60.0):
        lat, real = build_preset("cubic2")
        report = lifting_inequality_check(
            lat, real, KernelSublattice.of([(1, -1)], 2),
            TimeDistribution.bernoulli(0.5), (1,), [0, 1, 2],
            mode="exhaustive", r_quotient=1, r_cover=1)
        assert report.config_count <= 1 << 20
        by_t = {r.t: r for r in report.rows}
        assert by_t[0.0].lhs_exact == Fraction(1)
        assert by_t[1.0].lhs_exact == Fraction(1, 4)
        for r in report.rows:
            assert r.lhs_exact >= r.rhs_exact, (r.t, r.lhs_exact, r.rhs_exact)


def test_05_norm_properties():
    with criterion(5, "subadditivity, homogeneity, symmetry on random"
                      " direction pairs", 300.0):
        lat, real = build_preset("cubic2")
        rng = random.Random(20240819)
        candidates = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 1)]
        pairs = []
        while len(pairs) < 8:
            x, y = rng.sample(candidates, 2)
            if x[0] * y[1] - x[1] * y[0] != 0:  # non-collinear
                pairs.append((x, y))
        scale_target = 16
        needed = {}
        for x, y in pairs:
            fx = tuple(Fraction(c) for c in x)
            fy = tuple(Fraction(c) for c in y)
            for d in (fx, fy, tuple(a + b for a, b in zip(fx, fy)),
                      tuple(2 * a for a in fx),
                      tuple(a / 2 for a in fx),
                      tuple(-a for a in fx)):
                needed[d] = None
        ests = []
        for d in needed:
            n = math.lcm(*(c.denominator for c in d))
            step_norm = max(abs(int(c * n)) for c in d)
            k = max(4, round(scale_target / step_norm))
            ests.append(estimate_time_constant(lat, real, EXP1, [d], k, 32, 4242)[0])
        report = norm_property_report(ests, tol_in_std_errors=3.0)
        kinds = {c.kind for c in report.checks}
        assert {"subadditivity", "homogeneity", "symmetry"} <= kinds
        failures = [c for c in report.checks if not c.passed]
        assert not failures, failures


def test_06_smith_normal_form_correctness():
    with criterion(6, "1000 random integer matrices: exact SNF with"
                      " oracle agreement", 10.0):
        rng = random.Random(20240820)

        def matmul(a, b):
            return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                    for row in a]

        for _ in range(1000):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            m = [[rng.randrange(-10, 11) for _ in range(cols)]
                 for _ in range(rows)]
            u, d, v = smith_normal_form(m)
            assert matmul(matmul(u, m), v) == d
            assert abs(exact_determinant(u)) == 1
            assert abs(exact_determinant(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            nz = [x for x in diag if x]
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0
            assert tuple(nz) == invariant_factors_by_minors(m)


def test_07_diagram_commutativity():
    with criterion(7, "projection diagram commutes on all preset"
                      " quotients", 5.0):
        cases = [("cubic2", [(1, -1)]), ("cubic3", [(1, 1, 1)]),
                 ("honeycomb", [])]
        for preset, kernel in cases:
            lat, real = build_preset(preset)
            q = build_quotient(lat, real, KernelSublattice.of(kernel, lat.dim))
            report = verify_diagram(q, radius=3, tol=1e-12)
            assert report.passed, (preset, report.max_deviation)


def test_08_tree_partition():
    with criterion(8, "lifted spanning trees partition every preset"
                      " window", 5.0):
        for preset in ("cubic2", "cubic3", "triangular", "honeycomb", "diamond"):
            lat, real = build_preset(preset)
            tree = spanning_tree(lat.base)
            pot = tree_potentials(lat.base, lat.voltage, tree)
            max_r = 4 if lat.dim == 2 else 3
            for radius in range(1, max_r + 1):
                win = instantiate_window(lat, real, radius)
                parts = tree_partition(win, tree)
                seen = set()
                for cell in parts.values():
                    assert len(cell) == len(lat.base.vertices)
                    assert not (cell & seen)
                    seen |= cell
                expected = {(u, z) for (u, z) in win.vertices
                            if tuple(a - b for a, b in zip(z, pot[u])) in parts}
                assert seen == expected


def test_09_oracle_equivalence():
    with criterion(9, "shortest-path engine equals naive relaxation"
                      " oracle exactly", 30.0):
        cases = [("cubic2", 3), ("triangular", 3), ("honeycomb", 3),
                 ("diamond", 1), ("cubic3", 1)]
        for preset, radius in cases:
            lat, real = build_preset(preset)
            win = instantiate_window(lat, real, radius)
            assert len(win.vertices) <= 200
            src = (lat.base.vertices[0], (0,) * lat.dim)
            src_idx = win.vertex_index[src]
            for seed in range(50):
                cfg = sample_configuration(win, EXP1, seed)
                engine = _dijkstra(win, cfg.times, src_idx, _bucket_width(cfg.times))
                oracle = bellman_ford(win, cfg.times, src_idx)
                assert [float(t) for t in engine] == oracle


def test_10_translation_invariance():
    with criterion(10, "passage times are translation invariant in"
                       " distribution (KS test)", 120.0):
        lat, real = build_preset("cubic2")
        win = instantiate_window(lat, real, 7)
        n_half = 1200
        src_a = win.vertex_index[(0, (0, 0))]
        tgt_a = win.vertex_index[(0, (2, 1))]
        src_b = win.vertex_index[(0, (1, 0))]  # shifted by the period generator
        tgt_b = win.vertex_index[(0, (3, 1))]
        sample_a = np.empty(n_half)
        sample_b = np.empty(n_half)
        for i in range(n_half):
            cfg = sample_configuration(win, EXP1, replica_seed(999, i))
            sample_a[i] = _dijkstra(win, cfg.times, src_a, _bucket_width(cfg.times))[tgt_a]
        for i in range(n_half):
            cfg = sample_configuration(win, EXP1, replica_seed(999, n_half + i))
            sample_b[i] = _dijkstra(win, cfg.times, src_b, _bucket_width(cfg.times))[tgt_b]
        result = scipy.stats.ks_2samp(sample_a, sample_b)
        assert result.pvalue >= 0.01, result


def test_11_positivity_regimes():
    with criterion(11, "bernoulli grid: nonincreasing time constant with"
                       " exact endpoints", 300.0):
        lat, real = build_preset("cubic2")
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        report = positivity_scan(lat, real, grid, (1, 0), 25, 32, 20240821)
        assert report.nonincreasing_ok
        rows = {r.p: r for r in report.rows}
        assert rows[0.0].mu == 1.0 and rows[0.0].std_error == 0.0
        assert rows[1.0].mu == 0.0
        assert rows[0.9].mu < 0.05, rows[0.9]


def test_12_moment_gate():
    with criterion(12, "estimators refuse the heavy pareto tail and accept"
                       " the lighter one", 1.0):
        lat, real = build_preset("cubic2")
        # the witnesses 1.6 = 4 x 0.4 and 2.4 = 4 x 0.6 show the guard used the
        # edge connectivity 4 that the criterion statement pins
        with pytest.raises(MomentConditionError) as err:
            estimate_time_constant(lat, real, TimeDistribution.pareto(0.4),
                                   [(1, 0)], 2, 2, 1)
        assert "1.6" in str(err.value) and "pareto" in str(err.value)
        est, = estimate_time_constant(lat, real, TimeDistribution.pareto(0.6),
                                      [(1, 0)], 2, 2, 1)
        assert "2.4" in est.moment_witness
        assert est.point_estimate > 0
