import random

import numpy as np
import pytest

from oracles import exact_determinant, invariant_factors_by_minors
from oracles import affine_vertices, passage_to_affine

from crystalfpp.fpp import TimeDistribution, passage_times, sample_configuration
from crystalfpp.lattice import LatticeError, Realization, build_preset, instantiate_window
from crystalfpp.quotient import (
    KernelSublattice,
    RankError,
    TorsionError,
    build_quotient,
    covering_fiber,
    invariant_factors,
    smith_normal_form,
    verify_diagram,
)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def assert_snf_valid(m):
    u, d, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    assert abs(exact_determinant(u)) == 1
    assert abs(exact_determinant(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(d)):
        for j in range(len(d[0]) if d else 0):
            if i != j:
                assert d[i][j] == 0
    nz = [x for x in diag if x]
    assert all(x > 0 for x in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # no nonzero entry after a zero on the diagonal
    seen_zero = False
    for x in diag:
        if x == 0:
            seen_zero = True
        elif seen_zero:
            pytest.fail("zero before nonzero invariant factor")
    return tuple(nz)


PRESET_KERNELS = [("cubic2", ((1, -1),)), ("cubic2", ()), ("cubic3", ((1, 1, 1),)),
                  ("cubic3", ((5, -4, 3),)), ("diamond", ((0, 0, 1),)),
                  ("cubic4", ((1, 1, 0, 0), (0, 1, 1, 2)))]
# (q, section) at the values the earlier Fraction Gauss-Jordan inverse of U
# gave; quotient files and hashes depend on them
PINNED_SECTIONS = {
    ("cubic3", ((1, 1, 1),)): (((-1, 1, 0), (-1, 0, 1)), ((0, 0), (1, 0), (0, 1))),
    ("cubic3", ((5, -4, 3),)): (((0, 3, 4), (1, -1, -3)), ((2, 1), (-1, 0), (1, 0))),
}


def random_kernels(n, seed=2024):
    """n valid kernels on cubic2-cubic4: rank 1 to d - 1, entries in -5..5."""
    rng, out = random.Random(seed), []
    while len(out) < n:
        d = rng.randrange(2, 5)
        columns = tuple(tuple(rng.randrange(-5, 6) for _ in range(d))
                        for _ in range(rng.randrange(1, d)))
        try:
            KernelSublattice.of(columns, d)
        except LatticeError:  # dependent columns or a torsion quotient
            continue
        out.append((f"cubic{d}", columns))
    return out


class TestSmithNormalForm:
    def test_single_column(self):
        factors = assert_snf_valid([[1], [-1]])
        assert factors == (1,)
        assert invariant_factors([[1], [-1]]) == (1,)

    def test_already_diagonal(self):
        assert invariant_factors([[2, 0], [0, 2]]) == (2, 2)

    def test_textbook_matrix(self):
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        assert assert_snf_valid(m) == (2, 2, 156)

    def test_zero_matrix(self):
        u, d, v = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]
        assert invariant_factors([[0, 0], [0, 0]]) == ()

    def test_random_matrices_against_minor_oracle(self):
        rng = random.Random(321)
        for _ in range(1000):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 3)
            m = [[rng.randrange(-10, 11) for _ in range(cols)] for _ in range(rows)]
            factors = assert_snf_valid(m)
            assert factors == invariant_factors_by_minors(m)

    def test_large_entries_no_overflow(self):
        m = [[10**12, 3], [7, 10**15]]
        factors = assert_snf_valid(m)
        assert factors == invariant_factors_by_minors(m)


class TestKernelSublattice:
    def test_valid_diagonal_kernel(self):
        k = KernelSublattice.of([(1, -1)], 2)
        assert k.rank == 1
        assert k.matrix() == [[1], [-1]]

    def test_torsion_rejected_with_factors(self):
        with pytest.raises(TorsionError) as err:
            KernelSublattice.of([(2, 0)], 2)
        assert err.value.factors == (2,)

    def test_dependent_columns_rejected(self):
        with pytest.raises(RankError):
            KernelSublattice.of([(1, 1), (2, 2)], 2)

    def test_empty_kernel(self):
        k = KernelSublattice.of([], 2)
        assert k.rank == 0


class TestBuildQuotient:
    def test_cubic2_diagonal_gives_line_with_parallel_edges(self):
        lat, real = build_preset("cubic2")
        q = build_quotient(lat, real, KernelSublattice.of([(1, -1)], 2))
        assert q.dim_quotient == 1
        orbits = q.sub_lattice.base.edge_orbits()
        assert len(orbits) == 2
        volts = {abs(q.sub_lattice.voltage[o][0]) for o in orbits}
        assert volts == {1}  # two parallel orbits, each one quotient step
        # q kills the kernel and q o section = identity
        assert q.project_index((1, -1)) == (0,)
        assert q.project_index(tuple(r[0] for r in q.section)) == (1,)

    def test_cubic3_triangular_geometry(self):
        lat, real = build_preset("cubic3")
        q = build_quotient(lat, real, KernelSublattice.of([(1, 1, 1)], 3))
        assert q.dim_quotient == 2
        # images of the three basis loops are unit steps at 120 degrees
        rho1 = q.sub_realization.period_matrix()
        imgs = [rho1 @ np.array(q.project_index(e), float)
                for e in np.eye(3, dtype=int)]
        for v in imgs:
            assert np.linalg.norm(v) == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        assert np.max(np.abs(imgs[0] + imgs[1] + imgs[2])) < 1e-12

    def test_torsion_kernel_rejected(self):
        # the constructor itself validates, so a kernel built directly is checked too
        lat, real = build_preset("cubic2")
        with pytest.raises(TorsionError):
            build_quotient(lat, real, KernelSublattice(((2, 0),), 2))

    @pytest.mark.parametrize("preset,columns", PRESET_KERNELS + random_kernels(24),
                             ids=lambda c: ";".join(",".join(map(str, col)) for col in c)
                             if isinstance(c, tuple) else c)
    def test_section_is_the_tail_of_the_inverse_of_u(self, preset, columns):
        # U K V = [I; 0]: q is U's last d1 rows, and section is the last d1
        # columns of U^-1, so U @ section = [0; I] pins it
        lat, real = build_preset(preset)
        kernel = KernelSublattice.of(columns, lat.dim)
        q = build_quotient(lat, real, kernel)
        r, d1 = kernel.rank, q.dim_quotient
        eye = [[int(i == j) for j in range(d1)] for i in range(d1)]
        assert matmul(q.q, q.section) == eye
        if r:
            assert matmul(q.q, kernel.matrix()) == [[0] * r for _ in range(d1)]
        u = smith_normal_form(kernel.matrix())[0]
        assert matmul(u, q.section) == [[0] * d1 for _ in range(r)] + eye
        if (preset, columns) in PINNED_SECTIONS:
            assert (q.q, q.section) == PINNED_SECTIONS[preset, columns]

    @pytest.mark.parametrize("preset,column,failure", [
        ("cubic3", (10 ** 30, 1, 0), "projection image is rank deficient"),
        ("cubic2", (10 ** 8, 1), "quotient period matrix is singular"),
    ])
    def test_float_degenerate_kernel_is_named(self, preset, column, failure):
        lat, real = build_preset(preset)
        kernel = KernelSublattice.of([column], lat.dim)
        text = ",".join(map(str, column))
        with pytest.raises(LatticeError, match=(
                f"^kernel {text} is too degenerate for a float64 projection: {failure}$")):
            build_quotient(lat, real, kernel)

    def test_projection_rows_orthonormal(self):
        lat, real = build_preset("honeycomb")
        q = build_quotient(lat, real, KernelSublattice.of([(1, 0)], 2))
        p = q.p_matrix
        assert np.allclose(p @ p.T, np.eye(q.dim_quotient), atol=1e-12)
        # P kills the realized kernel
        rho = real.period_matrix()
        assert np.max(np.abs(p @ (rho @ np.array([1, 0])))) < 1e-12

    def test_full_rank_quotient_period(self):
        for preset, kernel in (("cubic2", [(1, -1)]), ("cubic3", [(1, 1, 1)]),
                               ("honeycomb", [])):
            lat, real = build_preset(preset)
            q = build_quotient(lat, real, KernelSublattice.of(kernel, lat.dim))
            rho1 = q.sub_realization.period_matrix()
            assert abs(np.linalg.det(rho1)) > 1e-9


class TestCoveringFiber:
    def setup_method(self):
        self.lat, self.real = build_preset("cubic2")
        self.q = build_quotient(self.lat, self.real,
                                KernelSublattice.of([(1, -1)], 2))
        self.win = instantiate_window(self.lat, self.real, 2)

    def test_fiber_of_origin_is_kernel_translates(self):
        fiber = covering_fiber(self.q, (0, (0,)), self.win)
        assert fiber == [(0, (k, -k)) for k in range(-2, 3)]

    def test_fiber_of_index_one_exhaustive(self):
        # oracle: exhaustive window scan of indices with a + b == 1
        expected = sorted((0, (a, b)) for a in range(-2, 3) for b in range(-2, 3)
                          if a + b == 1)
        fiber = covering_fiber(self.q, (0, (1,)), self.win)
        assert sorted(fiber) == expected
        assert len(fiber) == 4

    def test_trivial_kernel_fiber_is_single_vertex(self):
        lat, real = build_preset("honeycomb")
        q = build_quotient(lat, real, KernelSublattice.of([], 2))
        win = instantiate_window(lat, real, 2)
        fiber = covering_fiber(q, (1, (1, -1)), win)
        assert fiber == [(1, (1, -1))]

    def test_matches_per_vertex_projection_rule(self):
        # honeycomb has two base vertices, so the fiber must also match the
        # base vertex, not only the projected index
        lat, real = build_preset("honeycomb")
        q = build_quotient(lat, real, KernelSublattice.of([(1, 1)], 2))
        win = instantiate_window(lat, real, 3)
        for u in lat.base.vertices:
            for t in range(-7, 8):
                expected = [v for v in win.vertices
                            if v[0] == u and q.project_index(v[1]) == (t,)]
                assert covering_fiber(q, (u, (t,)), win) == expected
        with pytest.raises(LatticeError):
            covering_fiber(q, (0, (1, 0)), win)

    def test_fiber_lies_on_preimage_affine(self):
        # all fiber points project to the same image point under P
        fiber = covering_fiber(self.q, (0, (1,)), self.win)
        p = self.q.p_matrix
        rho = self.real.period_matrix()
        images = {tuple(np.round(p @ (rho @ np.array(z, float)), 9)) for _, z in fiber}
        assert len(images) == 1

    @pytest.mark.parametrize("preset,kernel,radius,targets", [
        ("cubic2", [(1, -1)], 4, [(1,), (3,), (-2,)]),
        ("cubic3", [(1, 1, 1)], 3, [(1, 0), (2, -1), (-1, 3)]),
    ])
    @pytest.mark.parametrize("law", ["exponential:1", "bernoulli:0.5"])
    def test_fiber_is_the_geometric_preimage(self, preset, kernel, radius, targets, law):
        # the estimator's cover-side group is the algebraic fiber; the paper's is
        # the preimage of the quotient point under P, found here geometrically
        lat, real = build_preset(preset)
        q = build_quotient(lat, real, KernelSublattice.of(kernel, lat.dim))
        win = instantiate_window(lat, real, radius)
        source = (0, (0,) * lat.dim)
        for target1 in targets:
            affine = (q.p_matrix, np.add(q.sub_realization.positions[0],
                                         q.sub_realization.period_matrix() @ target1))
            fiber = [win.vertex_index[v] for v in covering_fiber(q, (0, target1), win)]
            assert affine_vertices(win, affine) == fiber
            for seed in range(6):
                cfg = sample_configuration(win, TimeDistribution.parse(law), seed)
                (fiber_min,), _ = passage_times(cfg, source, targets=[fiber])
                assert passage_to_affine(cfg, real.positions[0], affine).time == fiber_min


class TestVerifyDiagram:
    @pytest.mark.parametrize("preset,kernel", [
        ("cubic2", [(1, -1)]),
        ("cubic3", [(1, 1, 1)]),
        ("honeycomb", []),
    ])
    def test_preset_quotients_commute(self, preset, kernel):
        lat, real = build_preset(preset)
        q = build_quotient(lat, real, KernelSublattice.of(kernel, lat.dim))
        report = verify_diagram(q, radius=3, tol=1e-12)
        assert report.passed, report.max_deviation

    def test_fault_injection_detected(self):
        lat, real = build_preset("cubic2")
        q = build_quotient(lat, real, KernelSublattice.of([(1, -1)], 2))
        broken = {u: (p[0] + 0.1,) for u, p in q.sub_realization.positions.items()}
        q.sub_realization = Realization(broken, q.sub_realization.period)
        report = verify_diagram(q, radius=3, tol=1e-12)
        assert not report.passed
        assert report.max_deviation > 0.05

    def test_local_edge_bijection(self):
        # covering map: the edge set at x maps bijectively onto edges at
        # project(x), consistently with voltages
        lat, real = build_preset("honeycomb")
        q = build_quotient(lat, real, KernelSublattice.of([(1, 0)], 2))
        win = instantiate_window(lat, real, 2)
        for (u, z) in win.vertices:
            for eid in lat.base.out_edges(u):
                e = lat.base.half_edges[eid]
                z2 = tuple(a + b for a, b in zip(z, lat.voltage[eid]))
                lhs = (e.terminus, q.project_index(z2))
                rhs = (e.terminus, tuple(a + b for a, b in zip(
                    q.project_index(z), q.sub_lattice.voltage[eid])))
                assert lhs == rhs
