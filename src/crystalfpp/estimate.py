"""Monte Carlo estimation of time constants and limit shapes, plus the
experiment harnesses that probe the norm properties, the covering
monotonicity of shapes, the lifting inequality, and positivity regimes.

Estimators are fixed-k plug-ins: the passage time to the k_max-th multiple of
the target translation, averaged over independent replicas.  This upper-biases
the limit slightly; the per-k trace is kept so the bias is visible.  Replica
streams come from the documented (base_seed, replica, role) splitting rule, so
serial and parallel runs produce identical output.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .fpp import (
    MomentConditionError,
    TimeDistribution,
    _dijkstra,
    moment_check,
    passage_times,
    replica_seed,
    sample_configuration,
)
from .lattice import (
    CrystalLattice,
    Realization,
    Window,
    edge_connectivity_estimate,
    instantiate_window,
    lattice_hash,
)
from .quotient import KernelSublattice, QuotientData, build_quotient, covering_fiber


class EstimatorError(RuntimeError):
    pass


class BudgetError(EstimatorError):
    """Exhaustive enumeration would exceed the configuration budget."""


# ---------------------------------------------------------------------------
# rational directions


def rational_direction(direction: Sequence) -> tuple[tuple[Fraction, ...], int, tuple[int, ...]]:
    """Parse a rational direction in lattice-basis coordinates.

    Returns (coords, N, step) where N is the minimal positive integer with
    N * coords integral and step = N * coords.
    """
    coords = tuple(Fraction(c) for c in direction)
    if all(c == 0 for c in coords):
        raise ValueError("direction must be nonzero")
    n = math.lcm(*(c.denominator for c in coords))
    step = tuple(int(c * n) for c in coords)
    return coords, n, step


# ---------------------------------------------------------------------------
# planar geometry for shapes


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Convex hull (counterclockwise, no collinear interior points)."""
    pts = sorted({(float(x), float(y)) for x, y in np.asarray(points)})
    if len(pts) <= 2:
        return np.array(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 1e-15:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def distance_to_polygon(point: Sequence[float], hull: np.ndarray) -> float:
    """Distance from a point to a convex polygon (0 inside)."""
    p = np.asarray(point, dtype=float)
    h = np.asarray(hull, dtype=float)
    if len(h) == 1:
        return float(np.linalg.norm(p - h[0]))
    inside = True
    for a, b in zip(h, np.roll(h, -1, axis=0)):
        if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) < -1e-12:
            inside = False
            break
    if inside and len(h) >= 3:
        return 0.0
    return min(_segment_distance(p, a, b) for a, b in zip(h, np.roll(h, -1, axis=0)))


def hausdorff_distance(hull_a: np.ndarray, hull_b: np.ndarray) -> float:
    """Hausdorff distance between two convex polygons (max over both vertex sets)."""
    d1 = max(distance_to_polygon(v, hull_b) for v in np.asarray(hull_a, dtype=float))
    d2 = max(distance_to_polygon(v, hull_a) for v in np.asarray(hull_b, dtype=float))
    return max(d1, d2)


def polygon_contains(outer: np.ndarray, inner: np.ndarray, tol: float = 1e-9) -> bool:
    """Is every vertex of the inner convex polygon within tol of the outer one?"""
    return all(distance_to_polygon(v, outer) <= tol for v in np.asarray(inner, dtype=float))


# ---------------------------------------------------------------------------
# replica pool

_POOL_PAYLOAD = None


def _pool_init(payload):
    global _POOL_PAYLOAD
    _POOL_PAYLOAD = payload


def _pool_call(i):
    fn, ctx = _POOL_PAYLOAD
    return fn(ctx, i)


def _map_replicas(fn, ctx, n: int, workers: int):
    """Run fn(ctx, i) for i in range(n); results in replica order.

    With workers > 1 a process pool is used; results are identical to the
    serial run because every replica derives its stream from its own index.
    """
    if workers and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, n // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=((fn, ctx),)) as ex:
            return list(ex.map(_pool_call, range(n), chunksize=chunk))
    return [fn(ctx, i) for i in range(n)]


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    m = fsum(values) / n
    if n < 2:
        return m, 0.0
    var = fsum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var / n)


def _replica_times(ctx, i):
    """Passage times and boundary flags of replica i at the target indices."""
    window, distribution, base_seed, role, source, target_idx, margin = ctx
    config = sample_configuration(window, distribution, replica_seed(base_seed, i, role))
    res = passage_times(config, source, margin=margin)
    return res.times[target_idx].tolist(), res.flags[target_idx].tolist()


def _unflagged_replicas(lattice: CrystalLattice, realization: Realization,
                        distribution: TimeDistribution, radius: int, targets, flagged,
                        replicas: int, base_seed: int, seed_role: int, margin: int,
                        workers: int, max_vertices: int, max_enlargements: int):
    """Replica (times, flags) at the vertices targets(window), on an unflagged window.

    Runs every replica on the [-radius, radius]^d window; while flagged(times,
    flags) holds for any replica, the radius grows by max(2, radius // 2) and
    all replicas rerun, at most max_enlargements times.  Returns (results,
    target indices, radius, enlargements).
    """
    source = (lattice.base.vertices[0], (0,) * lattice.dim)
    enlargements = 0
    while True:
        window = instantiate_window(lattice, realization, radius, max_vertices=max_vertices)
        target_idx = [window.vertex_index[v] for v in targets(window)]
        if not target_idx:
            raise EstimatorError("no target vertex inside the window")
        ctx = (window, distribution, base_seed, seed_role, source, target_idx, margin)
        results = _map_replicas(_replica_times, ctx, replicas, workers)
        if not any(flagged(times, flags) for times, flags in results):
            return results, target_idx, radius, enlargements
        enlargements += 1
        if enlargements > max_enlargements:
            raise EstimatorError(
                f"boundary flags persisted after {max_enlargements} window enlargements")
        radius += max(2, radius // 2)


def _moment_guard(lattice: CrystalLattice, realization: Realization,
                  distribution: TimeDistribution,
                  edge_connectivity: int | None = None) -> tuple[int, str]:
    """Edge connectivity (estimated if not given) and the moment-check witness;
    raises MomentConditionError when the moment condition fails."""
    if edge_connectivity is None:
        edge_connectivity = edge_connectivity_estimate(lattice, realization).value
    check = moment_check(distribution, edge_connectivity, lattice.dim)
    if not check.finite:
        raise MomentConditionError(check.witness)
    return edge_connectivity, check.witness


# ---------------------------------------------------------------------------
# time constants


@dataclass
class TimeConstantEstimate:
    """Plug-in estimate of the directional time constant.

    samples holds the per-replica normalized values T(0, k_max N x)/(k_max N);
    trace holds their mean at every k (convergence profile, upper-biased for
    small k).
    """

    direction: tuple[Fraction, ...]
    scale: int                      # minimal N with N*direction integral
    step: tuple[int, ...]
    point_estimate: float
    std_error: float
    samples: tuple[float, ...]
    trace: tuple[float, ...]
    k_max: int
    replicas: int
    radius_used: int
    enlargements: int
    base_seed: int
    seed_role: int
    distribution_label: str
    lattice_id: str
    edge_connectivity: int
    moment_witness: str


def estimate_time_constant(lattice: CrystalLattice, realization: Realization,
                           distribution: TimeDistribution, direction: Sequence,
                           k_max: int, replicas: int, base_seed: int, *,
                           seed_role: int = 0, margin: int = 1, slack_layers: int = 3,
                           workers: int = 1, max_vertices: int = 400_000,
                           max_enlargements: int = 4,
                           edge_connectivity: int | None = None) -> TimeConstantEstimate:
    """Monte Carlo time constant along a rational direction.

    The window is auto-sized so the farthest target is interior and no final
    sample is boundary-flagged (flagged runs trigger a deterministic window
    enlargement).  Refuses to run when the moment condition for the shape
    theorem fails, with the analytic witness in the error.
    """
    if k_max < 1 or replicas < 1:
        raise ValueError("k_max and replicas must be positive")
    coords, n_scale, step = rational_direction(direction)
    if len(coords) != lattice.dim:
        raise ValueError(f"direction has dimension {len(coords)}, lattice {lattice.dim}")
    edge_connectivity, witness = _moment_guard(lattice, realization, distribution,
                                               edge_connectivity)

    u0 = lattice.base.vertices[0]
    results, _, radius, enlargements = _unflagged_replicas(
        lattice, realization, distribution,
        max(abs(c) for c in step) * k_max + margin + slack_layers,
        lambda w: [(u0, tuple(k * c for c in step)) for k in range(1, k_max + 1)],
        lambda times, flags: flags[-1],
        replicas, base_seed, seed_role, margin, workers, max_vertices, max_enlargements)

    norm = k_max * n_scale
    samples = tuple(per_k[-1] / norm for per_k, _ in results)
    trace = tuple(fsum(per_k[k - 1] for per_k, _ in results) / replicas / (k * n_scale)
                  for k in range(1, k_max + 1))
    point, se = _mean_se(samples)
    return TimeConstantEstimate(
        direction=coords, scale=n_scale, step=step, point_estimate=point, std_error=se,
        samples=samples, trace=trace, k_max=k_max, replicas=replicas, radius_used=radius,
        enlargements=enlargements, base_seed=base_seed, seed_role=seed_role,
        distribution_label=distribution.label(),
        lattice_id=lattice_hash(lattice, realization),
        edge_connectivity=edge_connectivity, moment_witness=witness)


# ---------------------------------------------------------------------------
# shapes


@dataclass
class ShapeEstimate:
    """Radial estimates of the unit ball of the time constant.

    For two-dimensional lattices the convex hull of direction/mu is reported;
    higher dimensions get the radial table only.  When every unit-direction
    estimate falls below zero_threshold the shape is reported as unbounded
    (the zero-time regime) instead of a polygon.
    """

    dim: int
    directions: tuple[tuple[int, ...], ...]
    unit_directions: np.ndarray
    mu: np.ndarray
    std_errors: np.ndarray
    mu_unit: np.ndarray
    radial: np.ndarray
    points: np.ndarray
    hull: np.ndarray | None
    unbounded: bool
    zero_threshold: float
    k_max: int
    replicas: int
    radius_used: int
    base_seed: int
    distribution_label: str
    lattice_id: str
    samples: np.ndarray | None = None  # replicas x n_dirs normalized values

    @classmethod
    def from_samples(cls, realization: Realization, directions: Sequence[tuple[int, ...]],
                     samples: np.ndarray, zero_threshold: float, **meta) -> "ShapeEstimate":
        """Assemble the shape from a replicas x directions matrix of normalized times.

        meta carries the bookkeeping fields (k_max, replicas, radius_used,
        base_seed, distribution_label, lattice_id).
        """
        rho = realization.period_matrix()
        d = len(rho)
        n = len(directions)
        mu = np.empty(n)
        se = np.empty(n)
        for j in range(n):
            mu[j], se[j] = _mean_se(samples[:, j].tolist())
        lattice_points = np.array([rho @ np.array(z, dtype=float) for z in directions])
        lens = np.linalg.norm(lattice_points, axis=1)
        mu_unit = mu / lens
        unbounded = bool(np.all(mu_unit < zero_threshold))
        if unbounded:
            radial = np.full(n, math.inf)
            points = np.full((n, d), math.inf)
            hull = None
        else:
            safe_mu = np.maximum(mu, 1e-300)
            radial = lens / safe_mu
            points = lattice_points / safe_mu[:, None]
            hull = convex_hull_2d(points) if d == 2 else None
        return cls(dim=d, directions=tuple(directions),
                   unit_directions=lattice_points / lens[:, None], mu=mu, std_errors=se,
                   mu_unit=mu_unit, radial=radial, points=points, hull=hull,
                   unbounded=unbounded, zero_threshold=zero_threshold, samples=samples,
                   **meta)

    def radial_interval(self, j: int, z: float = 3.0) -> tuple[float, float]:
        """CI for the radial extent along direction j, from mu +- z std errors."""
        scale = float(np.linalg.norm(self.points[j] * self.mu[j]))
        hi_mu = self.mu[j] + z * self.std_errors[j]
        lo_mu = max(self.mu[j] - z * self.std_errors[j], 1e-300)
        return scale / hi_mu, scale / lo_mu


def _primitive_box_vectors(dim: int, max_coord: int) -> list[tuple[int, ...]]:
    import itertools

    out = []
    for z in itertools.product(range(-max_coord, max_coord + 1), repeat=dim):
        if any(z) and math.gcd(*(abs(c) for c in z)) == 1:
            out.append(z)
    return sorted(out)


def angular_direction_grid(realization: Realization, n_dirs: int,
                           max_coord: int = 2) -> list[tuple[int, ...]]:
    """Primitive integer directions approximating an even angular grid (d=2)."""
    rho = realization.period_matrix()
    cands = _primitive_box_vectors(2, max_coord)
    units = {}
    for z in cands:
        v = rho @ np.array(z, dtype=float)
        units[z] = v / np.linalg.norm(v)
    dirs: list[tuple[int, ...]] = []
    for j in range(n_dirs):
        theta = 2 * math.pi * j / n_dirs
        target = np.array([math.cos(theta), math.sin(theta)])
        best = max(cands, key=lambda z: (round(float(units[z] @ target), 12),
                                         tuple(-abs(c) for c in z), z))
        if best not in dirs:
            dirs.append(best)
    return dirs


def estimate_shape(lattice: CrystalLattice, realization: Realization,
                   distribution: TimeDistribution, n_dirs: int, k_max: int,
                   replicas: int, base_seed: int, *, max_coord: int = 2,
                   zero_threshold: float = 0.02, seed_role: int = 0, margin: int = 1,
                   slack_layers: int = 3, workers: int = 1,
                   max_vertices: int = 400_000, max_enlargements: int = 4,
                   edge_connectivity: int | None = None) -> ShapeEstimate:
    """Estimate the limit shape from directional time constants.

    One shortest-path run per replica serves every direction (single source).
    """
    d = lattice.dim
    _moment_guard(lattice, realization, distribution, edge_connectivity)
    if d == 2:
        dirs = angular_direction_grid(realization, n_dirs, max_coord)
    elif d == 1:
        dirs = [(1,), (-1,)]
    else:
        dirs = _primitive_box_vectors(d, 1)
    if not dirs:
        raise EstimatorError("no directions to estimate")

    u0 = lattice.base.vertices[0]
    results, _, radius, _ = _unflagged_replicas(
        lattice, realization, distribution,
        k_max * max(max(abs(c) for c in z) for z in dirs) + margin + slack_layers,
        lambda w: [(u0, tuple(k_max * c for c in z)) for z in dirs],
        lambda times, flags: any(flags),
        replicas, base_seed, seed_role, margin, workers, max_vertices, max_enlargements)
    samples = np.array([times for times, _ in results]) / k_max
    return ShapeEstimate.from_samples(
        realization, dirs, samples, zero_threshold, k_max=k_max, replicas=replicas,
        radius_used=radius, base_seed=base_seed, distribution_label=distribution.label(),
        lattice_id=lattice_hash(lattice, realization))


# ---------------------------------------------------------------------------
# norm properties


@dataclass(frozen=True)
class NormCheck:
    kind: str
    detail: str
    lhs: float
    rhs: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.slack


@dataclass
class NormPropertyReport:
    checks: tuple[NormCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def norm_property_report(estimates: Iterable[TimeConstantEstimate],
                         tol_in_std_errors: float = 3.0,
                         abs_floor: float = 1e-9) -> NormPropertyReport:
    """Check subadditivity, rational homogeneity, and symmetry on estimates.

    Every pair (x, y) with x+y also estimated is checked for subadditivity;
    every collinear pair for homogeneity; antipodal pairs for symmetry.
    Slack is tol_in_std_errors pooled standard errors, floored at abs_floor
    so deterministic runs compare at absolute tolerance.
    """
    ests = list(estimates)
    if not ests:
        raise ValueError("no estimates given")
    ident = {(e.distribution_label, e.lattice_id, e.base_seed) for e in ests}
    if len(ident) != 1:
        raise ValueError("mismatched inputs: estimates differ in lattice/distribution/seed")
    by_dir: dict[tuple[Fraction, ...], TimeConstantEstimate] = {}
    for e in ests:
        by_dir[e.direction] = e

    def pooled(*es: TimeConstantEstimate) -> float:
        return math.sqrt(fsum(e.std_error ** 2 for e in es))

    checks: list[NormCheck] = []
    dirs = list(by_dir)
    for i, x in enumerate(dirs):
        for y in dirs[i + 1:]:
            s = tuple(a + b for a, b in zip(x, y))
            if s in by_dir:
                ex, ey, es_ = by_dir[x], by_dir[y], by_dir[s]
                slack = max(tol_in_std_errors * pooled(ex, ey, es_), abs_floor)
                checks.append(NormCheck(
                    "subadditivity", f"{s} vs {x} + {y}",
                    es_.point_estimate, ex.point_estimate + ey.point_estimate, slack))
    for x in dirs:
        for y in dirs:
            if x == y:
                continue
            ratios = {b / a for a, b in zip(x, y) if a != 0}
            if len(ratios) != 1 or any(a == 0 and b != 0 for a, b in zip(x, y)):
                continue
            c = ratios.pop()
            ex, ey = by_dir[x], by_dir[y]
            scale = abs(float(c))
            slack = max(tol_in_std_errors * math.sqrt(
                ey.std_error ** 2 + (scale * ex.std_error) ** 2), abs_floor)
            kind = "symmetry" if c == -1 else "homogeneity"
            diff = abs(ey.point_estimate - scale * ex.point_estimate)
            checks.append(NormCheck(kind, f"{y} vs {c} * {x}", diff, 0.0, slack))
    return NormPropertyReport(tuple(checks))


# ---------------------------------------------------------------------------
# monotonicity of shapes under quotients


@dataclass
class MonotonicityEntry:
    direction: tuple[Fraction, ...]
    mu_quotient: float
    se_quotient: float
    mu_affine: float
    se_affine: float
    slack: float
    fiber_size: int
    radius_cover: int

    @property
    def passed(self) -> bool:
        return self.mu_affine <= self.mu_quotient + self.slack


@dataclass
class MonotonicityReport:
    qdata: QuotientData
    entries: tuple[MonotonicityEntry, ...]
    k_max: int
    replicas: int
    base_seed: int
    distribution_label: str

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def monotonicity_experiment(lattice: CrystalLattice, realization: Realization,
                            kernel: KernelSublattice, distribution: TimeDistribution,
                            quotient_directions: Sequence[Sequence], k_max: int,
                            replicas: int, base_seed: int, *, slack_z: float = 3.0,
                            margin: int = 1, slack_layers: int = 3, fiber_halo: int = 6,
                            workers: int = 1, max_vertices: int = 400_000,
                            max_enlargements: int = 4) -> MonotonicityReport:
    """Compare quotient time constants with point-to-affine times on the cover.

    For each quotient direction the quotient estimate mu1 and the cover-side
    estimate of the passage time to the preimage affine subspace are computed
    from independent configuration streams; covering monotonicity of limit
    shapes predicts affine <= quotient within statistical slack.
    """
    qdata = build_quotient(lattice, realization, kernel)
    _moment_guard(lattice, realization, distribution)
    l_quot, _ = _moment_guard(qdata.sub_lattice, qdata.sub_realization, distribution)

    rho_inv = np.linalg.inv(realization.period_matrix())
    u0 = lattice.base.vertices[0]
    entries = []
    for direction in quotient_directions:
        coords, n_scale, step1 = rational_direction(direction)
        if len(coords) != qdata.dim_quotient:
            raise ValueError("quotient direction has wrong dimension")
        est1 = estimate_time_constant(
            qdata.sub_lattice, qdata.sub_realization, distribution, direction,
            k_max, replicas, base_seed, seed_role=1, margin=margin,
            slack_layers=slack_layers, workers=workers, max_vertices=max_vertices,
            max_enlargements=max_enlargements, edge_connectivity=l_quot)

        target1 = tuple(k_max * c for c in step1)
        # window around the Euclidean foot of the preimage affine subspace
        foot = qdata.p_matrix.T @ (qdata.sub_realization.period_matrix()
                                   @ np.array(target1, dtype=float))
        z_near = rho_inv @ foot
        results, fiber_idx, radius, _ = _unflagged_replicas(
            lattice, realization, distribution,
            int(np.ceil(np.max(np.abs(z_near)))) + margin + slack_layers + fiber_halo,
            lambda w: covering_fiber(qdata, (u0, target1), w),
            lambda times, flags: flags[int(np.argmin(times))],
            replicas, base_seed, 0, margin, workers, max_vertices, max_enlargements)

        norm = k_max * n_scale
        vals = [min(times) / norm for times, _ in results]
        mu_a, se_a = _mean_se(vals)
        slack = max(slack_z * math.sqrt(se_a ** 2 + est1.std_error ** 2), 1e-9)
        entries.append(MonotonicityEntry(
            direction=coords, mu_quotient=est1.point_estimate,
            se_quotient=est1.std_error, mu_affine=mu_a, se_affine=se_a,
            slack=slack, fiber_size=len(fiber_idx), radius_cover=radius))
    return MonotonicityReport(qdata, tuple(entries), k_max, replicas, base_seed,
                              distribution.label())


# ---------------------------------------------------------------------------
# lifting inequality


@dataclass(frozen=True)
class LiftRow:
    t: float
    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float
    lhs_exact: Fraction | None
    rhs_exact: Fraction | None
    slack: float

    @property
    def passed(self) -> bool:
        if self.lhs_exact is not None:
            return self.lhs_exact >= self.rhs_exact
        return self.lhs >= self.rhs - self.slack


@dataclass
class LiftReport:
    mode: str
    rows: tuple[LiftRow, ...]
    fiber_size: int
    radius_quotient: int
    radius_cover: int
    config_count: int
    replicas: int
    window_restricted: bool = True

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _exact_fraction(x: float) -> Fraction:
    """The Fraction a number prints as; nan and inf raise ValueError."""
    try:
        return Fraction(str(x))
    except ValueError:
        raise ValueError(f"not a finite number: {x!r}") from None


def _enumerate_tail(window: Window, source, targets: Sequence[int], p: Fraction,
                    low: int, high: int, thresholds: Sequence) -> list[Fraction]:
    """Exact P(min over targets of T >= t) for each threshold t, two-point times.

    Orbit j takes the integer weight high where bit j of the mask is set
    (probability 1 - p) and low elsewhere.  Every mask gets one search, and
    the masks are counted by (least target time, number of high orbits); each
    threshold's probability is then summed once from those counts.
    """
    m = len(window.orbit_keys)
    src = window.vertex_index[source]
    counts = Counter()
    for mask in range(1 << m):
        dist = _dijkstra(window, [high if (mask >> j) & 1 else low for j in range(m)], src)
        counts[min(dist[i] for i in targets), mask.bit_count()] += 1
    w = [p ** (m - c) * (1 - p) ** c for c in range(m + 1)]
    return [sum((n * w[c] for (time, c), n in counts.items() if time >= t), Fraction(0))
            for t in thresholds]


def _lift_mc_replica(ctx, i):
    """Replica i's quotient time T1(0, x1) and least cover time over the fiber."""
    window1, window_x, distribution, base_seed, source1, target1_idx, source_x, \
        fiber_idx = ctx
    c1 = sample_configuration(window1, distribution, replica_seed(base_seed, i, 1))
    cx = sample_configuration(window_x, distribution, replica_seed(base_seed, i, 0))
    d1 = _dijkstra(window1, c1.times.tolist(), window1.vertex_index[source1])
    dx = _dijkstra(window_x, cx.times.tolist(), window_x.vertex_index[source_x])
    return d1[target1_idx], min(dx[j] for j in fiber_idx)


def lifting_inequality_check(lattice: CrystalLattice, realization: Realization,
                             kernel: KernelSublattice, distribution: TimeDistribution,
                             target_index: Sequence[int], t_grid: Sequence[float],
                             mode: str = "exhaustive", *, budget: int = 1 << 22,
                             r_quotient: int = 1, r_cover: int = 1,
                             replicas: int = 10_000, base_seed: int = 0,
                             slack_z: float = 3.0, workers: int = 1) -> LiftReport:
    """Probe P(T1(0,x1) >= t) >= P(T(0,y) >= t for every window lift y).

    Both sides use passage times restricted to matched windows, mirroring the
    restricted-time device of the proof; results are window-restricted
    relaxations of the infinite-lattice statement.  Exhaustive mode enumerates
    every two-point assignment exactly: low, high and the thresholds are scaled
    by the least common denominator of low and high, so the weights are ints.
    """
    qdata = build_quotient(lattice, realization, kernel)
    window1 = instantiate_window(qdata.sub_lattice, qdata.sub_realization, r_quotient)
    window_x = instantiate_window(lattice, realization, r_cover)
    u0 = lattice.base.vertices[0]
    source1 = (u0, (0,) * qdata.dim_quotient)
    target1 = (u0, tuple(int(c) for c in target_index))
    if not window1.contains(*target1):
        raise EstimatorError(f"target {target1} is outside the quotient window")
    target1_idx = window1.vertex_index[target1]
    source_x = (u0, (0,) * lattice.dim)
    fiber_idx = [window_x.vertex_index[v] for v in covering_fiber(qdata, target1, window_x)]
    if not fiber_idx:
        raise EstimatorError("fiber of the target is empty in the cover window")
    thresholds = [_exact_fraction(t) for t in t_grid]

    if mode == "exhaustive":
        if distribution.family != "bernoulli":
            raise EstimatorError("exhaustive mode needs an atomic (bernoulli) distribution")
        m1, mx = len(window1.orbit_keys), len(window_x.orbit_keys)
        count = (1 << m1) + (1 << mx)
        if count > budget:
            raise BudgetError(
                f"exhaustive enumeration needs {count} configurations"
                f" ({m1} + {mx} orbits), above the budget {budget}")
        p, low, high = (_exact_fraction(v) for v in distribution.params)
        scale = math.lcm(low.denominator, high.denominator)
        low, high = int(low * scale), int(high * scale)
        scaled = [t * scale for t in thresholds]
        lhs = _enumerate_tail(window1, source1, [target1_idx], p, low, high, scaled)
        rhs = _enumerate_tail(window_x, source_x, fiber_idx, p, low, high, scaled)
        rows = tuple(LiftRow(float(t), float(l), float(r), 0.0, 0.0, l, r, 0.0)
                     for t, l, r in zip(thresholds, lhs, rhs))
        return LiftReport("exhaustive", rows, len(fiber_idx), r_quotient, r_cover,
                          count, 0)

    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    ctx = (window1, window_x, distribution, base_seed, source1, target1_idx,
           source_x, fiber_idx)
    results = _map_replicas(_lift_mc_replica, ctx, replicas, workers)
    rows = []
    for t in thresholds:
        lhs_hat = sum(t1 >= t for t1, _ in results) / replicas
        rhs_hat = sum(fiber_min >= t for _, fiber_min in results) / replicas
        se_l = math.sqrt(lhs_hat * (1 - lhs_hat) / replicas)
        se_r = math.sqrt(rhs_hat * (1 - rhs_hat) / replicas)
        slack = slack_z * math.sqrt(se_l ** 2 + se_r ** 2)
        rows.append(LiftRow(float(t), lhs_hat, rhs_hat, se_l, se_r, None, None, slack))
    return LiftReport("monte_carlo", tuple(rows), len(fiber_idx), r_quotient, r_cover,
                      0, replicas)


# ---------------------------------------------------------------------------
# positivity scan


@dataclass(frozen=True)
class PositivityRow:
    p: float
    mu: float
    std_error: float
    zero_flag: bool


@dataclass
class PositivityReport:
    rows: tuple[PositivityRow, ...]
    nonincreasing_ok: bool
    zero_ps: tuple[float, ...]
    direction: tuple[Fraction, ...]


def positivity_scan(lattice: CrystalLattice, realization: Realization,
                    p_grid: Sequence[float], direction: Sequence, k_max: int,
                    replicas: int, base_seed: int, *, slack_z: float = 3.0,
                    workers: int = 1, max_vertices: int = 400_000) -> PositivityReport:
    """Time constant across a grid of zero-time probabilities.

    Larger atoms at zero can only lower the time constant; the report checks
    the estimates are nonincreasing within slack and flags the p values whose
    estimate is statistically indistinguishable from zero.
    """
    l_x = edge_connectivity_estimate(lattice, realization).value
    rows = []
    for idx, p in enumerate(p_grid):
        est = estimate_time_constant(
            lattice, realization, TimeDistribution.bernoulli(p), direction,
            k_max, replicas, base_seed, seed_role=idx, workers=workers,
            max_vertices=max_vertices, edge_connectivity=l_x)
        zero = est.point_estimate <= slack_z * est.std_error + 1e-12
        rows.append(PositivityRow(float(p), est.point_estimate, est.std_error, zero))
    ok = True
    for a, b in zip(rows, rows[1:]):
        slack = slack_z * math.sqrt(a.std_error ** 2 + b.std_error ** 2) + 1e-9
        if b.mu > a.mu + slack:
            ok = False
    return PositivityReport(tuple(rows), ok, tuple(r.p for r in rows if r.zero_flag),
                            rational_direction(direction)[0])
