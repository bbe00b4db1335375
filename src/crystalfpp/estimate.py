"""Monte Carlo estimation of time constants and limit shapes, plus the
experiment harnesses that probe the covering monotonicity of shapes, the
lifting inequality, and positivity regimes.

Estimators are fixed-k plug-ins: the passage time to the k_max-th multiple of
the target translation, averaged over independent replicas.  This upper-biases
the limit slightly; the per-k trace is kept so the bias is visible.  Replica
streams come from the documented (base_seed, replica, role) splitting rule, so
serial and parallel runs produce identical output.

Each estimator solves all its directions in one batch of replicas per side
(_unflagged_replicas): one search per replica reaches every direction's target
groups, and only the replicas flagged at the window boundary rerun, for every
direction, on an enlarged window.  A positivity grid is one batch as well, of
(p, replica) pairs that share each window.  A replica keeps its edge times
when its window grows (see fpp.sample_configuration), so the replicas stay
i.i.d.  With workers > 1, a batch's calling process solves one strided share
of its replicas beside a forked pool that solves the others (_map_replicas).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import fsum
from typing import Sequence

import numpy as np

from .fpp import (
    MomentConditionError,
    TimeDistribution,
    _dijkstra,
    _stop_table,
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


def _pool_chunk(chunk):
    fn, ctx = _POOL_PAYLOAD
    return [fn(ctx, i) for i in chunk]


def _map_replicas(fn, ctx, indices, workers: int) -> list:
    """[fn(ctx, i) for i in indices], in that order.

    The indices run on p = min(workers, len(indices) // POOL_MIN_SHARE)
    processes, at least one, and process k solves the strided share
    indices[k::p]: the calling process share 0, a pool of p - 1 processes
    the others, one submit each.  Striding gives every process its part of
    every law of a positivity grid (index = law * replicas + replica), whose
    searches cost differently.  Results equal the serial run's because every
    replica derives its stream from its own index.  The pool is shut down
    before the call returns, so no worker outlives it.
    """
    indices = list(indices)
    p = min(workers, max(1, len(indices) // POOL_MIN_SHARE))
    if p < 2:
        return [fn(ctx, i) for i in indices]
    from concurrent.futures import ProcessPoolExecutor

    results = [None] * len(indices)
    pool = ProcessPoolExecutor(max_workers=p - 1, initializer=_pool_init,
                               initargs=((fn, ctx),))
    try:
        futures = [pool.submit(_pool_chunk, indices[k::p]) for k in range(1, p)]
        results[0::p] = [fn(ctx, i) for i in indices[0::p]]
        for k, future in enumerate(futures, 1):
            results[k::p] = future.result()
        return results
    finally:
        pool.shutdown(cancel_futures=True)


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    m = fsum(values) / n
    if n < 2:
        return m, 0.0
    var = fsum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var / n)


# the least verdict slack, the absolute tolerance of runs whose standard errors are 0
SLACK_FLOOR = 1e-9


def _slack(z: float, *std_errors: float) -> float:
    """z pooled standard errors, and at least SLACK_FLOOR."""
    return max(z * math.sqrt(fsum(s ** 2 for s in std_errors)), SLACK_FLOOR)


MARGIN = 1            # outer layers the restricted search forbids: the boundary flag
SLACK_LAYERS = 3      # first-window room past the farthest target, for bending routes
FIBER_HALO = 6        # cover-side room: the fiber spreads around the affine foot
MAX_ENLARGEMENTS = 4  # beyond this a flagged window is an error, not a larger run
POOL_MIN_SHARE = 2    # replicas per pool worker: starting one costs about one solve


def _replica_times(ctx, index):
    """Target group times of one (law, replica) pair, and whether a watched
    group is flagged.  index = law * replicas + replica, so a one-law batch
    indexes its replicas directly."""
    window, laws, base_seed, replicas, source, groups, watched = ctx
    law, i = divmod(index, replicas)
    distribution, role = laws[law]
    config = sample_configuration(window, distribution, replica_seed(base_seed, i, role))
    return passage_times(config, source, MARGIN, targets=groups, watched=watched)


def _unflagged_replicas(lattice: CrystalLattice, realization: Realization, laws,
                        reach: int, targets, replicas: int, base_seed: int, workers: int):
    """Every law's and direction's group times per replica, each replica's
    taken on the first window where it is unflagged.

    laws lists (distribution, seed role) pairs; replica i of a law samples
    that distribution from stream (base_seed, i, role), so a batch of several
    laws gives each law the values a batch of that law alone gives.
    targets(window) gives each direction's groups of vertex indices; a group's
    time is the least time of its members.  One search per (law, replica)
    pair serves all the groups, and the pair is flagged when the last group
    of any direction is (see fpp.passage_times) or any group time is inf:
    every law draws finite times, so the window cut the group off, or a sum
    overflowed, which one unit-weight search tells and which is an error.
    The first window is [-R, R]^d, R = reach + MARGIN + SLACK_LAYERS, where
    reach bounds the targets' translation coordinates.  Every pending pair
    runs on the window and the unflagged ones keep their times; the flagged
    ones rerun, for every direction, on the window with R grown by
    max(2, R // 2), at most MAX_ENLARGEMENTS times.  A replica's
    configuration on a window is its configuration on any larger window
    restricted to it, so its kept value is a function of its own edge times
    and the replicas stay i.i.d.; drawing the flagged replicas afresh instead
    would select on the flag.  Returns (the groups of every direction on the
    last window; per law, the per-direction per-replica group times, the
    enlargements its replicas needed and each replica's R).
    """
    source = (lattice.base.vertices[0], (0,) * lattice.dim)
    radius = reach + MARGIN + SLACK_LAYERS
    kept = [[None] * replicas for _ in laws]
    radii = [[0] * replicas for _ in laws]
    spent = [0] * len(laws)
    pending = range(len(laws) * replicas)
    enlargements = 0
    while True:
        window = instantiate_window(lattice, realization, radius)
        per_direction = targets(window)
        groups = [group for direction in per_direction for group in direction]
        if not all(groups):
            raise EstimatorError("no target vertex inside the window")
        ends = list(accumulate(map(len, per_direction)))
        ctx = (window, laws, base_seed, replicas, source, groups, [e - 1 for e in ends])
        results = _map_replicas(_replica_times, ctx, pending, workers)
        flagged, hops = [], None
        for index, (times, flag) in zip(pending, results):
            law, i = divmod(index, replicas)
            if math.inf in times:  # the window cut a group off, or a sum overflowed
                hops = hops or _dijkstra(window, [1] * len(window.orbit_ends),
                                         window.vertex_index[source], 1, stop=_stop_table(groups))
                if any(t == math.inf and min(hops[v] for v in group) < math.inf
                       for group, t in zip(groups, times)):
                    raise _overflow_error(laws[law][0])
                flag = True
            if flag:
                flagged.append(index)
            else:
                kept[law][i], radii[law][i], spent[law] = times, radius, enlargements
        if not flagged:
            return per_direction, [
                ([[times[start:end] for times in law_kept]
                  for start, end in zip([0] + ends, ends)], law_spent, tuple(law_radii))
                for law_kept, law_spent, law_radii in zip(kept, spent, radii)]
        enlargements += 1
        if enlargements > MAX_ENLARGEMENTS:
            raise EstimatorError(
                f"boundary flags persisted after {MAX_ENLARGEMENTS} window enlargements")
        del window, per_direction, groups, ctx, results, hops  # free them before the next
        pending = flagged
        radius += max(2, radius // 2)


def _overflow_error(distribution: TimeDistribution) -> EstimatorError:
    return EstimatorError(f"passage times under {distribution.label()} overflow float64")


def _moment_guard(lattice: CrystalLattice, realization: Realization,
                  distribution: TimeDistribution) -> str:
    """The moment-check witness; raises MomentConditionError when the moment
    condition fails.  Only a pareto verdict depends on the edge connectivity,
    so only a pareto law pays for its max flow."""
    k = (edge_connectivity_estimate(lattice, realization).value
         if distribution.family == "pareto" else 1)
    check = moment_check(distribution, k, lattice.dim)
    if not check.finite:
        raise MomentConditionError(check.witness)
    return check.witness


# ---------------------------------------------------------------------------
# time constants


@dataclass
class TimeConstantEstimate:
    """Plug-in estimate of the directional time constant.

    samples holds the per-replica normalized values T(0, k_max N x)/(k_max N);
    trace holds their mean at every k (convergence profile, upper-biased for
    small k).  replica_radii holds the window radius each replica's value was
    taken at; radius_used is the largest.
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
    replica_radii: tuple[int, ...]
    enlargements: int
    moment_witness: str


def estimate_time_constant(lattice: CrystalLattice, realization: Realization,
                           distribution: TimeDistribution, directions: Sequence[Sequence],
                           k_max: int, replicas: int, base_seed: int, *,
                           seed_role: int = 0, workers: int = 1) -> list[TimeConstantEstimate]:
    """Monte Carlo time constants along rational directions, one per direction.

    One batch of _unflagged_replicas serves them all, so they share
    radius_used, enlargements and replica_radii.  Refuses to run when the
    moment condition for the shape theorem fails, with the analytic witness
    in the error.
    """
    return _time_constants(lattice, realization, [(distribution, seed_role)], directions,
                           k_max, replicas, base_seed, workers)[0]


def _time_constants(lattice: CrystalLattice, realization: Realization, laws,
                    directions: Sequence[Sequence], k_max: int, replicas: int,
                    base_seed: int, workers: int) -> list[list[TimeConstantEstimate]]:
    """estimate_time_constant for every (distribution, seed role) of laws, in
    one batch of _unflagged_replicas: per law, what a call with that
    distribution and seed role returns."""
    if k_max < 1 or replicas < 1:
        raise ValueError("k_max and replicas must be positive")
    parsed = [rational_direction(direction) for direction in directions]
    if not parsed:
        raise ValueError("no directions given")
    for direction in directions:
        if len(direction) != lattice.dim:
            raise ValueError(f"direction {','.join(map(str, direction))!r} has length"
                             f" {len(direction)}, the lattice dimension is {lattice.dim}")
    witnesses = [_moment_guard(lattice, realization, distribution) for distribution, _ in laws]

    u0 = lattice.base.vertices[0]
    _, batches = _unflagged_replicas(
        lattice, realization, laws,
        k_max * max(abs(c) for _, _, step in parsed for c in step),
        lambda w: [[[w.vertex_index[u0, tuple(k * c for c in step)]]
                    for k in range(1, k_max + 1)] for _, _, step in parsed],
        replicas, base_seed, workers)

    per_law = []
    for law, witness, (per_direction, enlargements, radii) in zip(laws, witnesses, batches):
        estimates = []
        for (coords, n_scale, step), results in zip(parsed, per_direction):
            samples = tuple(per_k[-1] / (k_max * n_scale) for per_k in results)
            try:
                trace = tuple(fsum(per_k[k - 1] for per_k in results) / replicas / (k * n_scale)
                              for k in range(1, k_max + 1))
                point, se = _mean_se(samples)
            except OverflowError:
                raise _overflow_error(law[0]) from None
            estimates.append(TimeConstantEstimate(
                direction=coords, scale=n_scale, step=step, point_estimate=point,
                std_error=se, samples=samples, trace=trace, k_max=k_max, replicas=replicas,
                radius_used=max(radii), replica_radii=radii, enlargements=enlargements,
                moment_witness=witness))
        per_law.append(estimates)
    return per_law


# ---------------------------------------------------------------------------
# shapes


@dataclass
class ShapeEstimate:
    """Radial estimates of the unit ball of the time constant.

    For two-dimensional lattices the convex hull of direction/mu is reported;
    higher dimensions get the points direction/mu only.  When every unit-direction
    estimate falls below zero_threshold the shape is reported as unbounded
    (the zero-time regime) instead of a polygon.
    """

    dim: int
    directions: tuple[tuple[int, ...], ...]
    unit_directions: np.ndarray
    mu: np.ndarray
    std_errors: np.ndarray
    points: np.ndarray
    hull: np.ndarray | None
    unbounded: bool
    zero_threshold: float
    k_max: int
    replicas: int
    radius_used: int
    samples: np.ndarray | None = None  # replicas x n_dirs normalized values
    replica_radii: tuple[int, ...] = ()  # window radius of each replica's values

    @classmethod
    def from_samples(cls, realization: Realization, directions: Sequence[tuple[int, ...]],
                     samples: np.ndarray, zero_threshold: float, **meta) -> "ShapeEstimate":
        """Assemble the shape from a replicas x directions matrix of normalized times.

        meta carries the bookkeeping fields (k_max, replicas, radius_used, and
        optionally replica_radii).
        """
        rho = realization.period_matrix()
        d = len(rho)
        n = len(directions)
        mu, se = np.array([_mean_se(column.tolist()) for column in samples.T]).T
        lattice_points = np.array([rho @ np.array(z, dtype=float) for z in directions])
        lens = np.linalg.norm(lattice_points, axis=1)
        unbounded = bool(np.all(mu / lens < zero_threshold))
        if unbounded:
            points = np.full((n, d), math.inf)
            hull = None
        else:
            points = lattice_points / np.maximum(mu, 1e-300)[:, None]
            hull = convex_hull_2d(points) if d == 2 else None
        return cls(dim=d, directions=tuple(directions),
                   unit_directions=lattice_points / lens[:, None], mu=mu, std_errors=se,
                   points=points, hull=hull, unbounded=unbounded,
                   zero_threshold=zero_threshold, samples=samples, **meta)

    def radial_interval(self, j: int, z: float = 3.0) -> tuple[float, float]:
        """CI for the radial extent along direction j, from mu +- z std errors."""
        scale = float(np.linalg.norm(self.points[j] * self.mu[j]))
        hi_mu = self.mu[j] + z * self.std_errors[j]
        lo_mu = max(self.mu[j] - z * self.std_errors[j], 1e-300)
        return scale / hi_mu, scale / lo_mu


def _primitive_box_vectors(dim: int, max_coord: int) -> list[tuple[int, ...]]:
    out = []
    for z in product(range(-max_coord, max_coord + 1), repeat=dim):
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
                   zero_threshold: float = 0.02, workers: int = 1) -> ShapeEstimate:
    """Estimate the limit shape, the unit ball of the time constant, from
    estimate_time_constant along the angular grid in dimension 2, both unit
    directions in dimension 1 and the primitive unit-box vectors otherwise."""
    dirs = (angular_direction_grid(realization, n_dirs, max_coord) if lattice.dim == 2
            else [(1,), (-1,)] if lattice.dim == 1 else _primitive_box_vectors(lattice.dim, 1))
    estimates = estimate_time_constant(lattice, realization, distribution, dirs, k_max,
                                       replicas, base_seed, workers=workers)
    return ShapeEstimate.from_samples(
        realization, dirs, np.array([est.samples for est in estimates]).T, zero_threshold,
        k_max=k_max, replicas=replicas, radius_used=estimates[0].radius_used,
        replica_radii=estimates[0].replica_radii)


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
    replica_radii_quotient: tuple[int, ...]
    replica_radii_cover: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.mu_affine <= self.mu_quotient + self.slack


@dataclass
class MonotonicityReport:
    qdata: QuotientData
    entries: tuple[MonotonicityEntry, ...]
    replicas: int

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def monotonicity_experiment(lattice: CrystalLattice, realization: Realization,
                            kernel: KernelSublattice, distribution: TimeDistribution,
                            quotient_directions: Sequence[Sequence], k_max: int,
                            replicas: int, base_seed: int, *, slack_z: float = 3.0,
                            workers: int = 1) -> MonotonicityReport:
    """Compare quotient time constants with point-to-affine times on the cover.

    For each quotient direction the quotient estimate mu1 and the cover-side
    estimate of the passage time to the preimage affine subspace are computed
    from independent configuration streams; covering monotonicity of limit
    shapes predicts affine <= quotient within statistical slack.  Each side
    is one batch: every direction's quotient target, or every fiber.
    """
    qdata = build_quotient(lattice, realization, kernel)
    for direction in quotient_directions:
        if len(direction) != qdata.dim_quotient:
            raise ValueError(f"direction {','.join(map(str, direction))!r} has length"
                             f" {len(direction)}, the quotient dimension is {qdata.dim_quotient}")
    _moment_guard(lattice, realization, distribution)
    quotient_estimates = estimate_time_constant(
        qdata.sub_lattice, qdata.sub_realization, distribution, quotient_directions,
        k_max, replicas, base_seed, seed_role=1, workers=workers)

    rho_inv = np.linalg.inv(realization.period_matrix())
    rho1 = qdata.sub_realization.period_matrix()
    u0 = lattice.base.vertices[0]
    target1s = [tuple(k_max * c for c in est1.step) for est1 in quotient_estimates]
    # a window around every Euclidean foot of the preimage affine subspaces
    feet = [qdata.p_matrix.T @ (rho1 @ np.array(target1, dtype=float)) for target1 in target1s]
    fibers, ((per_direction, _, radii),) = _unflagged_replicas(
        lattice, realization, [(distribution, 0)],
        max(int(np.ceil(np.max(np.abs(rho_inv @ foot)))) for foot in feet) + FIBER_HALO,
        lambda w: [[[w.vertex_index[v] for v in covering_fiber(qdata, (u0, target1), w)]]
                   for target1 in target1s],
        replicas, base_seed, workers)

    entries = []
    for est1, results, (fiber_idx,) in zip(quotient_estimates, per_direction, fibers):
        try:
            mu_a, se_a = _mean_se([fiber_min / (k_max * est1.scale) for fiber_min, in results])
        except OverflowError:
            raise _overflow_error(distribution) from None
        entries.append(MonotonicityEntry(
            direction=est1.direction, mu_quotient=est1.point_estimate,
            se_quotient=est1.std_error, mu_affine=mu_a, se_affine=se_a,
            slack=_slack(slack_z, se_a, est1.std_error), fiber_size=len(fiber_idx),
            radius_cover=max(radii), replica_radii_quotient=est1.replica_radii,
            replica_radii_cover=radii))
    return MonotonicityReport(qdata, tuple(entries), replicas)


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
    """Tail rows of a lifting check.

    config_count is the number of configurations searched in exhaustive mode,
    2^r1 + 2^rx for the r1 quotient and rx cover orbits that can change the
    least target time, and 0 in Monte Carlo mode.
    """

    mode: str
    rows: tuple[LiftRow, ...]
    fiber_size: int
    config_count: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _exact_fraction(x: float) -> Fraction:
    """The Fraction a number prints as; nan and inf raise ValueError."""
    try:
        return Fraction(str(x))
    except ValueError:
        raise ValueError(f"not a finite number: {x!r}") from None


def _relevant_orbits(window: Window, src: int, targets: Sequence[int]) -> list[int]:
    """The orbits that can change the least time from src to the targets.

    Join every target to one virtual sink.  A least-time walk can be taken
    simple, and a simple path from src to the sink uses only edges of the
    biconnected blocks on the block-cut-tree path between them; those blocks
    are exactly the blocks of the DFS tree edges on the sink's parent chain.
    The blocks come from an iterative Hopcroft-Tarjan rooted at src.  Windows
    have parallel orbits, so a vertex skips only the orbit it was reached by.
    Loop orbits belong to no block.  Empty when src is a target or no target
    is reachable: the time is then 0 or inf whatever the weights.
    """
    if src in targets:
        return []
    ends = window.orbit_ends.tolist()
    sink = len(window.vertices)
    edges = ends + [[t, sink] for t in targets]
    adj = [[] for _ in range(sink + 1)]
    for e, (a, b) in enumerate(edges):
        if a != b:
            adj[a].append((b, e))
            adj[b].append((a, e))
    disc, low, via, parent = ([-1] * (sink + 1) for _ in range(4))
    block = [-1] * len(edges)
    disc[src] = low[src] = 0
    seen, blocks, edge_stack, stack = 1, 0, [], [(src, iter(adj[src]))]
    while stack:
        u, it = stack[-1]
        for v, e in it:
            if e == via[u]:
                continue
            if disc[v] < 0:
                disc[v] = low[v] = seen
                seen += 1
                via[v], parent[v] = e, u
                edge_stack.append(e)
                stack.append((v, iter(adj[v])))
                break
            if disc[v] < disc[u]:  # a back edge to an ancestor, stacked once
                edge_stack.append(e)
                low[u] = min(low[u], disc[v])
        else:
            stack.pop()
            if stack:
                w = stack[-1][0]
                low[w] = min(low[w], low[u])
                if low[u] >= disc[w]:  # w separates u's subtree: close a block
                    while (e := edge_stack.pop()) != via[u]:
                        block[e] = blocks
                    block[e] = blocks
                    blocks += 1
    if disc[sink] < 0:
        return []
    chain, v = set(), sink
    while v != src:
        chain.add(block[via[v]])
        v = parent[v]
    return [e for e in range(len(ends)) if block[e] in chain]


def _enumerate_tail(window: Window, src: int, targets: Sequence[int], relevant: Sequence[int],
                    p: Fraction, low: int, high: int, thresholds: Sequence) -> list[Fraction]:
    """Exact P(min over targets of T >= t) for each threshold t, two-point times.

    Each orbit takes the integer weight low with probability p and high
    otherwise.  Only the r relevant orbits, those _relevant_orbits gives for
    src and the targets, can change the least target time, so every other
    orbit stays at high and sums out to 1.  The 2^r assignments of the
    relevant orbits are visited in Gray-code order, one weight flipped in
    place per step; each gets one search, with bucket width 1 (one bucket
    per integer label), which stops at the first final target label, and
    the assignments are counted by (least target time, number c of high
    relevant orbits) with probability p^(r-c)(1-p)^c.
    Each threshold's probability is then summed once from those counts.
    """
    r = len(relevant)
    weights = [high] * len(window.orbit_ends)
    for j in relevant:
        weights[j] = low
    stop = _stop_table([targets])
    counts = Counter()
    c = 0
    for i in range(1 << r):
        if i:
            bit = (i & -i).bit_length() - 1
            is_high = (i ^ (i >> 1)) >> bit & 1
            weights[relevant[bit]] = high if is_high else low
            c += 1 if is_high else -1
        dist = _dijkstra(window, weights, src, 1, stop=stop)
        counts[min(dist[k] for k in targets), c] += 1
    w = [p ** (r - c) * (1 - p) ** c for c in range(r + 1)]
    return [sum((n * w[c] for (time, c), n in counts.items() if time >= t), Fraction(0))
            for t in thresholds]


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
    relaxations of the infinite-lattice statement.  Exhaustive mode is exact:
    on each window it enumerates the two-point assignments of the orbits that
    can change the least target time (see _relevant_orbits) and fixes the
    others, whose two values sum out to probability 1.  The budget bounds the
    number of configurations searched, which is the report's config_count.
    Low, high and the thresholds are scaled by the least common denominator of
    low and high, so the weights are ints.
    """
    qdata = build_quotient(lattice, realization, kernel)
    if len(target_index) != qdata.dim_quotient:
        raise ValueError(f"target_index {','.join(map(str, target_index))!r} has length"
                         f" {len(target_index)}, the quotient dimension is {qdata.dim_quotient}")
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
        src1, src_x = window1.vertex_index[source1], window_x.vertex_index[source_x]
        rel1 = _relevant_orbits(window1, src1, [target1_idx])
        rel_x = _relevant_orbits(window_x, src_x, fiber_idx)
        r1, rx = len(rel1), len(rel_x)
        count = (1 << r1) + (1 << rx)
        if count > budget:
            raise BudgetError(
                f"exhaustive enumeration needs {count} configurations"
                f" ({r1} of {len(window1.orbit_ends)} + {rx} of {len(window_x.orbit_ends)}"
                f" orbits can change the time), above the budget {budget}")
        p, low, high = (_exact_fraction(v) for v in distribution.params)
        scale = math.lcm(low.denominator, high.denominator)
        low, high = int(low * scale), int(high * scale)
        scaled = [t * scale for t in thresholds]
        lhs = _enumerate_tail(window1, src1, [target1_idx], rel1, p, low, high, scaled)
        rhs = _enumerate_tail(window_x, src_x, fiber_idx, rel_x, p, low, high, scaled)
        rows = tuple(LiftRow(float(t), float(l), float(r), 0.0, 0.0, l, r, 0.0)
                     for t, l, r in zip(thresholds, lhs, rhs))
        return LiftReport("exhaustive", rows, len(fiber_idx), count)

    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    # each side's least target time per replica; no group is watched, so no flag
    quotient_times, fiber_mins = (
        [t for (t,), _ in _map_replicas(_replica_times, ctx, range(replicas), workers)]
        for ctx in ((window1, [(distribution, 1)], base_seed, replicas, source1,
                     [[target1_idx]], ()),
                    (window_x, [(distribution, 0)], base_seed, replicas, source_x,
                     [fiber_idx], ())))
    rows = []
    for t in thresholds:
        lhs_hat = sum(t1 >= t for t1 in quotient_times) / replicas
        rhs_hat = sum(fiber_min >= t for fiber_min in fiber_mins) / replicas
        se_l = math.sqrt(lhs_hat * (1 - lhs_hat) / replicas)
        se_r = math.sqrt(rhs_hat * (1 - rhs_hat) / replicas)
        rows.append(LiftRow(float(t), lhs_hat, rhs_hat, se_l, se_r, None, None,
                            _slack(slack_z, se_l, se_r)))
    return LiftReport("monte_carlo", tuple(rows), len(fiber_idx), 0)


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
                    workers: int = 1) -> PositivityReport:
    """Time constant across a grid of zero-time probabilities.

    Larger atoms at zero can only lower the time constant; the report checks
    the estimates are nonincreasing within slack and flags the p values whose
    estimate is statistically indistinguishable from zero.  The whole grid is
    one batch of _unflagged_replicas: every p shares one window per radius,
    and only the flagged (p, replica) pairs rerun.  The j-th p keeps seed
    role j, so its row is that of estimate_time_constant with
    bernoulli(p_j) and seed_role=j.
    """
    laws = [(TimeDistribution.bernoulli(p), idx) for idx, p in enumerate(p_grid)]
    rows = []
    for p, (est,) in zip(p_grid, _time_constants(lattice, realization, laws, [direction],
                                                 k_max, replicas, base_seed, workers)):
        zero = est.point_estimate <= _slack(slack_z, est.std_error)
        rows.append(PositivityRow(float(p), est.point_estimate, est.std_error, zero))
    ok = all(b.mu <= a.mu + _slack(slack_z, a.std_error, b.std_error)
             for a, b in zip(rows, rows[1:]))
    return PositivityReport(tuple(rows), ok, tuple(r.p for r in rows if r.zero_flag),
                            rational_direction(direction)[0])
