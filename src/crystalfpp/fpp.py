"""Edge-time distributions, sampled configurations, and passage times.

Passage times are exact single-source shortest paths on a window, with a
value-based boundary flag: a target is flagged when forbidding the outer
margin layers changes its distance, i.e. when the window may be biasing the
time upward.  Estimators never use flagged samples; they enlarge the window.
The margin-restricted search runs first, and the full times are repaired
from its labels rather than searched again.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lattice import Vertex, Window, closest_vertex
from .quotient import _gram_schmidt


class DistributionError(ValueError):
    """Invalid time-distribution family or parameters."""


class MomentConditionError(RuntimeError):
    """The moment condition required by the estimators fails; carries a witness."""

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(witness)


class AffineSnapError(ValueError):
    """No realized window vertex lies on the requested affine subspace."""


FAMILIES = ("deterministic", "bernoulli", "uniform", "exponential", "pareto")


@dataclass(frozen=True)
class TimeDistribution:
    """One of the supported nonnegative time laws.

    bernoulli(p) puts mass p on `low` (default 0) and 1-p on `high`
    (default 1), matching the two-point law used for percolation comparisons.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DistributionError(f"unknown family {self.family!r}")
        p = self.params
        if not all(math.isfinite(x) for x in p):
            raise DistributionError(f"{self.family} parameters must be finite, got {p}")
        if self.family == "deterministic":
            if len(p) != 1 or p[0] < 0:
                raise DistributionError("deterministic needs one nonnegative value")
        elif self.family == "bernoulli":
            if len(p) != 3 or not 0 <= p[0] <= 1 or p[1] < 0 or p[2] < 0:
                raise DistributionError("bernoulli needs p in [0,1] and nonnegative low/high")
        elif self.family == "uniform":
            if len(p) != 2 or p[0] < 0 or p[1] < p[0]:
                raise DistributionError("uniform needs 0 <= a <= b")
        elif self.family == "exponential":
            if len(p) != 1 or p[0] <= 0:
                raise DistributionError("exponential needs a positive rate")
        elif self.family == "pareto":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise DistributionError("pareto needs positive shape and scale")

    @staticmethod
    def deterministic(c: float) -> "TimeDistribution":
        return TimeDistribution("deterministic", (float(c),))

    @staticmethod
    def bernoulli(p: float, low: float = 0.0, high: float = 1.0) -> "TimeDistribution":
        return TimeDistribution("bernoulli", (float(p), float(low), float(high)))

    @staticmethod
    def uniform(a: float, b: float) -> "TimeDistribution":
        return TimeDistribution("uniform", (float(a), float(b)))

    @staticmethod
    def exponential(rate: float) -> "TimeDistribution":
        return TimeDistribution("exponential", (float(rate),))

    @staticmethod
    def pareto(shape: float, scale: float = 1.0) -> "TimeDistribution":
        return TimeDistribution("pareto", (float(shape), float(scale)))

    @staticmethod
    def parse(spec: str) -> "TimeDistribution":
        """Parse 'family:value,value' strings, e.g. 'exponential:1'."""
        name, _, rest = spec.partition(":")
        try:
            args = [float(x) for x in rest.split(",") if x.strip()]
        except ValueError:
            raise DistributionError(f"non-numeric parameter in {spec!r}") from None
        if name.strip() not in FAMILIES:
            raise DistributionError(f"unknown family {name!r}")
        try:
            return getattr(TimeDistribution, name.strip())(*args)
        except TypeError:
            raise DistributionError(
                f"wrong number of parameters for {name.strip()}: {spec!r}") from None

    def atom_at_zero(self) -> float:
        """Analytic mass of the law at exactly zero."""
        if self.family == "deterministic":
            return 1.0 if self.params[0] == 0 else 0.0
        if self.family == "bernoulli":
            p, low, high = self.params
            return (p if low == 0 else 0.0) + ((1 - p) if high == 0 else 0.0)
        if self.family == "uniform":
            a, b = self.params
            return 1.0 if a == b == 0 else 0.0
        return 0.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == "deterministic":
            return np.full(n, self.params[0])
        if self.family == "bernoulli":
            p, low, high = self.params
            return np.where(rng.random(n) < p, low, high)
        if self.family == "uniform":
            a, b = self.params
            return rng.uniform(a, b, n)
        if self.family == "exponential":
            return rng.exponential(1.0 / self.params[0], n)
        shape, scale = self.params
        return scale * (1.0 + rng.pareto(shape, n))

    def label(self) -> str:
        return f"{self.family}:" + ",".join(repr(v) for v in self.params)


@dataclass(frozen=True)
class MomentCheck:
    finite: bool
    witness: str


def moment_check(distribution: TimeDistribution, k: int, power: int) -> MomentCheck:
    """Is E[min(t_1..t_k)^power] finite?  Decided analytically per family.

    k is the edge connectivity of the lattice; the minimum of k independent
    pareto(alpha) times is pareto(k*alpha), so the d-th moment is finite
    exactly when k*alpha > d.  The other families are bounded or light-tailed.
    """
    if k < 1 or power < 1:
        raise ValueError("need k >= 1 and power >= 1")
    fam = distribution.family
    if fam in ("deterministic", "bernoulli", "uniform"):
        return MomentCheck(True, f"{fam} times are bounded, so every moment is finite")
    if fam == "exponential":
        return MomentCheck(True, "exponential times have finite moments of every order")
    alpha, scale = distribution.params
    tail = k * alpha
    if tail > power:
        return MomentCheck(True, (
            f"min of {k} pareto(shape={alpha:g}) times is pareto(shape={tail:g});"
            f" moment {power} is finite since {tail:g} > {power}"))
    return MomentCheck(False, (
        f"min of {k} pareto(shape={alpha:g}) times is pareto(shape={tail:g});"
        f" moment {power} diverges since {tail:g} <= {power}"))


# ---------------------------------------------------------------------------
# configurations


def replica_seed(base_seed: int, replica: int, role: int = 0) -> np.random.SeedSequence:
    """Documented seed-splitting rule: (base_seed, replica, role) -> stream.

    Streams are spawned via numpy SeedSequence keys, so replica streams are
    independent and non-overlapping, and joint experiments on a lattice and
    its quotient (role 0 and 1) draw from disjoint streams.
    """
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(role, replica))


@dataclass
class Configuration:
    """One sampled time per undirected edge orbit of a window."""

    window: Window
    distribution: TimeDistribution
    times: np.ndarray
    seed_entropy: tuple

    def time_of(self, orbit_key) -> float:
        return float(self.times[self.window.orbit_index[orbit_key]])

    def to_csv_lines(self) -> list[str]:
        lines = ["orbit,time"]
        for key, t in zip(self.window.orbit_keys, self.times):
            eid, z = key
            zs = ";".join(str(c) for c in z)
            lines.append(f"{eid}@{zs},{float(t)!r}")
        return lines


def sample_configuration(window: Window, distribution: TimeDistribution,
                         seed) -> Configuration:
    """I.i.d. times per orbit; reproducible from (window, distribution, seed).

    seed may be an int, a SeedSequence, or the (base, replica, role) triple
    produced by replica_seed.
    """
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(int(seed))
    rng = np.random.Generator(np.random.Philox(seq))
    times = distribution.sample(rng, len(window.orbit_keys)).astype(float)
    entropy = (seq.entropy, tuple(seq.spawn_key))
    return Configuration(window, distribution, times, entropy)


# ---------------------------------------------------------------------------
# shortest-path passage times


def _dijkstra(window: Window, weights, source_idx: int, allowed=None) -> list:
    """Single-source shortest path over the window adjacency, within `allowed`.

    weights is indexed by orbit: a list of floats, or of ints for the exact
    enumeration.  Returns a distance list with math.inf for unreachable
    vertices.
    """
    dist = [math.inf] * len(window.vertices)
    if allowed is not None and not allowed[source_idx]:
        return dist
    dist[source_idx] = 0
    return _settle(window.adjacency, weights, dist, [(0, source_idx)], allowed)


def _settle(adj, weights, dist: list, heap: list, allowed=None) -> list:
    """Dijkstra's heap loop: relax from the (label, vertex) entries of heap.

    dist holds path sums, and every edge out of a vertex not on the heap is
    already relaxed; on return every edge within `allowed` is relaxed, so
    dist is the minimum over paths.
    """
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for v, orbit in adj[u]:
            if allowed is not None and not allowed[v]:
                continue
            nd = d + weights[orbit]
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    return dist


@dataclass
class PassageResult:
    """All passage times from one source, with per-target boundary flags."""

    window: Window
    source: Vertex
    times: np.ndarray
    restricted_times: np.ndarray
    margin: int

    def time_of(self, vertex: Vertex) -> float:
        return float(self.times[self.window.vertex_index[vertex]])

    def boundary_touched(self, vertex: Vertex) -> bool:
        i = self.window.vertex_index[vertex]
        return bool(self.flags[i])

    @property
    def flags(self) -> np.ndarray:
        """True where excluding the margin changes the distance."""
        return self.times != self.restricted_times


def passage_times(config: Configuration, source: Vertex, margin: int = 1) -> PassageResult:
    """Exact shortest-path times under the configuration, plus boundary flags.

    The restricted run forbids the outer `margin` translation layers; a target
    whose restricted distance differs from the full one is flagged, meaning
    every optimal route needs the margin and the window may be too small.

    The restricted run goes first, and the full times are repaired from it:
    its labels are path sums, hence upper bounds, and it has relaxed every
    interior edge.  Seeding each margin vertex from its interior neighbours
    and relaxing from there leaves every edge relaxed, so each label is the
    minimum over paths of their left-to-right float sums (adding a nonnegative
    float is monotone).  That is what a fresh full search returns, bit for bit.
    """
    window = config.window
    src = window.vertex_index[source]
    weights = config.times.tolist()
    interior = window.interior_mask(margin)
    allowed = interior.tolist()
    restricted = _dijkstra(window, weights, src, allowed)
    if not allowed[src]:
        full = _dijkstra(window, weights, src)
    else:
        full = restricted.copy()
        adj = window.adjacency
        heap = []
        for v in np.flatnonzero(~interior).tolist():
            for u, orbit in adj[v]:
                if allowed[u] and full[u] + weights[orbit] < full[v]:
                    full[v] = full[u] + weights[orbit]
            if full[v] < math.inf:
                heap.append((full[v], v))
        heapq.heapify(heap)
        _settle(adj, weights, full, heap)
    return PassageResult(window, source, np.array(full, dtype=float),
                         np.array(restricted, dtype=float), margin)


@dataclass(frozen=True)
class PointPassage:
    time: float
    boundary_touched: bool
    source: Vertex
    target: Vertex


def passage_between_points(config: Configuration, x: Sequence[float],
                           y: Sequence[float], margin: int = 1) -> PointPassage:
    """First passage time between the closest realized vertices of x and y.

    The endpoints are put in canonical (index, vertex) order before running
    the search, so the result is exactly symmetric in x and y.
    """
    window = config.window
    a = closest_vertex(x, window)
    b = closest_vertex(y, window)
    lo, hi = sorted((a, b), key=lambda v: (v[1], v[0]))
    res = passage_times(config, lo, margin=margin)
    return PointPassage(res.time_of(hi), res.boundary_touched(hi), lo, hi)


def passage_to_affine(config: Configuration, x: Sequence[float],
                      affine: tuple[Sequence[Sequence[float]], Sequence[float]],
                      margin: int = 1) -> PointPassage:
    """Minimum passage time from x to any realized vertex on the affine set.

    The affine subspace is given by (normal rows, offsets): {y : N y = c}.
    Vertices within half the minimal realized edge spacing of the subspace
    count as lying on it; no such vertex is an error (the subspace is not
    rationally positioned, or the window is too small).
    """
    window = config.window
    normals = np.asarray(affine[0], dtype=float)
    offsets = np.asarray(affine[1], dtype=float)
    if normals.ndim != 2 or normals.shape[0] != offsets.shape[0]:
        raise ValueError("affine spec needs matching normal rows and offsets")
    point0, *_ = np.linalg.lstsq(normals, offsets, rcond=None)
    if not np.allclose(normals @ point0, offsets, atol=1e-9):
        raise ValueError("inconsistent affine constraints")
    ortho = _gram_schmidt(normals.T)
    resid = (window.coords - point0) @ ortho.T
    dist = np.linalg.norm(resid, axis=1)
    snap = window.min_edge_length() / 2.0
    candidates = np.nonzero(dist <= snap)[0]
    if len(candidates) == 0:
        raise AffineSnapError(
            f"no realized vertex within {snap:g} of the affine subspace in this window")
    src = closest_vertex(x, window)
    res = passage_times(config, src, margin=margin)
    best = min(candidates, key=lambda i: (res.times[i], window.vertices[i][1],
                                          window.vertices[i][0]))
    flagged = bool(res.flags[candidates].any())
    return PointPassage(float(res.times[best]), flagged, src, window.vertices[best])


def percolation_region(result: PassageResult, t: float) -> list:
    """Window vertices reachable within time t from the source."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    idx = np.nonzero(result.times <= t)[0]
    return [result.window.vertices[i] for i in idx]


def restricted_passage(config: Configuration, x: Sequence[float], y: Sequence[float],
                       sub_radius: int) -> float:
    """Shortest-path time using only edges inside the [-R', R']^d sub-window.

    Returns math.inf when y is unreachable there; monotone nonincreasing as
    the sub-window grows.
    """
    window = config.window
    if sub_radius > window.radius:
        raise ValueError("sub-window radius exceeds the window radius")
    a = closest_vertex(x, window)
    b = closest_vertex(y, window)
    lo, hi = sorted((a, b), key=lambda v: (v[1], v[0]))
    allowed = window.interior_mask(window.radius - sub_radius).tolist()
    if not allowed[window.vertex_index[lo]] or not allowed[window.vertex_index[hi]]:
        raise ValueError("endpoints must lie inside the sub-window")
    dist = _dijkstra(window, config.times.tolist(), window.vertex_index[lo], allowed=allowed)
    return float(dist[window.vertex_index[hi]])
