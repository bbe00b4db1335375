"""Edge-time distributions, sampled configurations, and passage times.

Passage times are exact single-source shortest paths on a window, with a
value-based boundary flag: a target is flagged when forbidding the outer
margin layers changes its distance, i.e. when the window may be biasing the
time upward.  Estimators never use flagged samples; they enlarge the window.
passage_times asks for target groups only: the full search stops once every
group has a final label, a parent chain inside the interior certifies a
group unflagged, and the margin-restricted search runs only for the groups
left in doubt, with every orbit that touches the margin given an infinite
time.  percolation_region is one whole-window search.  Every search is one
_dijkstra, a bucket queue whose buckets span one power-of-two width of
labels, taken once per configuration from the median of a sample of its
times: one bucket per label under integer-valued atomic laws, and a few
vertices per bucket under continuous laws.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Vertex, Window


class DistributionError(ValueError):
    """Invalid time-distribution family or parameters."""


class MomentConditionError(RuntimeError):
    """The moment condition required by the estimators fails; carries a witness."""

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(witness)


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
    its quotient (role 0 and 1) draw from disjoint streams.  A replica's
    stream does not depend on the window: sample_configuration writes it onto
    the orbits shell by shell, so the replica keeps its edge times on every
    window it is rerun on.
    """
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(role, replica))


@dataclass
class Configuration:
    """One sampled time per undirected edge orbit of a window."""

    window: Window
    times: np.ndarray


# the sampling rule of sample_configuration, recorded in every run's provenance
SAMPLER = "philox-shell-v1"


def sample_configuration(window: Window, distribution: TimeDistribution,
                         seed) -> Configuration:
    """I.i.d. times per orbit; reproducible from (window, distribution, seed).

    seed may be an int or a SeedSequence, such as the stream of replica_seed.
    Draw i of the Philox stream goes to orbit window.sample_order[i], the
    orbits taken shell by shell.  The stream emits its draws in order, so a
    configuration on the [-r, r]^d window is exactly the configuration of the
    same seed on any larger window, restricted to the smaller one.
    """
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(int(seed))
    rng = np.random.Generator(np.random.Philox(seq))
    times = np.empty(len(window.orbit_ends))
    times[window.sample_order] = distribution.sample(rng, len(times))
    return Configuration(window, times)


# ---------------------------------------------------------------------------
# shortest-path passage times


def _bucket_width(times: np.ndarray) -> float:
    """The bucket width of _dijkstra for a configuration's orbit times.

    It is the largest power of two not above the median of the finite
    positive times among at most 256 evenly strided orbits, or 1.0 when there
    are none (all times zero or infinite).  A power of two makes label // width
    exact and monotone.  The width is raised, if need be, so that no label,
    which is below len(times) times the largest finite time, overflows
    label / width.
    """
    step = max(1, -(-len(times) // 256))  # at most 256 orbits
    sample = np.sort(times[::step])
    sample = sample[(sample > 0) & (sample < math.inf)]
    width = math.ldexp(0.5, math.frexp(sample[len(sample) // 2])[1]) if len(sample) else 1.0
    top = times.max(initial=0.0)
    if top == math.inf:
        top = times[times < math.inf].max(initial=0.0)
    return max(width, math.ldexp(1.0, math.frexp(top)[1] + len(times).bit_length() - 1023))


def _dijkstra(window: Window, weights, source_idx: int, width: float, stop=None,
              parent=None) -> list:
    """Single-source shortest path over the window adjacency.

    weights is indexed by orbit: a list of floats, or of ints for the exact
    enumeration.  An infinite weight closes its orbit, since no label ever
    arrives through it.  Returns a distance list with math.inf for
    unreachable vertices.  Each label is the least left-to-right sum over the
    paths to its vertex: adding a nonnegative number is monotone, so any scan
    that relaxes every edge of every lowered label ends at that fixpoint.

    The queue is a heap of bucket numbers label // width, with a dict from
    each number to the vertices labelled into it, first come first scanned.
    width is a power of two, such as _bucket_width gives, or the int 1 for
    int weights, which is Dial's bucket queue.  A bucket's vertices are
    scanned with their current labels, skipping those since lowered below
    the bucket; a vertex lowered inside the bucket being scanned goes to its
    end and is scanned again.  A label equal to its bucket's floor is final
    at once, and every other label is final once its bucket is empty.

    stop maps target vertices to the groups they belong to (see _stop_table):
    the search then returns once every group has a final label, by that
    rule, so each group's least label is exact; the other labels are only
    path sums.  parent, a list of -1s, records the vertex each label came
    from.  A label is at least its parent's label plus the edge weight, and
    equal to it once final, so the parent chain of a final label sums to it.
    """
    dist = [math.inf] * len(window.vertices)
    dist[source_idx] = 0
    pending = {g for groups in stop.values() for g in groups} if stop else None
    adj = window.adjacency
    heap = [0]
    buckets = {0: [source_idx]}
    pop, push, bucket_of = heapq.heappop, heapq.heappush, buckets.get
    while heap:
        b = pop(heap)
        bucket = buckets.pop(b)
        floor = b * width
        top = floor + width
        late = []  # targets scanned here whose labels are final at the bucket's end
        for u in bucket:
            d = dist[u]
            if d < floor:
                continue
            if pending is not None and u in stop:
                if d == floor:
                    pending.difference_update(stop[u])
                    if not pending:
                        return dist
                else:
                    late.append(u)
            for v, orbit in adj[u]:
                nd = d + weights[orbit]
                if nd < dist[v]:
                    dist[v] = nd
                    if parent is not None:
                        parent[v] = u
                    if nd < top:
                        bucket.append(v)
                    else:
                        k = nd // width
                        entry = bucket_of(k)
                        if entry is None:
                            buckets[k] = [v]
                            push(heap, k)
                        else:
                            entry.append(v)
        if late:
            for u in late:
                pending.difference_update(stop[u])
            if not pending:
                return dist
    return dist


def _stop_table(groups) -> dict:
    """Target vertex -> positions of the groups it belongs to."""
    table = {}
    for g, group in enumerate(groups):
        for v in group:
            table.setdefault(v, []).append(g)
    return table


def passage_times(config: Configuration, source: Vertex, margin: int = 1, *,
                  targets, watched=()) -> tuple[list[float], bool]:
    """Exact shortest-path times to groups of targets, plus a boundary flag.

    targets are groups of vertex indices, and a group's time is the least
    time of its members.  The restricted search forbids the outer `margin`
    translation layers: every orbit with an end there gets an infinite
    weight, and from a source there every restricted time is infinite.  A
    group is flagged when its least restricted time differs from its least
    full time, meaning every optimal route needs the margin and the window
    may be too small.  Returns (group times, flagged), where flagged is
    whether any group at a position in watched is flagged.

    Both searches stop at the groups.  The full search goes first and records
    parents; a watched group whose first least member has a parent chain
    inside the interior is not flagged, since the restricted search can take
    that chain, whose left-to-right sum is the full label, and cannot do
    better than the full search.  Only the other watched groups, an
    unreachable one included, get a restricted search.
    """
    window = config.window
    n = len(window.vertices)
    src = window.vertex_index.get(source)
    if src is None:
        raise ValueError(f"source {source!r} is not a window vertex")
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin!r}")
    for g, group in enumerate(targets):
        if not group:
            raise ValueError(f"target group {g} is empty")
        for v in group:
            if not 0 <= v < n:
                raise ValueError(f"target {v!r} in group {g} is not a vertex index"
                                 f" of the window's {n} vertices")
    for g in watched:
        if not 0 <= g < len(targets):
            raise ValueError(f"watched position {g!r} is not one of the"
                             f" {len(targets)} target groups")
    width = _bucket_width(config.times)
    parent = [-1] * n
    full = _dijkstra(window, config.times.tolist(), src, width, stop=_stop_table(targets),
                     parent=parent)
    times = [float(min(full[v] for v in group)) for group in targets]
    doubtful = []
    for g in watched:
        v = min(targets[g], key=full.__getitem__)
        chain = [v]
        while parent[chain[-1]] >= 0:
            chain.append(parent[chain[-1]])
        if times[g] == math.inf or not window.interior_mask(margin, chain).all():
            doubtful.append(g)
    if not doubtful:
        return times, False
    interior = window.interior_mask(margin)
    if not interior[src]:
        return times, any(times[g] != math.inf for g in doubtful)
    closed = np.where(interior[window.orbit_ends].all(axis=1), config.times, math.inf)
    restricted = _dijkstra(window, closed.tolist(), src, width,
                           stop=_stop_table([targets[g] for g in doubtful]))
    return times, any(min(restricted[v] for v in targets[g]) != times[g] for g in doubtful)


def percolation_region(config: Configuration, source: Vertex, t: float) -> list:
    """Window vertices reachable within time t from the source, in window order.

    t = inf means every reachable vertex.
    """
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    window = config.window
    src = window.vertex_index.get(source)
    if src is None:
        raise ValueError(f"source {source!r} is not a window vertex")
    dist = _dijkstra(window, config.times.tolist(), src, _bucket_width(config.times))
    return [v for v, d in zip(window.vertices, dist) if d <= t]
