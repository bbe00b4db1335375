"""Reference code that the tests compare the library against.

The independent oracles come first: naive relaxation loops, exhaustive
enumeration, breadth-first hops, determinantal divisors and union-find read
a window's data but share no code path with the library.  The reference
helpers after them do call the library.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from crystalfpp.estimate import _slack
from crystalfpp.fpp import passage_times
from crystalfpp.graph_core import tree_potentials


def orbit_endpoints(window, key):
    """Endpoints of one orbit from its (half-edge id, origin index) key alone,
    the rule the window's orbit_ends table holds."""
    eid, z = key
    e = window.lattice.base.half_edges[eid]
    z2 = tuple(a + b for a, b in zip(z, window.lattice.voltage[eid]))
    return (e.origin, z), (e.terminus, z2)


def bellman_ford(window, times, source_idx, allowed=None):
    """Plain relaxation to fixed point; same float operations, no heap.

    With a vertex mask `allowed`, only edges between allowed vertices count.
    """
    n = len(window.vertices)
    dist = [math.inf] * n
    if allowed is not None and not allowed[source_idx]:
        return dist
    dist[source_idx] = 0
    edges = []
    for oi, key in enumerate(window.orbit_keys):
        a, b = (window.vertex_index[v] for v in orbit_endpoints(window, key))
        if allowed is None or (allowed[a] and allowed[b]):
            edges.append((a, b, float(times[oi])))
    for _ in range(n):
        changed = False
        for a, b, w in edges:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
            if dist[b] + w < dist[a]:
                dist[a] = dist[b] + w
                changed = True
        if not changed:
            break
    return dist


def exhaustive_tail(window, source_idx, targets, p, low, high, thresholds):
    """P(T >= t at every target) for each t, over every two-point assignment.

    Each orbit is low with probability p (a Fraction) and high otherwise; the
    probability of an assignment comes from which orbits are high, never from
    the weight values.  low, high and the thresholds should be dyadic, so the
    float path sums are exact.
    """
    totals = [Fraction(0)] * len(thresholds)
    for is_high in itertools.product((False, True), repeat=len(window.orbit_keys)):
        dist = bellman_ford(window, [high if h else low for h in is_high], source_idx)
        prob = math.prod((1 - p if h else p for h in is_high), start=Fraction(1))
        for k, t in enumerate(thresholds):
            if all(dist[i] >= t for i in targets):
                totals[k] += prob
    return totals


def bfs_hops(window, source_idx):
    """Hop-count graph distance on the window."""
    from collections import deque

    n = len(window.vertices)
    dist = [math.inf] * n
    dist[source_idx] = 0
    queue = deque([source_idx])
    while queue:
        u = queue.popleft()
        for v, _ in window.adjacency[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def exact_determinant(m) -> int:
    """Exact integer determinant via fraction-free expansion."""
    n = len(m)
    if n == 0:
        return 1
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return int(det)


def invariant_factors_by_minors(m) -> tuple[int, ...]:
    """Determinantal-divisor oracle: d_k = gcd of all k x k minors."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[m[r][c] for c in csel] for r in rsel]
                g = math.gcd(g, abs(exact_determinant(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def zero_cluster_spans(window, times, axis: int = 0) -> bool:
    """Does the zero-time subgraph connect the two opposite window faces?"""
    uf = UnionFind(len(window.vertices))
    for oi, key in enumerate(window.orbit_keys):
        if times[oi] == 0:
            a, b = orbit_endpoints(window, key)
            uf.union(window.vertex_index[a], window.vertex_index[b])
    r = window.radius
    lo = [i for i, (_, z) in enumerate(window.vertices) if z[axis] == -r]
    hi = [i for i, (_, z) in enumerate(window.vertices) if z[axis] == r]
    roots_lo = {uf.find(i) for i in lo}
    return any(uf.find(i) in roots_lo for i in hi)


# ---------------------------------------------------------------------------
# reference helpers: only tests use them.  They call the library's passage_times,
# tree_potentials and verdict slack rule, so comparing one with an oracle tests those.


def closest_vertex(point, window):
    """Euclidean-nearest realized window vertex.

    Ties are broken by the lexicographically smallest (index, base vertex).
    """
    p = np.asarray(point, dtype=float)
    d2 = np.sum((window.coords - p) ** 2, axis=1)
    best = float(d2.min())
    tol = 1e-12 * max(1.0, best)
    cand = np.nonzero(d2 <= best + tol)[0]
    return min((window.vertices[i] for i in cand), key=lambda v: (v[1], v[0]))


def min_edge_length(window) -> float:
    """The least realized length of a window edge orbit that is not a point."""
    a, b = window.orbit_ends.T
    lengths = np.linalg.norm(window.coords[a] - window.coords[b], axis=1)
    lengths = lengths[lengths > 1e-15]
    return float(lengths.min()) if len(lengths) else math.inf


class AffineSnapError(ValueError):
    """No realized window vertex lies on the requested affine subspace."""


@dataclass(frozen=True)
class PointPassage:
    time: float
    boundary_touched: bool
    source: tuple
    target: tuple


def passage_between_points(config, x, y, margin: int = 1) -> PointPassage:
    """First passage time between the closest realized vertices of x and y.

    The endpoints are put in canonical (index, vertex) order before running
    the search, so the result is exactly symmetric in x and y.
    """
    window = config.window
    a = closest_vertex(x, window)
    b = closest_vertex(y, window)
    lo, hi = sorted((a, b), key=lambda v: (v[1], v[0]))
    (time,), flagged = passage_times(config, lo, margin,
                                     targets=[[window.vertex_index[hi]]], watched=[0])
    return PointPassage(time, flagged, lo, hi)


def affine_vertices(window, affine) -> list[int]:
    """Indices of the window vertices on the affine set, in window order.

    affine is (N, c) for the set {y : N y = c}, the rows of N independent.
    Vertices within half the least realized edge length of the set lie on
    it; no such vertex is an error (the set is not rationally positioned, or
    the window is too small).
    """
    normals = np.asarray(affine[0], dtype=float)
    point0, *_ = np.linalg.lstsq(normals, np.asarray(affine[1], dtype=float), rcond=None)
    ortho, _ = np.linalg.qr(normals.T)  # orthonormal columns spanning the normals
    dist = np.linalg.norm((window.coords - point0) @ ortho, axis=1)
    snap = min_edge_length(window) / 2.0
    candidates = np.flatnonzero(dist <= snap).tolist()
    if not candidates:
        raise AffineSnapError(
            f"no realized vertex within {snap:g} of the affine subspace in this window")
    return candidates


def passage_to_affine(config, x, affine, margin: int = 1) -> PointPassage:
    """Minimum passage time from x to any realized vertex on the affine set
    (see affine_vertices), with the first vertex that attains it."""
    window = config.window
    candidates = affine_vertices(window, affine)
    src = closest_vertex(x, window)
    times, flagged = passage_times(config, src, margin, targets=[[i] for i in candidates],
                                   watched=range(len(candidates)))
    # window order is (index, base vertex) order, the tie-break among equal times
    time, best = min(zip(times, candidates))
    return PointPassage(time, flagged, src, window.vertices[best])


def tree_partition(window, base_tree) -> dict:
    """Lift a base spanning tree over every translation index where it fits.

    Returns {index: vertex set} for each index whose lifted copy of the tree
    lies entirely in the window.  The lifted copies are pairwise disjoint and
    cover exactly the window vertices whose tree-adjusted index is interior.
    """
    lattice = window.lattice
    graph = lattice.base
    pot = tree_potentials(graph, lattice.voltage, base_tree)
    out = {}
    for z in window.indices:
        copy = []
        for u in graph.vertices:
            zu = tuple(a + b for a, b in zip(z, pot[u]))
            if not window.contains(u, zu):
                break
            copy.append((u, zu))
        else:
            out[z] = frozenset(copy)
    return out


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


def norm_property_report(estimates, tol_in_std_errors: float = 3.0) -> NormPropertyReport:
    """Check subadditivity, rational homogeneity, and symmetry on estimates.

    Every pair (x, y) with x+y also estimated is checked for subadditivity;
    every collinear pair for homogeneity; antipodal pairs for symmetry.
    Slack is tol_in_std_errors pooled standard errors, floored as every
    verdict slack is (estimate._slack), so deterministic runs compare at
    absolute tolerance.
    """
    by_dir = {e.direction: e for e in estimates}
    if not by_dir:
        raise ValueError("no estimates given")

    checks: list[NormCheck] = []
    for x, y in itertools.combinations(by_dir, 2):
        s = tuple(a + b for a, b in zip(x, y))
        if s in by_dir:
            ex, ey, es_ = by_dir[x], by_dir[y], by_dir[s]
            slack = _slack(tol_in_std_errors, ex.std_error, ey.std_error, es_.std_error)
            checks.append(NormCheck(
                "subadditivity", f"{s} vs {x} + {y}",
                es_.point_estimate, ex.point_estimate + ey.point_estimate, slack))
    for x, y in itertools.permutations(by_dir, 2):
        ratios = {b / a for a, b in zip(x, y) if a != 0}
        if len(ratios) != 1 or any(a == 0 and b != 0 for a, b in zip(x, y)):
            continue
        c = ratios.pop()
        ex, ey = by_dir[x], by_dir[y]
        scale = abs(float(c))
        slack = _slack(tol_in_std_errors, ey.std_error, scale * ex.std_error)
        kind = "symmetry" if c == -1 else "homogeneity"
        diff = abs(ey.point_estimate - scale * ex.point_estimate)
        checks.append(NormCheck(kind, f"{y} vs {c} * {x}", diff, 0.0, slack))
    return NormPropertyReport(tuple(checks))
