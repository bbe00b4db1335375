"""Independent reference implementations used to pin expected test values.

These stay deliberately naive (relaxation loops, exhaustive enumeration,
determinantal divisors) so they share no code path with the library.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction


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
        a, b = (window.vertex_index[v] for v in window.orbit_endpoints(key))
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


def enumerate_lifts(window, base_path, start):
    """All edge-by-edge lifts of a base path from start; unique if covering."""
    lattice = window.lattice
    graph = lattice.base
    partial = [[start]]
    steps: list[list] = [[]]
    for eid in base_path.edges:
        new_partial, new_steps = [], []
        for verts, st in zip(partial, steps):
            u, z = verts[-1]
            for cand in graph.out_edges(u):
                if cand != eid:
                    continue
                e = graph.half_edges[cand]
                z2 = tuple(a + b for a, b in zip(z, lattice.voltage[cand]))
                if window.contains(e.terminus, z2):
                    new_partial.append(verts + [(e.terminus, z2)])
                    new_steps.append(st + [(cand, z)])
        partial, steps = new_partial, new_steps
    return [tuple(st) for st in steps]


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
            a, b = window.orbit_endpoints(key)
            uf.union(window.vertex_index[a], window.vertex_index[b])
    r = window.radius
    lo = [i for i, (_, z) in enumerate(window.vertices) if z[axis] == -r]
    hi = [i for i, (_, z) in enumerate(window.vertices) if z[axis] == r]
    roots_lo = {uf.find(i) for i in lo}
    return any(uf.find(i) in roots_lo for i in hi)
