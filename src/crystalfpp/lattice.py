"""Crystal lattices as integer-voltage graphs, periodic realizations, and windows.

The infinite periodic graph is represented as the derived graph of a voltage
assignment: vertices are (base vertex, translation index in Z^d) and the copy
of half-edge e at index z runs to (terminus(e), z + voltage(e)).  Finite
computation happens on box windows of translation indices.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graph_core import (
    DisconnectedGraphError,
    FiniteGraph,
    HalfEdge,
    graph_from_edges,
    spanning_tree,
    tree_potentials,
)


class LatticeError(ValueError):
    """Invalid crystal lattice or realization data."""


class WindowLimitError(RuntimeError):
    """Requested window exceeds the memory guard MAX_WINDOW_VERTICES."""


Vertex = tuple[int, tuple[int, ...]]
# The memory guard: a cubic2 window adds about 0.52 kB of RSS per vertex, and 0.62 kB
# while it is built (CPython 3.11, numpy 2.4), so a window at the cap peaks near 250 MB.
MAX_WINDOW_VERTICES = 400_000
# build_custom's injectivity probe: the window radius it checks, and the least
# distance two realized vertices may have
PROBE_RADIUS = 2
DEGENERACY_TOL = 1e-9
# edge_connectivity_estimate's boundary layers, whose orbits no cut may use
CONNECTIVITY_MARGIN = 1


class CrystalLattice:
    """A finite base graph with integer voltage vectors on its half-edges.

    Voltages are antisymmetric under inversion.  The derived infinite graph
    must be connected; this is checked exactly via the subgroup generated by
    the fundamental-cycle voltages.
    """

    def __init__(self, base: FiniteGraph, dim: int,
                 voltage: Mapping[int, tuple[int, ...]]):
        if dim < 1:
            raise LatticeError("lattice dimension must be positive")
        if not base.vertices:
            raise LatticeError("base graph has no vertices")
        self.base = base
        self.dim = dim
        for eid in base.half_edges:
            if eid not in voltage or len(voltage[eid]) != dim:
                raise LatticeError(f"half-edge {eid} lacks a voltage vector of length {dim}")
        self.voltage: dict[int, tuple[int, ...]] = {
            eid: tuple(int(c) for c in voltage[eid]) for eid in base.half_edges
        }
        for eid, e in self.base.half_edges.items():
            if tuple(-c for c in self.voltage[eid]) != self.voltage[e.inverse]:
                raise LatticeError(f"voltage of half-edge {eid} is not antisymmetric")
        if not self._derived_connected():
            raise LatticeError("derived periodic graph is disconnected"
                               " (cycle voltages do not generate the full translation group)")

    def _derived_connected(self) -> bool:
        # The base graph must be connected (spanning_tree raises otherwise); the
        # derived graph then is iff the fundamental-cycle voltages generate Z^d.
        try:
            tree = spanning_tree(self.base)
        except DisconnectedGraphError:
            raise LatticeError("base graph must be connected") from None
        pot = tree_potentials(self.base, self.voltage, tree)
        cycles = []
        for eid, e in self.base.half_edges.items():
            if self.base.orbit_of(eid) in tree or eid != self.base.orbit_of(eid):
                continue
            vec = tuple(p + v - q for p, v, q in
                        zip(pot[e.origin], self.voltage[eid], pot[e.terminus]))
            cycles.append(vec)
        if not cycles:
            return self.dim == 0
        from .quotient import invariant_factors  # local import: quotient depends on lattice

        cols = [list(c) for c in zip(*cycles)]  # dim x ncycles
        factors = invariant_factors(cols)
        return len(factors) == self.dim and all(f == 1 for f in factors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrystalLattice)
            and self.base == other.base
            and self.dim == other.dim
            and self.voltage == other.voltage
        )

    def __repr__(self) -> str:
        return (f"CrystalLattice(dim={self.dim}, base vertices={len(self.base.vertices)},"
                f" orbits={len(self.base.edge_orbits())})")


class Realization:
    """Base-vertex positions plus an invertible period matrix.

    The realized point of (u, z) is positions[u] + period @ z, so translation
    by sigma in Z^d acts as addition of period @ sigma.
    """

    def __init__(self, positions: Mapping[int, Sequence[float]], period: Sequence[Sequence[float]]):
        self.positions: dict[int, tuple[float, ...]] = {
            u: tuple(float(c) for c in p) for u, p in sorted(positions.items())
        }
        self.period: tuple[tuple[float, ...], ...] = tuple(
            tuple(float(c) for c in row) for row in period
        )
        d = len(self.period)
        if any(len(row) != d for row in self.period):
            raise LatticeError("period matrix must be square")
        if any(len(p) != d for p in self.positions.values()):
            raise LatticeError("positions must match the period dimension")
        if not all(map(math.isfinite, itertools.chain(*self.period, *self.positions.values()))):
            raise LatticeError("positions and period must be finite")
        sign, log_det = np.linalg.slogdet(self.period_matrix())  # det itself may overflow
        if sign == 0 or log_det < math.log(1e-12):
            raise LatticeError("period matrix is singular")

    def period_matrix(self) -> np.ndarray:
        return np.array(self.period, dtype=float)

    def position_array(self, vertices: Sequence[int]) -> np.ndarray:
        return np.array([self.positions[u] for u in vertices], dtype=float)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Realization)
                and self.positions == other.positions and self.period == other.period)


class _Vertices(Sequence):
    """Read-only tuple of a window's vertices (u, z), computed from its layout.

    Item i is (base vertex i % nb, row i of the translation array), in Python
    ints, for nb base vertices; indexing, slicing, iteration and equality
    behave as on a tuple.
    """

    __slots__ = ("_bases", "_translations")

    def __init__(self, bases: tuple[int, ...], translations: np.ndarray):
        self._bases, self._translations = bases, translations

    def __len__(self) -> int:
        return len(self._translations)

    def __getitem__(self, i):
        i = range(len(self))[i]  # a tuple's index rules: an int or a slice, in range
        if isinstance(i, range):
            return tuple(map(self.__getitem__, i))
        return self._bases[i % len(self._bases)], tuple(self._translations[i].tolist())

    def __iter__(self):
        return zip(itertools.cycle(self._bases), map(tuple, self._translations.tolist()))

    def __eq__(self, other):
        if isinstance(other, (tuple, _Vertices)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


class _VertexIndex(Mapping):
    """Read-only dict from a window's vertices to their indices.

    The index of (u, z) is the flat index of z in the box, times the base
    vertex count, plus the slot of u; a key is found exactly when a dict of
    the vertices would find it (an unhashable key raises TypeError).
    """

    __slots__ = ("_vertices", "_slot", "_radius", "_dim")

    def __init__(self, vertices: _Vertices, radius: int, dim: int):
        self._vertices, self._radius, self._dim = vertices, radius, dim
        self._slot = {u: i for i, u in enumerate(vertices._bases)}

    def __getitem__(self, key) -> int:
        hash(key)  # an unhashable key raises TypeError, as in a dict
        try:
            u, z = key
            s, dim = self._slot[u], len(z)
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if dim != self._dim:
            raise KeyError(key)
        # a number equal to an int k hashes as k (as -2 for k = -1), so the hashes
        # name the one vertex the key can equal, and equality decides
        r, flat, zs = self._radius, 0, []
        for c in z:
            k = hash(c)
            k = -1 if k == -2 and c == -1 else k
            if not -r <= k <= r:
                raise KeyError(key)
            flat = flat * (2 * r + 1) + k + r
            zs.append(k)
        vertex = self._vertices._bases[s], tuple(zs)
        if vertex != key:
            raise KeyError(key)
        return flat * len(self._slot) + s

    def __iter__(self):
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)


class Window:
    """Finite truncation of the lattice over translation indices in [-R, R]^d.

    Vertices are ordered by (index, base vertex); undirected edge orbits are
    keyed by (canonical half-edge id, origin index) and ordered likewise.  A
    window stores only what the searches read: the edge table orbit_ends,
    each orbit's two endpoint vertex indices in that order, which the
    adjacency and every edge-level computation read; the adjacency; and
    vertex_translations, whose row i is the index z of vertex i.  The vertex
    tuple `vertices` and the map `vertex_index` are read-only views computed
    from that array and the box layout, and they hold no reference to the
    window.  `indices`, `coords`, `orbit_eids` (each orbit's canonical
    half-edge id) and `orbit_keys` are built when first asked for, since the
    estimators never read them.  Immutable after construction.
    """

    def __init__(self, lattice: CrystalLattice, realization: Realization, radius: int):
        if radius < 0:
            raise LatticeError("window radius must be nonnegative")
        d = lattice.dim
        base = lattice.base
        n_expected = len(base.vertices) * (2 * radius + 1) ** d
        if n_expected > MAX_WINDOW_VERTICES:
            raise WindowLimitError(f"window would hold {n_expected} vertices,"
                                   f" above the cap {MAX_WINDOW_VERTICES}")
        self.lattice = lattice
        self.realization = realization
        self.radius = radius
        # the box indices in itertools.product order, one row each
        index_array = np.indices((2 * radius + 1,) * d).reshape(d, -1).T - radius
        nb = len(base.vertices)
        self.vertex_translations: np.ndarray = np.repeat(index_array, nb, axis=0)  # n x d
        self.vertices: Sequence[Vertex] = _Vertices(base.vertices, self.vertex_translations)
        self.vertex_index: Mapping[Vertex, int] = _VertexIndex(self.vertices, radius, d)

        # edge table: half-edge eid at index z stays when z + voltage is in the box, and
        # canonical half-edges give the orbits; a voltage shifts a flat index by strides @ v
        slot = {u: i for i, u in enumerate(base.vertices)}
        strides = (2 * radius + 1) ** np.arange(d - 1, -1, -1)
        eids, runs, ends = [], [], [np.empty((0, 2), dtype=int)]
        directed = 0
        for eid, e in base.half_edges.items():
            if max(map(abs, lattice.voltage[eid])) > 2 * radius:  # no instance, maybe no int64
                continue
            vec = np.array(lattice.voltage[eid], dtype=int)
            origins = np.flatnonzero(np.all(np.abs(index_array + vec) <= radius, axis=1))
            directed += len(origins)
            if eid < e.inverse:
                eids.append(eid)
                runs.append(len(origins))
                ends.append(np.column_stack((origins * nb + slot[e.origin],
                                             (origins + strides @ vec) * nb + slot[e.terminus])))
        self._orbit_runs = tuple(eids), tuple(runs)  # orbit_eids, run-length coded
        self.orbit_ends: np.ndarray = np.concatenate(ends, dtype=np.int32)  # m x 2 vertex indices
        if 2 * len(self.orbit_ends) != directed:
            raise LatticeError("edge orbit count does not halve the directed instance count")

        # adjacency rows of sorted (neighbour, orbit) pairs, a loop listed once, which
        # share one Python int per number; the temporaries are dropped as soon as they
        # are used, to keep peak memory low
        n = len(self.vertex_translations)
        nums = np.arange(max(n, len(self.orbit_ends))).astype(object)
        a, b = self.orbit_ends.T
        twice = np.flatnonzero(a != b).astype(np.int32)
        rows, cols = np.concatenate((a, b[twice])), np.concatenate((b, a[twice]))
        ids = np.concatenate((np.arange(len(a), dtype=np.int32), twice))
        order = np.lexsort((ids, cols, rows))
        counts = np.bincount(rows, minlength=n).tolist()
        del ends, twice, rows
        pairs = zip(nums[cols[order]], nums[ids[order]])
        del cols, ids, order
        # a run of rows with k pairs each takes k pairs at a time off the one stream
        adjacency = []
        for k, run in itertools.groupby(counts):
            rows_in_run = sum(1 for _ in run)
            adjacency.extend(itertools.islice(zip(*[pairs] * k), rows_in_run) if k
                             else [()] * rows_in_run)
        self.adjacency: tuple[tuple[tuple[int, int], ...], ...] = tuple(adjacency)

    @functools.cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """The translation indices of the box, in vertex order."""
        r = self.radius
        return tuple(itertools.product(range(-r, r + 1), repeat=self.lattice.dim))

    @functools.cached_property
    def coords(self) -> np.ndarray:
        """n x d realized points: positions[u] + period @ z for each vertex (u, z)."""
        nb = len(self.lattice.base.vertices)
        index_array = np.ascontiguousarray(self.vertex_translations[::nb])
        pos = self.realization.position_array(self.lattice.base.vertices)
        zmat = index_array @ self.realization.period_matrix().T
        return np.repeat(zmat, nb, axis=0) + np.tile(pos, (len(index_array), 1))

    @functools.cached_property
    def orbit_eids(self) -> np.ndarray:
        """The canonical half-edge id of each orbit, in table order."""
        eids, runs = self._orbit_runs
        return np.repeat(np.array(eids, dtype=np.int32), runs)

    @functools.cached_property
    def orbit_keys(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(canonical half-edge id, origin index) of each orbit, in table order."""
        z = list(map(tuple, self.vertex_translations.tolist()))  # one tuple per vertex
        return tuple(zip(self.orbit_eids.tolist(),
                         map(z.__getitem__, self.orbit_ends[:, 0].tolist())))

    @functools.cached_property
    def sample_order(self) -> np.ndarray:
        """Orbit positions in the order configurations are drawn.

        Orbits go by shell, the larger infinity-norm of their endpoints'
        translation indices, and keep table order within a shell.  The orbits
        of the [-r, r]^d window are exactly the orbits of shell at most r, in
        the same table order, so the first entries of this order name, one by
        one, the same orbits as the whole order of every smaller window.
        """
        shell = np.abs(self.vertex_translations[self.orbit_ends]).max(axis=(1, 2), initial=0)
        return np.argsort(shell, kind="stable")

    def contains(self, u: int, z: Sequence[int]) -> bool:
        return (u, tuple(z)) in self.vertex_index

    def interior_mask(self, margin: int, idx=slice(None)) -> np.ndarray:
        """True for vertices (all, or those at idx) at least `margin` layers away
        from the boundary."""
        return np.all(np.abs(self.vertex_translations[idx]) <= self.radius - margin, axis=1)

    def __repr__(self) -> str:
        return (f"Window(R={self.radius}, {len(self.vertices)} vertices,"
                f" {len(self.orbit_ends)} edge orbits)")


def instantiate_window(lattice: CrystalLattice, realization: Realization, radius: int) -> Window:
    """Materialize the [-R, R]^d window with cached coordinates."""
    return Window(lattice, realization, radius)


# ---------------------------------------------------------------------------
# presets


# name: (base vertex count, base edges, edge voltages, positions, period rows);
# cubic<d> is generated in build_preset
_S3 = math.sqrt(3.0)
PRESETS = {
    "triangular": (1, [(0, 0)] * 3, [(1, 0), (0, 1), (1, 1)], [(0.0, 0.0)],
                   ((1.0, -0.5), (0.0, _S3 / 2.0))),  # columns: (1,0) and (-1/2, sqrt3/2)
    "honeycomb": (2, [(0, 1)] * 3, [(0, 0), (-1, 0), (0, -1)], [(0.0, 0.0), (1.0, 0.0)],
                  ((1.5, 1.5), (_S3 / 2.0, -_S3 / 2.0))),  # columns at +-30 degrees
    "diamond": (2, [(0, 1)] * 4, [(0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
                [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)],
                ((0.0, 2.0, 2.0), (2.0, 0.0, 2.0), (2.0, 2.0, 0.0))),  # fcc columns
}


def build_preset(name: str) -> tuple[CrystalLattice, Realization]:
    """Named lattice: cubic<d> (e.g. cubic2), triangular, honeycomb, diamond.

    Edge i of the base graph gives half-edges 2i, with the edge's voltage,
    and 2i + 1, with its negative (graph_from_edges' numbering).
    """
    key = name.strip().lower().replace("(", "").replace(")", "").replace(":", "")
    if key.startswith("cubic"):
        suffix = key[len("cubic"):]
        if not suffix.isdigit():
            raise LatticeError(f"cubic preset needs a dimension, e.g. cubic2: got {name!r}")
        d = int(suffix)
        if d < 1:
            raise LatticeError("cubic lattice needs dimension >= 1")
        eye = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        parts = (1, [(0, 0)] * d, eye, [(0.0,) * d], eye)
    elif key in PRESETS:
        parts = PRESETS[key]
    else:
        raise LatticeError(f"unknown preset {name!r}")
    n_vertices, edges, voltages, positions, period = parts
    voltage = {}
    for i, vec in enumerate(voltages):
        voltage[2 * i] = vec
        voltage[2 * i + 1] = tuple(-c for c in vec)
    lat = CrystalLattice(graph_from_edges(n_vertices, edges), len(period), voltage)
    return lat, Realization(dict(enumerate(positions)), period)


def build_custom(base: FiniteGraph, voltage: Mapping[int, tuple[int, ...]],
                 positions: Mapping[int, Sequence[float]],
                 period: Sequence[Sequence[float]]) -> tuple[CrystalLattice, Realization]:
    """Validated lattice + realization from raw parts.

    Checks voltage antisymmetry, connectivity of the derived graph, one
    position per base vertex and no other, a nonsingular period, and
    nondegeneracy (injectivity) on a probe window.
    """
    lat = CrystalLattice(base, len(period), voltage)
    if set(positions) != set(base.vertices):
        raise LatticeError(f"positions are given for vertices {sorted(positions)},"
                           f" the base graph has {sorted(base.vertices)}")
    real = Realization(positions, period)
    win = instantiate_window(lat, real, PROBE_RADIUS)
    order = np.lexsort(win.coords.T[::-1])
    pts = win.coords[order]
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if len(pts) > 1 and float(gaps.min()) < DEGENERACY_TOL:
        raise LatticeError("realization is degenerate: two vertices realize the same point")
    return lat, real


# ---------------------------------------------------------------------------
# edge connectivity (window max flow with a certificate of interior-disjoint walks)


@dataclass(frozen=True)
class EdgeConnectivity:
    value: int
    source: Vertex
    sink: Vertex
    paths: tuple[tuple[Vertex, ...], ...]  # `value` walks, edge-disjoint on interior orbits
    radius: int


def edge_connectivity_estimate(lattice: CrystalLattice, realization: Realization,
                               radius: int | None = None) -> EdgeConnectivity:
    """Window estimate of the edge connectivity of the infinite graph.

    Minimum, over the sinks (u, 0) for each base vertex u, of the max flow
    from the first interior vertex, the corner at index -(R-1), to the sink
    (the sink is the first minimizing u).  A least cut of a periodic graph of
    dimension 2 or more has a finite side, and a translate of that side takes
    in some (u, 0) and leaves out the corner, so these sinks find the cut once
    it fits in the window.  An orbit with both ends interior has capacity 1;
    one that touches the boundary margin has a capacity above every such cut,
    so boundary cuts never count.  The certificate is `value` source-sink
    walks read off the flow, which share no interior orbit: they are
    edge-disjoint on the interior edges only.  Without a radius, every
    half-edge at a sink must lie in the interior, so the radius is at least
    the largest voltage entry plus CONNECTIVITY_MARGIN, and at least 2 (a
    smaller window may miss whole orbits and read 0).  It is the largest such
    radius up to 3, or the least one above 3, whose window fits
    MAX_WINDOW_VERTICES; a LatticeError names the radius when none fits.
    """
    if radius is None:
        n_base = len(lattice.base.vertices)
        top = max(abs(c) for vec in lattice.voltage.values() for c in vec)
        least = max(2, top + CONNECTIVITY_MARGIN)
        radius = next((r for r in (max(3, least), least)
                       if n_base * (2 * r + 1) ** lattice.dim <= MAX_WINDOW_VERTICES), None)
        if radius is None:
            raise LatticeError(f"edge connectivity needs a window of radius {least} or more"
                               f" (the largest voltage entry is {top}), above the cap of"
                               f" {MAX_WINDOW_VERTICES} vertices")
    if radius < 2:
        raise LatticeError("edge connectivity needs radius >= 2")
    win = instantiate_window(lattice, realization, radius)
    interior = win.interior_mask(CONNECTIVITY_MARGIN)
    s = int(np.argmax(interior))
    origin = (0,) * lattice.dim
    sinks = [win.vertex_index[u, origin] for u in lattice.base.vertices]
    adjacency, tails = win.adjacency, win.orbit_ends[:, 0].tolist()
    cap = np.where(interior[win.orbit_ends].all(axis=1), 1, len(tails) + 1).tolist()
    best = (math.inf, None, None)
    for t in sinks:
        # Edmonds-Karp with one signed flow per orbit, positive from its tail; a
        # pair stops at the best value so far, since it can no longer beat it
        flow, value = [0] * len(tails), 0
        while value < best[0]:
            parent = {s: None}
            queue = deque([s])
            while queue and t not in parent:
                u = queue.popleft()
                for v, o in adjacency[u]:
                    if v not in parent and cap[o] > (flow[o] if tails[o] == u else -flow[o]):
                        parent[v] = (u, o)
                        queue.append(v)
            if t not in parent:
                break
            steps = [parent[t]]
            while steps[-1][0] != s:
                steps.append(parent[steps[-1][0]])
            push = min(cap[o] - (flow[o] if tails[o] == u else -flow[o]) for u, o in steps)
            for u, o in steps:
                flow[o] += push if tails[o] == u else -push
            value += push
        if value < best[0]:
            best = (value, t, flow)
    value, t, flow = best
    # each step uses up one unit of flow leaving the walk's end, and conservation
    # leaves such a unit at every vertex but the sink
    paths = []
    for _ in range(value):
        walk = [s]
        while walk[-1] != t:
            u = walk[-1]
            v, o = next((v, o) for v, o in adjacency[u]
                        if (flow[o] if tails[o] == u else -flow[o]) > 0)
            flow[o] -= 1 if tails[o] == u else -1
            walk.append(v)
        paths.append(tuple(win.vertices[i] for i in walk))
    return EdgeConnectivity(value, win.vertices[s], win.vertices[t], tuple(paths), radius)


# ---------------------------------------------------------------------------
# serialization

FORMAT_HEADER = "crystal-lattice 1"


def lattice_to_text(lattice: CrystalLattice, realization: Realization) -> str:
    """Stable text form: header, dim, vertices, half-edges with their voltages,
    positions, period rows."""
    base = lattice.base
    lines = [FORMAT_HEADER, f"dim {lattice.dim}", f"vertices {len(base.vertices)}"]
    lines += [f"vertex {v}" for v in base.vertices]
    lines.append(f"halfedges {len(base.half_edges)}")
    lines += [f"halfedge {eid} {e.origin} {e.terminus} {e.inverse} "
              + " ".join(str(c) for c in lattice.voltage[eid])
              for eid, e in base.half_edges.items()]
    lines += [f"position {u} " + " ".join(repr(c) for c in realization.positions[u])
              for u in base.vertices]
    lines += ["period " + " ".join(repr(c) for c in row) for row in realization.period]
    return "\n".join(lines) + "\n"


def lattice_from_text(text: str) -> tuple[CrystalLattice, Realization]:
    """Read lattice_to_text's form; build_custom checks the parts.

    Blank lines and lines starting with '#' are skipped.  The records come in
    the written order, except that position and period records may mix, and
    every halfedge record carries exactly dim voltage entries.  A field that
    is not a number is an error naming its record.
    """
    lines = [s.strip() for s in text.splitlines() if s.strip() and not s.strip().startswith("#")]
    if not lines or lines[0] != FORMAT_HEADER:
        raise LatticeError(f"missing format header {FORMAT_HEADER!r}")
    records = iter([s.split() for s in lines[1:]])

    def record(name: str, fields: int = 2) -> list[str]:
        tok = next(records, [])
        if tok[:1] != [name] or len(tok) < fields:
            raise LatticeError(f"expected a {name!r} record with {fields - 1} or more fields,"
                               f" got {' '.join(tok)!r}")
        return tok

    def number(tok: list[str], i: int, kind: type = int):
        try:
            return kind(tok[i])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise LatticeError(f"field {i} of record {' '.join(tok)!r} must be {what},"
                               f" got {tok[i]!r}") from None

    dim = number(record("dim"), 1)
    vertices = [number(record("vertex"), 1) for _ in range(number(record("vertices"), 1))]
    half_edges, voltage = [], {}
    for _ in range(number(record("halfedges"), 1)):
        tok = record("halfedge", 5)
        eid, origin, terminus, inverse, *vec = (number(tok, i) for i in range(1, len(tok)))
        if len(vec) != dim:
            raise LatticeError(f"half-edge {eid} needs {dim} voltage entries, got {len(vec)}")
        half_edges.append(HalfEdge(eid, origin, terminus, inverse))
        voltage[eid] = tuple(vec)
    positions: dict[int, tuple[float, ...]] = {}
    period_rows: list[tuple[float, ...]] = []
    for tok in records:
        if tok[0] == "position" and len(tok) > 1:
            positions[number(tok, 1)] = tuple(number(tok, i, float) for i in range(2, len(tok)))
        elif tok[0] == "period":
            period_rows.append(tuple(number(tok, i, float) for i in range(1, len(tok))))
        else:
            raise LatticeError(f"unexpected record {' '.join(tok)!r}")
    if len(period_rows) != dim:
        raise LatticeError("period matrix row count does not match dim")
    return build_custom(FiniteGraph(vertices, half_edges), voltage, positions, period_rows)


def lattice_hash(lattice: CrystalLattice, realization: Realization) -> str:
    """sha256 of the canonical text form; embedded in reports for provenance."""
    return hashlib.sha256(lattice_to_text(lattice, realization).encode()).hexdigest()
