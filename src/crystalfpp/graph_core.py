"""Finite symmetric directed graphs with inversion pairing, spanning trees and
their voltage potentials.

A graph is stored as a set of half-edges: every undirected edge appears as a
pair (e, inverse(e)) of directed half-edges.  Undirected views are derived as
orbits of the inversion involution.  All traversals order by ascending id so
every build is reproducible byte-for-byte.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class GraphError(ValueError):
    """Structural invariant of a graph was violated."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected graph."""


@dataclass(frozen=True)
class HalfEdge:
    """One directed half of an undirected edge."""

    id: int
    origin: int
    terminus: int
    inverse: int


class FiniteGraph:
    """Finite graph given by vertices and inversion-paired half-edges.

    Parallel edges and loops are permitted.  Invariants (involution without
    fixed points, incidence coherence) are checked on construction.
    """

    def __init__(self, vertices: Iterable[int], half_edges: Iterable[HalfEdge]):
        self.vertices: tuple[int, ...] = tuple(sorted(set(vertices)))
        edges = {}
        for e in half_edges:
            if e.id in edges:
                raise GraphError(f"duplicate half-edge id {e.id}")
            edges[e.id] = e
        self.half_edges: dict[int, HalfEdge] = dict(sorted(edges.items()))
        self._validate()
        vset = set(self.vertices)
        self._out: dict[int, tuple[int, ...]] = {v: () for v in vset}
        grouped: dict[int, list[int]] = {v: [] for v in vset}
        for eid, e in self.half_edges.items():
            grouped[e.origin].append(eid)
        for v, ids in grouped.items():
            self._out[v] = tuple(sorted(ids))

    def _validate(self) -> None:
        vset = set(self.vertices)
        for e in self.half_edges.values():
            if e.origin not in vset or e.terminus not in vset:
                raise GraphError(f"half-edge {e.id} references unknown vertex")
            if e.inverse not in self.half_edges:
                raise GraphError(f"half-edge {e.id} has missing inverse {e.inverse}")
            if e.inverse == e.id:
                raise GraphError(f"half-edge {e.id} is its own inverse")
            inv = self.half_edges[e.inverse]
            if inv.inverse != e.id:
                raise GraphError(f"inversion is not an involution at {e.id}")
            if inv.origin != e.terminus or inv.terminus != e.origin:
                raise GraphError(f"incidence of {e.id} does not match its inverse")

    def out_edges(self, v: int) -> tuple[int, ...]:
        """Ids of half-edges with origin v, ascending."""
        return self._out[v]

    def has_vertex(self, v: int) -> bool:
        return v in self._out

    def inverse(self, eid: int) -> int:
        return self.half_edges[eid].inverse

    def orbit_of(self, eid: int) -> int:
        """Canonical representative (smaller id) of the undirected orbit of eid."""
        return min(eid, self.half_edges[eid].inverse)

    def edge_orbits(self) -> tuple[int, ...]:
        """Canonical ids of the undirected edge orbits, ascending."""
        return tuple(sorted({self.orbit_of(e) for e in self.half_edges}))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGraph)
            and self.vertices == other.vertices
            and self.half_edges == other.half_edges
        )

    def __repr__(self) -> str:
        return f"FiniteGraph({len(self.vertices)} vertices, {len(self.half_edges) // 2} edges)"


def graph_from_edges(n_vertices: int, edges: Sequence[tuple[int, int]]) -> FiniteGraph:
    """Build a graph from undirected (origin, terminus) pairs.

    Edge i gets half-edge ids 2i (as given) and 2i+1 (reversed).
    """
    half_edges = []
    for i, (u, v) in enumerate(edges):
        half_edges.append(HalfEdge(2 * i, u, v, 2 * i + 1))
        half_edges.append(HalfEdge(2 * i + 1, v, u, 2 * i))
    return FiniteGraph(range(n_vertices), half_edges)


def spanning_tree(graph: FiniteGraph) -> tuple[int, ...]:
    """Deterministic breadth-first spanning tree, as canonical edge-orbit ids.

    Starts from the lowest vertex id and explores half-edges in ascending id
    order, so the result is reproducible.  Raises on disconnected input.
    """
    if not graph.vertices:
        return ()
    root = graph.vertices[0]
    seen = {root}
    tree: list[int] = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for eid in graph.out_edges(v):
            w = graph.half_edges[eid].terminus
            if w not in seen:
                seen.add(w)
                tree.append(graph.orbit_of(eid))
                queue.append(w)
    if len(seen) != len(graph.vertices):
        raise DisconnectedGraphError(
            f"graph is disconnected: reached {len(seen)} of {len(graph.vertices)} vertices"
        )
    return tuple(sorted(tree))


def tree_potentials(graph: FiniteGraph, voltage: Mapping[int, tuple[int, ...]],
                    tree: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Voltage sum along the tree path from the root (lowest vertex) to each vertex."""
    tree_set = set(tree)
    adj: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for orbit in tree_set:
        for eid in (orbit, graph.inverse(orbit)):
            adj[graph.half_edges[eid].origin].append(eid)
    for v in adj:
        adj[v].sort()
    root = graph.vertices[0]
    dim = len(next(iter(voltage.values()))) if voltage else 0
    pot = {root: (0,) * dim}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for eid in adj[v]:
            w = graph.half_edges[eid].terminus
            if w not in pot:
                pot[w] = tuple(a + b for a, b in zip(pot[v], voltage[eid]))
                queue.append(w)
    return pot
