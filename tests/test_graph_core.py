import pytest

from oracles import tree_partition

from crystalfpp.graph_core import (
    FiniteGraph,
    GraphError,
    DisconnectedGraphError,
    HalfEdge,
    graph_from_edges,
    spanning_tree,
)
from crystalfpp.lattice import build_preset, instantiate_window


def bouquet(loops):
    return graph_from_edges(1, [(0, 0)] * loops)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestInvariants:
    def test_inversion_involution_and_incidence(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        for eid, e in g.half_edges.items():
            inv = g.half_edges[e.inverse]
            assert inv.inverse == eid
            assert inv.origin == e.terminus and inv.terminus == e.origin

    def test_self_inverse_rejected(self):
        with pytest.raises(GraphError):
            FiniteGraph([0], [HalfEdge(0, 0, 0, 0)])

    def test_incidence_mismatch_rejected(self):
        bad = [HalfEdge(0, 0, 1, 1), HalfEdge(1, 1, 1, 0)]
        with pytest.raises(GraphError):
            FiniteGraph([0, 1], bad)

    def test_missing_inverse_rejected(self):
        with pytest.raises(GraphError):
            FiniteGraph([0, 1], [HalfEdge(0, 0, 1, 1)])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError):
            FiniteGraph([0], [HalfEdge(0, 0, 5, 1), HalfEdge(1, 5, 0, 0)])


class TestSpanningTree:
    def test_bouquet_has_empty_tree(self):
        assert spanning_tree(bouquet(4)) == ()

    def test_honeycomb_base_has_one_tree_edge(self):
        g = graph_from_edges(2, [(0, 1)] * 3)
        tree = spanning_tree(g)
        assert len(tree) == 1

    def test_path_graph_is_its_own_tree(self):
        g = path_graph(4)
        assert len(spanning_tree(g)) == 3
        assert set(spanning_tree(g)) == set(g.edge_orbits())

    def test_tree_size_is_vertices_minus_one(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        assert len(spanning_tree(g)) == 4

    def test_disconnected_raises(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            spanning_tree(g)

    def test_deterministic(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        assert spanning_tree(g) == spanning_tree(g)


class TestTreePartition:
    def test_cubic_partition_is_fibers(self):
        lat, real = build_preset("cubic2")
        win = instantiate_window(lat, real, 2)
        tree = spanning_tree(lat.base)
        parts = tree_partition(win, tree)
        assert set(parts) == set(win.indices)
        for z, cell in parts.items():
            assert cell == frozenset({(0, z)})

    @pytest.mark.parametrize("preset,radius,cell_size", [
        ("honeycomb", 2, 2),
        ("diamond", 1, 2),
    ])
    def test_partition_covers_targets(self, preset, radius, cell_size):
        lat, real = build_preset(preset)
        win = instantiate_window(lat, real, radius)
        tree = spanning_tree(lat.base)
        parts = tree_partition(win, tree)
        seen = set()
        for cell in parts.values():
            assert len(cell) == cell_size
            assert not (cell & seen)  # pairwise disjoint
            seen |= cell
        # union is exactly the set of window vertices whose lifted copy fits
        from crystalfpp.graph_core import tree_potentials

        pot = tree_potentials(lat.base, lat.voltage, tree)
        expected = {(u, z) for (u, z) in win.vertices
                    if tuple(a - b for a, b in zip(z, pot[u])) in parts}
        assert seen == expected

    def test_diamond_counts(self):
        lat, real = build_preset("diamond")
        win = instantiate_window(lat, real, 1)
        parts = tree_partition(win, spanning_tree(lat.base))
        total = sum(len(c) for c in parts.values())
        assert total == len(lat.base.vertices) * len(parts)

