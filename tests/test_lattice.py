import gc
import hashlib
import math
import pickle
import tracemalloc
import weakref
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import maximum_flow
from oracles import closest_vertex, orbit_endpoints
from test_fpp import random_lattice

from crystalfpp.graph_core import graph_from_edges
from crystalfpp.lattice import (
    CONNECTIVITY_MARGIN,
    CrystalLattice,
    LatticeError,
    Realization,
    WindowLimitError,
    build_custom,
    build_preset,
    edge_connectivity_estimate,
    instantiate_window,
    lattice_from_text,
    lattice_hash,
    lattice_to_text,
)
from crystalfpp.quotient import KernelSublattice, build_quotient

PRESETS = ("cubic2", "cubic3", "triangular", "honeycomb", "diamond")
# two vertices joined by a zero-voltage edge, unit loops at vertex 0, and a loop
# at vertex 1 whose voltage (5, -7) has no instance in a window of radius 3 or less
TWO_VERTEX_FAR = """crystal-lattice 1
dim 2
vertices 2
vertex 0
vertex 1
halfedges 8
halfedge 0 0 1 1 0 0
halfedge 1 1 0 0 0 0
halfedge 2 0 0 3 1 0
halfedge 3 0 0 2 -1 0
halfedge 4 0 0 5 0 1
halfedge 5 0 0 4 0 -1
halfedge 6 1 1 7 5 -7
halfedge 7 1 1 6 -5 7
position 0 0.0 0.0
position 1 0.5 0.3
period 1.0 0.0
period 0.0 1.0
"""
# one vertex with loops of voltage 100 and 101: no window of radius 100 or less
# holds an instance of either
FAR_LINE = """crystal-lattice 1
dim 1
vertices 1
vertex 0
halfedges 4
halfedge 0 0 0 1 100
halfedge 1 0 0 0 -100
halfedge 2 0 0 3 101
halfedge 3 0 0 2 -101
position 0 0.0
period 1.0
"""


def lattice_case(name):
    """A preset, the cubic2 quotient by (1,-1) (parallel loop orbits), a
    two-vertex lattice whose edges 0, 1 and 4 join the same vertex pair (4 in
    the opposite orientation) and whose edge 5 is a zero-voltage loop, or a
    three-vertex lattice of a triangle and a loop."""
    if name == "cubic2/(1,-1)":
        q = build_quotient(*build_preset("cubic2"), KernelSublattice.of([(1, -1)], 2))
        return q.sub_lattice, q.sub_realization
    if name == "parallel-pair":
        base = graph_from_edges(2, [(0, 1), (0, 1), (0, 1), (1, 0), (1, 0), (0, 0)])
        voltage = {}
        for i, vec in enumerate([(0, 0), (0, 0), (1, 0), (0, 1), (0, 0), (0, 0)]):
            voltage[2 * i] = vec
            voltage[2 * i + 1] = tuple(-c for c in vec)
        return build_custom(base, voltage, {0: (0.0, 0.0), 1: (0.5, 0.3)},
                            ((1.0, 0.0), (0.0, 1.0)))
    if name == "two-vertex-far":
        return lattice_from_text(TWO_VERTEX_FAR)
    if name == "three-vertex-loop":
        # the triangle's cycle voltage (1, 1) and the loop's (0, 1) generate Z^2
        base = graph_from_edges(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
        voltage = {}
        for i, vec in enumerate([(1, 0), (1, 1), (-1, 0), (0, 1)]):
            voltage[2 * i] = vec
            voltage[2 * i + 1] = tuple(-c for c in vec)
        return build_custom(base, voltage, {0: (0.0, 0.0), 1: (0.3, 0.1), 2: (0.6, 0.5)},
                            ((2.0, 0.5), (0.0, 1.5)))
    return build_preset(name)


class TestPresets:
    def test_cubic2_counts(self):
        lat, real = build_preset("cubic2")
        assert len(lat.base.vertices) == 1
        assert len(lat.base.edge_orbits()) == 2
        win = instantiate_window(lat, real, 1)
        assert len(win.vertices) == 9

    def test_honeycomb_counts(self):
        lat, _ = build_preset("honeycomb")
        assert len(lat.base.vertices) == 2
        assert len(lat.base.edge_orbits()) == 3

    def test_diamond_counts(self):
        lat, _ = build_preset("diamond")
        assert len(lat.base.vertices) == 2
        assert len(lat.base.edge_orbits()) == 4
        assert lat.dim == 3

    def test_unknown_and_zero_dim(self):
        with pytest.raises(LatticeError):
            build_preset("hexagonal")
        with pytest.raises(LatticeError):
            build_preset("cubic0")

    @pytest.mark.parametrize("preset", PRESETS)
    def test_all_edges_unit_or_equal_length(self, preset):
        # realized nearest-neighbor geometry: every edge orbit has one length
        lat, real = build_preset(preset)
        win = instantiate_window(lat, real, 1)
        lengths = set()
        for key in win.orbit_keys:
            a, b = orbit_endpoints(win, key)
            d = np.linalg.norm(win.coords[win.vertex_index[a]]
                               - win.coords[win.vertex_index[b]])
            lengths.add(round(float(d), 9))
        assert len(lengths) == 1


class TestBuildCustom:
    def test_explicit_cubic_equals_preset(self):
        lat0, real0 = build_preset("cubic2")
        base = graph_from_edges(1, [(0, 0), (0, 0)])
        voltage = {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1)}
        lat, real = build_custom(base, voltage, {0: (0.0, 0.0)},
                                 ((1.0, 0.0), (0.0, 1.0)))
        assert lat == lat0
        assert real == real0

    def test_honeycomb_alternate_positions_same_period(self):
        lat0, real0 = build_preset("honeycomb")
        lat, real = build_custom(lat0.base, lat0.voltage,
                                 {0: (0.0, 0.0), 1: (0.5, 0.2)}, real0.period)
        assert lat == lat0
        assert real.period == real0.period
        assert real.positions != real0.positions

    def test_zero_period_rejected(self):
        lat0, _ = build_preset("cubic2")
        with pytest.raises(LatticeError):
            build_custom(lat0.base, lat0.voltage, {0: (0.0, 0.0)},
                         ((0.0, 0.0), (0.0, 0.0)))

    def test_degenerate_positions_rejected(self):
        lat0, real0 = build_preset("honeycomb")
        with pytest.raises(LatticeError):
            build_custom(lat0.base, lat0.voltage,
                         {0: (0.0, 0.0), 1: (0.0, 0.0)}, real0.period)

    @pytest.mark.parametrize("positions", [{0: (0.0, 0.0)},
                                           {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 0.5)}])
    def test_positions_must_match_the_base_vertices(self, positions):
        lat0, real0 = build_preset("honeycomb")
        with pytest.raises(LatticeError, match="positions are given for vertices"):
            build_custom(lat0.base, lat0.voltage, positions, real0.period)

    @pytest.mark.parametrize("position,period", [
        ((math.nan, 0.0), ((1.0, 0.0), (0.0, 1.0))),
        ((0.0, 0.0), ((math.inf, 0.0), (0.0, 1.0))),
        ((0.0, 0.0), ((math.nan, 0.0), (0.0, 1.0))),
    ])
    def test_non_finite_realization_rejected(self, position, period):
        with pytest.raises(LatticeError, match="finite"):
            Realization({0: position}, period)

    def test_period_whose_determinant_overflows_is_not_singular(self):
        # det = 1e600 is no float; the singularity check must neither warn nor reject
        Realization({0: (0.0, 0.0)}, ((1e300, 0.0), (0.0, 1e300)))

    def test_disconnected_voltages_rejected(self):
        base = graph_from_edges(1, [(0, 0)])
        with pytest.raises(LatticeError):
            CrystalLattice(base, 1, {0: (2,), 1: (-2,)})

    def test_disconnected_base_graph_rejected(self):
        # vertex 1 has no edge: a contract error, not the tree's DisconnectedGraphError
        base = graph_from_edges(2, [(0, 0)])
        with pytest.raises(LatticeError, match="^base graph must be connected$"):
            CrystalLattice(base, 1, {0: (1,), 1: (-1,)})

    def test_empty_base_graph_rejected(self):
        with pytest.raises(LatticeError, match="^base graph has no vertices$"):
            CrystalLattice(graph_from_edges(0, []), 1, {})

    def test_antisymmetry_enforced(self):
        base = graph_from_edges(1, [(0, 0)])
        with pytest.raises(LatticeError):
            CrystalLattice(base, 1, {0: (1,), 1: (1,)})


class TestWindow:
    def test_cubic2_r0(self):
        lat, real = build_preset("cubic2")
        win = instantiate_window(lat, real, 0)
        assert len(win.vertices) == 1
        assert len(win.orbit_keys) == 0

    def test_cubic2_r2_counts(self):
        lat, real = build_preset("cubic2")
        win = instantiate_window(lat, real, 2)
        assert len(win.vertices) == 25
        assert len(win.orbit_keys) == 40

    def test_honeycomb_r1(self):
        lat, real = build_preset("honeycomb")
        win = instantiate_window(lat, real, 1)
        assert len(win.vertices) == 18

    def test_memory_guard(self):
        lat, real = build_preset("cubic3")
        with pytest.raises(WindowLimitError):
            instantiate_window(lat, real, 100)

    @pytest.mark.parametrize("preset", PRESETS + ("cubic2/(1,-1)", "parallel-pair"))
    def test_orbit_halving_invariant(self, preset):
        lat, real = lattice_case(preset)
        win = instantiate_window(lat, real, 2)
        directed = 0
        for (u, z) in win.vertices:
            for eid in lat.base.out_edges(u):
                z2 = tuple(a + b for a, b in zip(z, lat.voltage[eid]))
                if win.contains(lat.base.half_edges[eid].terminus, z2):
                    directed += 1
        assert directed == 2 * len(win.orbit_keys)
        # the edge table row by row against the per-key rule, and the adjacency
        # rebuilt from that rule (a loop orbit is listed once)
        assert list(win.orbit_keys) == sorted(win.orbit_keys)
        assert win.orbit_ends.shape == (len(win.orbit_keys), 2)
        adj = [[] for _ in win.vertices]
        for i, key in enumerate(win.orbit_keys):
            a, b = (win.vertex_index[v] for v in orbit_endpoints(win, key))
            assert win.orbit_ends[i].tolist() == [a, b]
            adj[a].append((b, i))
            if b != a:
                adj[b].append((a, i))
        assert win.adjacency == tuple(tuple(sorted(row)) for row in adj)
        assert win.vertex_translations.tolist() == [list(z) for _, z in win.vertices]

    @pytest.mark.parametrize("radius", [0, 1, 3])
    @pytest.mark.parametrize("case", ("cubic1",) + PRESETS + ("two-vertex-far",))
    def test_vertex_views_follow_the_box_order(self, case, radius):
        lat, real = lattice_case(case)
        win = instantiate_window(lat, real, radius)
        box = tuple(product(range(-radius, radius + 1), repeat=lat.dim))
        expected = tuple((u, z) for z in box for u in lat.base.vertices)
        assert tuple(win.vertices) == expected and win.vertices == expected
        assert len(win.vertices) == len(win.vertex_index) == len(win.adjacency) == len(expected)
        assert dict(win.vertex_index) == {v: i for i, v in enumerate(expected)}
        assert win.vertex_index == {v: i for i, v in enumerate(expected)}
        assert win.indices == box
        assert all(type(u) is int and all(type(c) is int for c in z) for u, z in win.vertices)
        assert all(type(i) is int for i in win.vertex_index.values())

    def test_vertices_index_like_a_tuple(self):
        win = instantiate_window(*build_preset("honeycomb"), 2)
        as_tuple = tuple(win.vertices)
        assert win.vertices[-1] == as_tuple[-1] == (1, (2, 2))
        assert win.vertices[np.int64(3)] == as_tuple[3]
        for part in (slice(3, 11, 2), slice(None, None, -1), slice(-4, None), slice(60, 70)):
            assert win.vertices[part] == as_tuple[part]
        for i in (len(as_tuple), -len(as_tuple) - 1):
            with pytest.raises(IndexError):
                win.vertices[i]
        for i in (1.0, "a", None):
            with pytest.raises(TypeError):
                win.vertices[i]
        assert hash(win.vertices) == hash(as_tuple)
        assert win.vertices != list(as_tuple)

    def test_vertex_index_answers_every_key_as_a_dict(self):
        win = instantiate_window(*build_preset("honeycomb"), 2)
        as_dict = dict(win.vertex_index)
        keys = [(0, (1, 0)), (1, (-2, 2)), (0, (1.0, 0)), (1, (-1.0, -2)), (True, (0, 0)),
                (0.0, (0, 0)), (0, (np.int64(1), 0)), (0, (Fraction(-1), Decimal(2))),
                (0, (-1 + 0j, 0)), (0, (1.5, 0)), (0, (Fraction(3, 2), 0)), (0, (3, 0)),
                (0, (0, -3)), (0, (10 ** 30, 0)), (0, (2 ** 61, 0)), (0, (float("nan"), 0)),
                (0, ("1", 0)), (0, (None, 0)), (2, (0, 0)), (-1, (0, 0)), (0, (0,)),
                (0, (0, 0, 0)), (0, ()), (0, 5), ((0,), 0), 0, None, "ab", (0,), (0, 0, 0),
                frozenset({0, 1})]
        for key in keys:
            assert (key in win.vertex_index) == (key in as_dict), key
            assert win.vertex_index.get(key, -1) == as_dict.get(key, -1), key
            if key in as_dict:
                assert win.vertex_index[key] == as_dict[key]
            else:
                with pytest.raises(KeyError):
                    win.vertex_index[key]
        assert sum(key in as_dict for key in keys) == 9
        for key in [(0, [1, 0]), [0, (1, 0)], (0, (1, [0]))]:
            for table in (as_dict, win.vertex_index):
                with pytest.raises(TypeError, match="unhashable"):
                    key in table

    def test_contains_is_vertex_index_membership(self):
        win = instantiate_window(*build_preset("cubic2"), 2)
        assert win.contains(0, (1, 0)) and win.contains(0, [1.0, -2])
        assert not win.contains(0, (1.5, 0))
        assert (0, (1.5, 0)) not in win.vertex_index
        assert not win.contains(0, (3, 0)) and not win.contains(1, (0, 0))
        assert not win.contains(0, (0,))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_vertices_and_vertex_index_are_inverse(self, data):
        lat, real = random_lattice(data)
        win = instantiate_window(lat, real, data.draw(st.integers(0, 3)))
        assert [win.vertex_index[v] for v in win.vertices] == list(range(len(win.vertices)))
        u = data.draw(st.sampled_from(lat.base.vertices))
        z = data.draw(st.tuples(*[st.integers(-4, 4)] * lat.dim))
        if (u, z) in win.vertex_index:
            assert win.vertices[win.vertex_index[u, z]] == (u, z)
        else:
            assert max(map(abs, z)) > win.radius

    def test_a_pickled_window_keeps_its_tables(self):
        win = instantiate_window(*lattice_case("two-vertex-far"), 2)
        copy = pickle.loads(pickle.dumps(win))
        assert copy.vertices == win.vertices and copy.vertex_index == win.vertex_index
        assert copy.adjacency == win.adjacency and copy.orbit_keys == win.orbit_keys
        assert (copy.orbit_eids == win.orbit_eids).all()
        assert (copy.coords == win.coords).all()

    def test_a_discarded_window_is_freed_without_the_cyclic_collector(self):
        # a view that referred back to its window would leave each discarded
        # window to the cyclic collector, and peak memory would grow with it
        win = instantiate_window(*build_preset("honeycomb"), 3)
        win.vertices[0], win.vertex_index[0, (0, 0)], win.coords, win.indices
        win.orbit_keys, win.orbit_eids, win.sample_order
        ref = weakref.ref(win)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del win
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_a_cubic2_window_takes_under_480_bytes_per_vertex(self):
        # traced at R = 30 on CPython 3.11 and numpy 2.4: 585 bytes per vertex
        # when a window also stored its vertex tuple, index dict, indices and
        # coords, 393 bytes now that it computes them on demand
        lat, real = build_preset("cubic2")
        instantiate_window(lat, real, 2)
        gc.collect()
        tracemalloc.start()
        try:
            win = instantiate_window(lat, real, 30)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size / len(win.vertices) < 480

    @pytest.mark.parametrize("big", [4, 5, 2 ** 63 - 1, 2 ** 63, 10 ** 30])
    def test_voltages_past_the_box_have_no_instance(self, big):
        # a unit loop and a loop of voltage big: at R = 2 the big loop has an
        # instance only while big <= 4, and numpy never holds a larger voltage
        lat, real = build_custom(graph_from_edges(1, [(0, 0), (0, 0)]),
                                 {0: (1,), 1: (-1,), 2: (big,), 3: (-big,)},
                                 {0: (0.0,)}, [(1.0,)])
        win = instantiate_window(lat, real, 2)
        expected = [(0, (z,)) for z in range(-2, 2)] + [(2, (-2,))] * (big == 4)
        assert list(win.orbit_keys) == expected
        assert win.orbit_ends.tolist() == [[win.vertex_index[v] for v in orbit_endpoints(win, key)]
                                           for key in expected]

    def test_quotient_voltages_are_exact_past_int64(self):
        h = 10 ** 30
        lat, real = build_custom(graph_from_edges(1, [(0, 0)] * 3),
                                 {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1),
                                  4: (h, h), 5: (-h, -h)}, {0: (0.0, 0.0)}, [(1, 0), (0, 1)])
        q = build_quotient(lat, real, KernelSublattice.of([(1, -1)], 2))
        assert q.q == ((1, 1),)
        assert q.sub_lattice.voltage == {eid: q.project_index(vec)
                                         for eid, vec in lat.voltage.items()}
        assert q.sub_lattice.voltage[4] == (2 * h,)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_equivariance(self, preset):
        lat, real = build_preset(preset)
        win = instantiate_window(lat, real, 2)
        rho = real.period_matrix()
        shift = (1,) * lat.dim
        for (u, z) in win.vertices:
            z2 = tuple(a + b for a, b in zip(z, shift))
            if not win.contains(u, z2):
                continue
            a = win.coords[win.vertex_index[(u, z)]]
            b = win.coords[win.vertex_index[(u, z2)]]
            assert np.max(np.abs(b - (a + rho @ np.array(shift, float)))) < 1e-12

    @pytest.mark.parametrize("preset", PRESETS)
    def test_interior_mask_matches_per_vertex_rule(self, preset):
        lat, real = build_preset(preset)
        win = instantiate_window(lat, real, 3)
        for margin in range(-1, 6):
            bound = win.radius - margin
            expected = [all(-bound <= c <= bound for c in z) for _, z in win.vertices]
            assert win.interior_mask(margin).tolist() == expected

    @pytest.mark.parametrize("preset", PRESETS)
    def test_presets_validate_up_to_r6(self, preset):
        from oracles import bfs_hops

        lat, real = build_preset(preset)
        for radius in range(1, 7):
            win = instantiate_window(lat, real, radius)
            # nondegenerate: all realized points distinct
            pts = {tuple(round(float(c), 9) for c in p) for p in win.coords}
            assert len(pts) == len(win.vertices)
            # window subgraph connected (derived connectivity, finitely probed)
            hops = bfs_hops(win, 0)
            assert all(h < math.inf for h in hops)


class TestClosestVertex:
    def test_plain_nearest(self):
        lat, real = build_preset("cubic2")
        win = instantiate_window(lat, real, 3)
        assert closest_vertex((0.4, 0.4), win) == (0, (0, 0))

    def test_tie_break_lexicographic(self):
        lat, real = build_preset("cubic2")
        win = instantiate_window(lat, real, 3)
        assert closest_vertex((0.5, 0.0), win) == (0, (0, 0))

    def test_rounding(self):
        lat, real = build_preset("cubic2")
        win = instantiate_window(lat, real, 3)
        assert closest_vertex((2.9, -1.2), win) == (0, (3, -1))


class TestEdgeConnectivity:
    def test_cubic2_is_4(self):
        lat, real = build_preset("cubic2")
        result = edge_connectivity_estimate(lat, real, radius=3)
        assert result.value == 4
        assert len(result.paths) == 4

    def test_honeycomb_is_3(self):
        lat, real = build_preset("honeycomb")
        result = edge_connectivity_estimate(lat, real, radius=3)
        assert result.value == 3

    def test_line_with_two_parallel_orbits_is_2(self):
        base = graph_from_edges(1, [(0, 0), (0, 0)])
        lat = CrystalLattice(base, 1, {0: (1,), 1: (-1,), 2: (1,), 3: (-1,)})
        real = Realization({0: (0.0,)}, ((1.0,),))
        assert edge_connectivity_estimate(lat, real, radius=3).value == 2

    def test_certificate_paths_are_edge_disjoint(self):
        lat, real = build_preset("cubic2")
        result = edge_connectivity_estimate(lat, real, radius=3)
        used = set()
        for path in result.paths:
            assert path[0] == result.source and path[-1] == result.sink
            for a, b in zip(path, path[1:]):
                edge = frozenset((a, b))
                assert edge not in used
                used.add(edge)

    @pytest.mark.parametrize("preset,expected", [
        ("cubic2", 4), ("triangular", 6), ("honeycomb", 3)])
    def test_nonincreasing_and_stable_by_r3(self, preset, expected):
        lat, real = build_preset(preset)
        v2 = edge_connectivity_estimate(lat, real, radius=2).value
        v3 = edge_connectivity_estimate(lat, real, radius=3).value
        v4 = edge_connectivity_estimate(lat, real, radius=4).value
        assert v2 >= v3 >= v4
        assert v3 == v4 == expected

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_cubic_value_is_2d_at_the_default_radius(self, d):
        result = edge_connectivity_estimate(*build_preset(f"cubic{d}"))
        assert (result.value, result.radius) == (2 * d, 3)
        assert result.sink == (0, (0,) * d)

    @pytest.mark.parametrize("preset,expected", [
        ("cubic1", 1), ("cubic2", 4), ("cubic3", 6), ("triangular", 6), ("honeycomb", 3),
        ("diamond", 4)])
    def test_presets_keep_radius_3_by_default(self, preset, expected):
        result = edge_connectivity_estimate(*build_preset(preset))
        assert (result.value, result.radius) == (expected, 3)

    def test_default_window_holds_every_half_edge(self):
        # at radius 3 neither loop has an instance, and the value read 0
        result = edge_connectivity_estimate(*lattice_from_text(FAR_LINE))
        assert (result.value, result.radius) == (2, 101 + CONNECTIVITY_MARGIN)
        assert len(result.paths) == 2

    def test_no_window_under_the_cap_holds_every_half_edge(self):
        lat, real = lattice_from_text(FAR_LINE.replace(" 100\n", " 999999\n")
                                      .replace(" -100\n", " -999999\n"))
        with pytest.raises(LatticeError, match=r"^edge connectivity needs a window of radius"
                           r" 1000000 or more \(the largest voltage entry is 999999\), above"
                           r" the cap of 400000 vertices$"):
            edge_connectivity_estimate(lat, real)

    def test_window_too_small(self):
        lat, real = build_preset("cubic2")
        with pytest.raises(LatticeError):
            edge_connectivity_estimate(lat, real, radius=1)

    @pytest.mark.parametrize("case", ("cubic1",) + PRESETS + ("cubic2/(1,-1)", "parallel-pair"))
    def test_certificate_walks_share_no_interior_orbit(self, case):
        lat, real = lattice_case(case)
        result = edge_connectivity_estimate(lat, real, radius=3)
        win = instantiate_window(lat, real, 3)
        interior = win.interior_mask(CONNECTIVITY_MARGIN)
        orbits = Counter(frozenset(e) for e in win.orbit_ends.tolist())
        inner = Counter(frozenset(e) for e in win.orbit_ends.tolist() if interior[e].all())
        used = Counter()
        assert len(result.paths) == result.value
        for walk in result.paths:
            assert walk[0] == result.source and walk[-1] == result.sink
            steps = [frozenset(win.vertex_index[v] for v in pair) for pair in zip(walk, walk[1:])]
            assert all(orbits[step] for step in steps)
            used.update(step for step in steps if step in inner)
        assert all(n <= inner[step] for step, n in used.items())

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_value_and_sink_match_scipy_maximum_flow(self, data):
        # same capacities as the library: 1 on an interior orbit, m + 1 on one that
        # touches the margin; parallel orbits summed, loops dropped
        lat, real = random_lattice(data)
        radius = data.draw(st.integers(2, 3))
        result = edge_connectivity_estimate(lat, real, radius)
        win = instantiate_window(lat, real, radius)
        interior = win.interior_mask(CONNECTIVITY_MARGIN)
        a, b = win.orbit_ends[win.orbit_ends[:, 0] != win.orbit_ends[:, 1]].T
        cap = np.where(interior[a] & interior[b], 1, len(win.orbit_ends) + 1)
        n = len(win.vertices)
        graph = coo_matrix((np.concatenate((cap, cap)).astype(np.int32),
                            (np.concatenate((a, b)), np.concatenate((b, a)))), shape=(n, n)).tocsr()
        graph.sum_duplicates()
        inner = np.flatnonzero(interior).tolist()
        flows = [maximum_flow(graph, inner[0], t).flow_value for t in inner[1:]]
        assert result.source == win.vertices[inner[0]]
        assert result.value == min(flows)
        # the sink is the first minimizer among the (u, 0), one per base vertex
        sinks = [(u, (0,) * lat.dim) for u in lat.base.vertices]
        sink_flows = [maximum_flow(graph, inner[0], win.vertex_index[t]).flow_value
                      for t in sinks]
        assert result.sink == sinks[sink_flows.index(min(sink_flows))]


class TestSerialization:
    @pytest.mark.parametrize("preset", PRESETS + ("three-vertex-loop",))
    def test_round_trip(self, preset):
        lat, real = lattice_case(preset)
        text = lattice_to_text(lat, real)
        lat2, real2 = lattice_from_text(text)
        assert lat2 == lat
        assert real2 == real
        assert lattice_to_text(lat2, real2) == text

    @pytest.mark.parametrize("preset,digest", [
        ("cubic1", "33c0ce7681502afdbc5a1725df5d4daff3a07636b25c1fc107fd161db99cd2c9"),
        ("cubic2", "9cb038c793f2755d84e50737a0060f6c488ccdde20498fa03fb0786a9ee5823b"),
        ("cubic3", "dc936c6021f989e73f1df24c664f0721cdece93b414d2ef37d928310b5f32212"),
        ("cubic4", "3f8b4b34a1e2fd4466c5c3c5c2fd8ea7f0cc0d20d779a401093530c433de2995"),
        ("cubic8", "c3641cbb2fae6181f75055996ee49847be3b60d71eb8dc6fe59230167e3daa32"),
        ("triangular", "fbd7c1ad94ab9c3dff126b4f9ee70f326c6c487c64559818323c296976db30df"),
        ("honeycomb", "b860f7146d588a8de3c901167ae7a84c0fb4e3213cbf21d3f6f9d599090e9a11"),
        ("diamond", "5f12009014cb7fd367d4002e503c262c715c60566263f19826a67f7af654d9f8"),
    ])
    def test_preset_text_is_frozen(self, preset, digest):
        # a golden digest: a preset's text, and so its lattice_hash, never drifts
        text = lattice_to_text(*build_preset(preset))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_hash_stable_and_distinct(self):
        lat, real = build_preset("cubic2")
        lat2, real2 = build_preset("honeycomb")
        assert lattice_hash(lat, real) == lattice_hash(lat, real)
        assert lattice_hash(lat, real) != lattice_hash(lat2, real2)

    def test_header_required(self):
        with pytest.raises(LatticeError):
            lattice_from_text("dim 2\n")

    @pytest.mark.parametrize("text", ["crystal-lattice 1\n", "crystal-lattice 1\ndim\n",
                                      "crystal-lattice 1\ndim x\n"])
    def test_truncated_or_malformed_dim_rejected(self, text):
        with pytest.raises(LatticeError, match="dim"):
            lattice_from_text(text)

    @pytest.mark.parametrize("line,bad", [
        ("vertex 1", "vertex x"),
        ("vertices 2", "vertices two"),
        ("halfedges 6", "halfedges six"),
        ("halfedge 2 0 1 3 -1 0", "halfedge e2 0 1 3 -1 0"),
        ("halfedge 2 0 1 3 -1 0", "halfedge 2 0 1 3 z 0"),
        ("position 1 1.0 0.0", "position 1 1.0 zero"),
        ("period 1.5 1.5", "period 1.5 1,5"),
    ], ids=["vertex", "vertices", "halfedges", "halfedge-id", "halfedge-voltage",
            "position", "period"])
    def test_malformed_number_names_its_record(self, line, bad):
        text = lattice_to_text(*build_preset("honeycomb"))
        assert line in text
        with pytest.raises(LatticeError) as err:
            lattice_from_text(text.replace(line, bad, 1))
        assert repr(bad) in str(err.value)
