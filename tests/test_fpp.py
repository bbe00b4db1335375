import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import bellman_ford
from oracles import AffineSnapError, min_edge_length, passage_between_points, passage_to_affine

from crystalfpp.fpp import (
    Configuration,
    DistributionError,
    TimeDistribution,
    _bucket_width,
    _dijkstra,
    _stop_table,
    moment_check,
    passage_times,
    percolation_region,
    replica_seed,
    sample_configuration,
)
from crystalfpp.graph_core import graph_from_edges
from crystalfpp.lattice import build_custom, build_preset, instantiate_window


def window_of(preset, radius):
    lat, real = build_preset(preset)
    return instantiate_window(lat, real, radius)


def whole_window(cfg, source):
    """Passage times from source to every window vertex."""
    return _dijkstra(cfg.window, cfg.times.tolist(), cfg.window.vertex_index[source],
                     _bucket_width(cfg.times))


def random_lattice(data):
    """A random lattice drawn from data.

    The base graph has parallel edges and loops, on a zero-voltage path plus
    one unit-voltage loop per axis (so the lift is connected).
    """
    dim = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    vec = st.tuples(*[st.integers(-1, 1)] * dim)
    extra = data.draw(st.lists(st.tuples(vertex, vertex, vec), max_size=5))
    edges = ([(i, i + 1, (0,) * dim) for i in range(n - 1)]
             + [(0, 0, tuple(int(k == j) for k in range(dim))) for j in range(dim)]
             + extra)
    voltage = {}
    for i, (_, _, v) in enumerate(edges):
        voltage[2 * i], voltage[2 * i + 1] = v, tuple(-c for c in v)
    return build_custom(
        graph_from_edges(n, [(a, b) for a, b, _ in edges]), voltage,
        {u: (u / n,) + (0.0,) * (dim - 1) for u in range(n)}, np.eye(dim).tolist())


def random_window_times(data):
    """A window of a random lattice and random edge times, drawn from data.

    Times are zero half the time (ties, zero-time clusters), else values whose
    sums round.
    """
    win = instantiate_window(*random_lattice(data), data.draw(st.integers(1, 3)))
    times = data.draw(st.lists(
        st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.5, 1e-17])),
        min_size=len(win.orbit_keys), max_size=len(win.orbit_keys)))
    return win, times


# laws for the bucket-width tests; None keeps random_window_times' own times
WIDTH_LAWS = (None, "exponential:100", "uniform:0,0.001", "pareto:0.3,1",
              "deterministic:0.3", "bernoulli:0.9", "bernoulli:0.5,1,3")


class TestDistributions:
    def test_parse_and_label(self):
        d = TimeDistribution.parse("exponential:1")
        assert d.family == "exponential" and d.params == (1.0,)
        assert TimeDistribution.parse("bernoulli:0.5").params == (0.5, 0.0, 1.0)
        with pytest.raises(DistributionError):
            TimeDistribution.parse("gamma:1")

    def test_parameter_domains(self):
        with pytest.raises(DistributionError):
            TimeDistribution.bernoulli(1.5)
        with pytest.raises(DistributionError):
            TimeDistribution.uniform(2.0, 1.0)
        with pytest.raises(DistributionError):
            TimeDistribution.exponential(0.0)
        with pytest.raises(DistributionError):
            TimeDistribution.pareto(-1.0)


class TestSampling:
    def test_deterministic_all_ones(self):
        win = window_of("cubic2", 2)
        cfg = sample_configuration(win, TimeDistribution.deterministic(1), 5)
        assert (cfg.times == 1.0).all()

    def test_bernoulli_one_all_zero(self):
        win = window_of("cubic2", 2)
        cfg = sample_configuration(win, TimeDistribution.bernoulli(1.0), 5)
        assert (cfg.times == 0.0).all()

    def test_golden_exponential_regression(self):
        # frozen on first run; the draws, read in sample order, regenerate
        # bit-identically ever since
        win = window_of("cubic2", 2)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 20240801)
        assert len(cfg.times) == 40
        draws = cfg.times[win.sample_order]
        expected_head = [0.77621030717764, 1.2411973110834844, 1.7597976635195196,
                         2.9486152949691413, 0.5451938592570886]
        assert [float(x) for x in draws[:5]] == expected_head
        digest = hashlib.sha256(draws.tobytes()).hexdigest()
        assert digest == ("6d6fd86ef7a61c73ad4dbe6dc76d2e9de07913c8"
                          "f03cc7141a7ba5d06df4c648")

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(preset=st.sampled_from(["cubic1", "cubic2", "triangular", "honeycomb", "diamond"]),
           dist=st.sampled_from([TimeDistribution.exponential(1),
                                 TimeDistribution.bernoulli(0.3, 0.5, 2.0),
                                 TimeDistribution.pareto(2.5), TimeDistribution.uniform(0.5, 2),
                                 TimeDistribution.deterministic(1)]),
           radius=st.integers(0, 3), grow=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32), replica=st.integers(0, 50))
    def test_configurations_nest_across_windows(self, preset, dist, radius, grow, seed,
                                                replica):
        small = sample_configuration(window_of(preset, radius), dist,
                                     replica_seed(seed, replica))
        large = sample_configuration(window_of(preset, radius + grow), dist,
                                     replica_seed(seed, replica))
        large_times = dict(zip(large.window.orbit_keys, large.times))
        assert all(large_times[key] == t
                   for key, t in zip(small.window.orbit_keys, small.times))
        m = len(small.times)
        assert (large.times[large.window.sample_order][:m]
                == small.times[small.window.sample_order]).all()

    def test_full_passage_time_is_nonincreasing_in_the_radius(self):
        # the larger window holds every path of the smaller one, at the same times
        lat, real = build_preset("cubic2")
        target = (0, (2, 2))
        falls = 0
        for seed in range(10):
            times = []
            for radius in range(2, 8):
                win = instantiate_window(lat, real, radius)
                cfg = sample_configuration(win, TimeDistribution.exponential(1),
                                           replica_seed(seed, 0))
                (t,), _ = passage_times(cfg, (0, (0, 0)),
                                        targets=[[win.vertex_index[target]]])
                times.append(t)
            assert all(a >= b for a, b in zip(times, times[1:]))
            falls += sum(a > b for a, b in zip(times, times[1:]))
        assert falls

    @pytest.mark.parametrize("preset", ["cubic2", "honeycomb", "diamond"])
    def test_lazy_orbit_keys_keep_their_values(self, preset):
        lat, real = build_preset(preset)
        win = instantiate_window(lat, real, 2)
        sample_configuration(win, TimeDistribution.exponential(1), 3)
        assert "orbit_keys" not in win.__dict__
        # the keys as the window once listed them: canonical half-edges in
        # order, each with its origins in index order
        keys = [(eid, z) for eid, e in lat.base.half_edges.items() if eid < e.inverse
                for z in win.indices
                if win.contains(e.terminus, tuple(a + b for a, b in zip(z, lat.voltage[eid])))]
        assert win.orbit_keys == tuple(keys)

    def test_replica_streams_distinct_and_reproducible(self):
        win = window_of("cubic2", 2)
        d = TimeDistribution.exponential(1)
        a = sample_configuration(win, d, replica_seed(7, 0))
        b = sample_configuration(win, d, replica_seed(7, 1))
        a2 = sample_configuration(win, d, replica_seed(7, 0))
        role = sample_configuration(win, d, replica_seed(7, 0, role=1))
        assert (a.times == a2.times).all()
        assert not (a.times == b.times).all()
        assert not (a.times == role.times).all()


class TestPassageTimes:
    def test_unit_times_give_l1_distance(self):
        win = window_of("cubic2", 8)
        cfg = sample_configuration(win, TimeDistribution.deterministic(1), 1)
        dist = whole_window(cfg, (0, (0, 0)))
        assert dist[win.vertex_index[0, (3, 4)]] == 7.0
        assert dist[win.vertex_index[0, (0, 0)]] == 0.0

    def test_all_zero_times(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.bernoulli(1.0), 1)
        assert all(t == 0.0 for t in whole_window(cfg, (0, (0, 0))))

    @pytest.mark.parametrize("preset,radius", [
        ("cubic2", 3), ("triangular", 3), ("honeycomb", 3),
        ("diamond", 1), ("cubic3", 1)])
    def test_oracle_equivalence(self, preset, radius):
        lat, real = build_preset(preset)
        win = instantiate_window(lat, real, radius)
        assert len(win.vertices) <= 200
        src = (lat.base.vertices[0], (0,) * lat.dim)
        for seed in range(10):
            cfg = sample_configuration(win, TimeDistribution.exponential(1), seed)
            oracle = bellman_ford(win, cfg.times, win.vertex_index[src])
            assert [float(t) for t in whole_window(cfg, src)] == oracle

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def test_repaired_times_match_oracles_on_random_lattices(self, data):
        win, times = random_window_times(data)
        src = data.draw(st.integers(0, len(win.vertices) - 1))
        margin = data.draw(st.integers(0, 2))

        interior = win.interior_mask(margin).tolist()
        width = _bucket_width(np.array(times))
        assert ([float(t) for t in _dijkstra(win, times, src, width)]
                == bellman_ford(win, times, src))
        closed = [t if interior[a] and interior[b] else math.inf
                  for t, (a, b) in zip(times, win.orbit_ends.tolist())]
        restricted = bellman_ford(win, times, src, interior)
        restricted[src] = 0.0  # a closed search still labels its source
        assert [float(t) for t in _dijkstra(win, closed, src, width)] == restricted

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_bounded_groups_match_full_window_and_oracles(self, data):
        win, times = random_window_times(data)
        n = len(win.vertices)
        margin = data.draw(st.integers(0, 2))
        interior = win.interior_mask(margin).tolist()
        # a source in the margin half the time, when the margin is not empty
        in_margin = [i for i in range(n) if not interior[i]]
        src = data.draw(st.sampled_from(in_margin if in_margin and data.draw(st.booleans())
                                        else range(n)))
        groups = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
                                    min_size=1, max_size=4))
        if data.draw(st.booleans()):
            groups[0].append(src)  # a source inside a group
        if n > 1 and data.draw(st.booleans()):
            # an unreachable group: every edge at one other vertex never arrives
            cut = data.draw(st.sampled_from([i for i in range(n) if i != src]))
            for j, (a, b) in enumerate(win.orbit_ends.tolist()):
                if cut in (a, b):
                    times[j] = math.inf
            groups.append([cut])
        watched = data.draw(st.lists(st.integers(0, len(groups) - 1), unique=True))
        cfg = Configuration(win, np.array(times))

        got, flagged = passage_times(cfg, win.vertices[src], margin, targets=groups,
                                     watched=watched)
        full = bellman_ford(win, times, src)
        restricted = bellman_ford(win, times, src, interior)
        least = [min(full[v] for v in g) for g in groups]
        assert got == least and all(type(t) is float for t in got)
        assert flagged == any(least[g] != min(restricted[v] for v in groups[g])
                              for g in watched)

    def test_boundary_flags(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.deterministic(1), 1)

        def flagged(z):
            return passage_times(cfg, (0, (0, 0)), 1, targets=[[win.vertex_index[0, z]]],
                                 watched=[0])[1]

        # interior targets have margin-free optimal paths under unit times
        assert not flagged((2, 0))
        # margin targets are always flagged
        assert flagged((3, 0))

    def test_group_flag_compares_least_times(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.deterministic(1), 1)
        edge, tie, farther = (win.vertex_index[0, z] for z in ((3, 0), (2, 1), (2, 2)))

        def solve(group, watched=(0,)):
            return passage_times(cfg, (0, (0, 0)), 1, targets=[group], watched=watched)

        # a margin vertex tied with an interior one: the least time needs no margin
        assert solve([edge, tie]) == ([3.0], False)
        # a margin vertex nearer than the interior one: the least time needs it
        assert solve([edge, farther]) == ([3.0], True)
        assert solve([farther, edge]) == ([3.0], True)
        assert solve([edge], watched=()) == ([3.0], False)

    def test_margin_source_gets_no_restricted_labels(self):
        win = window_of("cubic2", 2)
        times = np.ones(len(win.orbit_ends))
        origin = win.vertex_index[0, (0, 0)]
        times[(win.orbit_ends == origin).any(axis=1)] = math.inf
        cfg = Configuration(win, times)

        def solve(z):
            return passage_times(cfg, (0, (2, 2)), 1, targets=[[win.vertex_index[0, z]]],
                                 watched=[0])

        # from a margin source every restricted time is inf, so it matches an
        # unreachable group and differs from every reachable one, the source too
        assert solve((0, 0)) == ([math.inf], False)
        assert solve((1, 1)) == ([2.0], True)
        assert solve((2, 2)) == ([0.0], True)

    @pytest.mark.parametrize("law", ["bernoulli:0.5", "bernoulli:0.9", "deterministic:1",
                                     "exponential:1", "uniform:0.5,1.5"])
    @pytest.mark.parametrize("preset,radius", [("cubic2", 8), ("triangular", 6)])
    @pytest.mark.parametrize("seed", range(5))
    def test_tied_labels_stop_exactly_with_parent_chains(self, preset, radius, law, seed):
        win = window_of(preset, radius)
        cfg = sample_configuration(win, TimeDistribution.parse(law), seed)
        times = cfg.times.tolist()
        rng = random.Random(seed)
        n = len(win.vertices)
        src = rng.randrange(n)
        groups = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(4)]
        parent = [-1] * n
        dist = _dijkstra(win, times, src, _bucket_width(cfg.times), stop=_stop_table(groups),
                         parent=parent)

        oracle = bellman_ford(win, times, src)
        assert ([min(dist[v] for v in g) for g in groups]
                == [min(oracle[v] for v in g) for g in groups])
        joining = {}
        for (a, b), w in zip(win.orbit_ends.tolist(), times):
            joining.setdefault(frozenset((a, b)), []).append(w)
        for v in range(n):
            if dist[v] == math.inf:
                continue
            for _ in range(n):
                if v == src:
                    break
                u = parent[v]
                assert u >= 0 and any(dist[v] == dist[u] + w
                                      for w in joining.get(frozenset((u, v)), ()))
                v = u
            assert v == src

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def test_labels_do_not_depend_on_the_bucket_width(self, data):
        win, times = random_window_times(data)
        law = data.draw(st.sampled_from(WIDTH_LAWS))
        if law is not None:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            times = TimeDistribution.parse(law).sample(rng, len(times)).tolist()
        for j in data.draw(st.lists(st.integers(0, len(times) - 1), max_size=6)):
            times[j] = data.draw(st.sampled_from([0.0, math.inf]))
        src = data.draw(st.integers(0, len(win.vertices) - 1))

        oracle = bellman_ford(win, times, src)
        for width in (2.0**-12, 1.0, 2.0**12, _bucket_width(np.array(times))):
            assert [float(t) for t in _dijkstra(win, times, src, width)] == oracle

    def test_bucket_width_is_a_power_of_two_near_the_median(self):
        win = window_of("cubic2", 8)
        for law in WIDTH_LAWS[1:] + ("exponential:1", "uniform:0.5,1.5"):
            for seed in range(3):
                width = _bucket_width(sample_configuration(
                    win, TimeDistribution.parse(law), seed).times)
                assert width > 0 and math.frexp(width)[0] == 0.5, (law, width)
        n = len(win.orbit_ends)
        assert _bucket_width(np.zeros(n)) == 1.0
        assert _bucket_width(np.full(n, math.inf)) == 1.0
        for seed in range(10):
            times = sample_configuration(win, TimeDistribution.pareto(0.3), seed).times
            median = np.median(times)
            assert median / 4 <= _bucket_width(times) <= median * 4

    def test_bucket_width_keeps_labels_finite_when_times_span_the_float_range(self):
        # the least subnormal everywhere but at the source, whose orbits take 1e300:
        # the median alone would give labels whose quotient by the width is inf
        win = window_of("cubic2", 3)
        src = win.vertex_index[0, (0, 0)]
        times = np.full(len(win.orbit_ends), 5e-324)
        times[(win.orbit_ends == src).any(axis=1)] = 1e300
        dist = _dijkstra(win, times.tolist(), src, _bucket_width(times))
        assert dist == bellman_ford(win, times, src)
        assert sorted(set(dist)) == [0, 1e300]

    def test_bad_input_is_a_value_error_naming_the_value(self):
        win = window_of("cubic2", 2)
        cfg = sample_configuration(win, TimeDistribution.deterministic(1), 1)
        n = len(win.vertices)

        def solve(source=(0, (0, 0)), margin=1, targets=((0,),), watched=()):
            return passage_times(cfg, source, margin, targets=targets, watched=watched)

        with pytest.raises(ValueError, match=r"target -1 in group 0 "):
            solve(targets=[[-1]])
        with pytest.raises(ValueError, match=rf"target {n} in group 1 .*{n} vertices"):
            solve(targets=[[0], [1, n]])
        with pytest.raises(ValueError, match=r"target group 1 is empty"):
            solve(targets=[[0], []])
        with pytest.raises(ValueError, match=r"margin must be nonnegative, got -1"):
            solve(margin=-1)
        for g in (1, -1):
            with pytest.raises(ValueError, match=rf"watched position {g} is not one of the 1"):
                solve(watched=[g])
        for outside in (lambda: solve(source=(0, (3, 3))),
                        lambda: percolation_region(cfg, (0, (3, 3)), 1.0)):
            with pytest.raises(ValueError, match=r"source \(0, \(3, 3\)\) is not a window vertex"):
                outside()
        assert solve(targets=[[win.vertex_index[0, (2, 2)]]], watched=[0]) == ([4.0], True)

    def test_triangle_inequality(self):
        win = window_of("cubic2", 3)
        rng = random.Random(9)
        verts = list(win.vertices)
        for seed in range(20):
            cfg = sample_configuration(win, TimeDistribution.exponential(1), seed)
            sources = rng.sample(verts, 5)
            results = {v: whole_window(cfg, v) for v in sources}
            for _ in range(100):
                x, y = rng.sample(sources, 2)
                z = win.vertex_index[rng.choice(verts)]
                assert results[x][z] <= (results[x][win.vertex_index[y]]
                                         + results[y][z] + 1e-9)


# the laws of the oracle checks: continuous, two-point with zeros and ties, constant
ORACLE_LAWS = [TimeDistribution.exponential(1), TimeDistribution.bernoulli(0.5),
               TimeDistribution.uniform(0.5, 2), TimeDistribution.deterministic(1)]


def oracle_times(cfg, src, margin):
    """Bellman-Ford times from src on the whole window and off the margin."""
    win = cfg.window
    return (bellman_ford(win, cfg.times, src),
            bellman_ford(win, cfg.times, src, win.interior_mask(margin).tolist()))


class TestPointPassage:
    def test_same_point_is_zero(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 2)
        assert passage_between_points(cfg, (0.2, 0.1), (0.2, 0.1)).time == 0.0

    def test_snapping(self):
        win = window_of("cubic2", 5)
        cfg = sample_configuration(win, TimeDistribution.deterministic(1), 1)
        assert passage_between_points(cfg, (0.1, 0.0), (2.9, 0.0)).time == 3.0

    def test_exact_symmetry(self):
        win = window_of("cubic2", 4)
        for seed in range(10):
            cfg = sample_configuration(win, TimeDistribution.exponential(1), seed)
            a = passage_between_points(cfg, (-1.7, 2.2), (2.1, -0.4))
            b = passage_between_points(cfg, (2.1, -0.4), (-1.7, 2.2))
            assert a.time == b.time

    def test_matches_oracle(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 77)
        got = passage_between_points(cfg, (0.0, 0.0), (2.0, 1.0))
        oracle = bellman_ford(win, cfg.times, win.vertex_index[(0, (0, 0))])
        assert got.time == oracle[win.vertex_index[(0, (2, 1))]]

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(preset=st.sampled_from(["cubic2", "triangular", "honeycomb"]),
           dist=st.sampled_from(ORACLE_LAWS), radius=st.integers(1, 3),
           margin=st.integers(0, 2), seed=st.integers(0, 2 ** 32), data=st.data())
    def test_time_and_flag_match_oracles(self, preset, dist, radius, margin, seed, data):
        win = window_of(preset, radius)
        cfg = sample_configuration(win, dist, seed)
        i, j = (data.draw(st.integers(0, len(win.vertices) - 1)) for _ in range(2))
        got = passage_between_points(cfg, win.coords[i], win.coords[j], margin)
        lo, hi = sorted((win.vertices[i], win.vertices[j]), key=lambda v: (v[1], v[0]))
        assert (got.source, got.target) == (lo, hi)
        full, restricted = oracle_times(cfg, win.vertex_index[lo], margin)
        b = win.vertex_index[hi]
        assert got.time == full[b]
        assert got.boundary_touched == (full[b] != restricted[b])


class TestPassageToAffine:
    def test_line_at_distance_three(self):
        win = window_of("cubic2", 5)
        cfg = sample_configuration(win, TimeDistribution.deterministic(1), 1)
        res = passage_to_affine(cfg, (0.0, 0.0), ([[1.0, 0.0]], [3.0]))
        assert res.time == 3.0

    def test_affine_through_origin(self):
        win = window_of("cubic2", 4)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 5)
        res = passage_to_affine(cfg, (0.0, 0.0), ([[1.0, 1.0]], [0.0]))
        assert res.time == 0.0

    def test_matches_exhaustive_fiber_minimum(self):
        win = window_of("cubic2", 4)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 41)
        res = passage_to_affine(cfg, (0.0, 0.0), ([[1.0, 0.0]], [2.0]))
        oracle = bellman_ford(win, cfg.times, win.vertex_index[(0, (0, 0))])
        column = [oracle[win.vertex_index[(0, (2, b))]] for b in range(-4, 5)]
        assert res.time == min(column)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(preset=st.sampled_from(["cubic2", "triangular", "honeycomb"]),
           dist=st.sampled_from(ORACLE_LAWS), radius=st.integers(1, 3),
           margin=st.integers(0, 2), seed=st.integers(0, 2 ** 32),
           normal=st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
           data=st.data())
    def test_time_target_and_flag_match_oracles(self, preset, dist, radius, margin, seed,
                                                normal, data):
        win = window_of(preset, radius)
        cfg = sample_configuration(win, dist, seed)
        n = len(win.vertices)
        src = data.draw(st.integers(0, n - 1))
        # a line through a window vertex, so it has at least one candidate
        normal = np.array(normal, dtype=float)
        offset = float(normal @ win.coords[data.draw(st.integers(0, n - 1))])
        gap = np.abs(win.coords @ normal - offset) / np.linalg.norm(normal)
        snap = min_edge_length(win) / 2
        assume(not np.any(np.abs(gap - snap) < 1e-9))
        candidates = np.flatnonzero(gap <= snap).tolist()

        got = passage_to_affine(cfg, win.coords[src], ([normal.tolist()], [offset]), margin)
        full, restricted = oracle_times(cfg, src, margin)
        time, best = min((full[c], c) for c in candidates)
        assert got.source == win.vertices[src]
        assert (got.time, got.target) == (time, win.vertices[best])
        assert got.boundary_touched == any(full[c] != restricted[c] for c in candidates)

    def test_affine_outside_window_errors(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 5)
        with pytest.raises(AffineSnapError):
            passage_to_affine(cfg, (0.0, 0.0), ([[1.0, 0.0]], [17.0]))


class TestMomentCheck:
    def test_exponential_always_finite(self):
        assert moment_check(TimeDistribution.exponential(1), 4, 3).finite

    def test_pareto_threshold(self):
        infinite = moment_check(TimeDistribution.pareto(0.4), 4, 2)
        assert not infinite.finite
        assert "1.6" in infinite.witness
        finite = moment_check(TimeDistribution.pareto(0.6), 4, 2)
        assert finite.finite
        assert "2.4" in finite.witness

    def test_bounded_families(self):
        for d in (TimeDistribution.deterministic(3), TimeDistribution.bernoulli(0.2),
                  TimeDistribution.uniform(0, 2)):
            assert moment_check(d, 1, 5).finite

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(dist=st.one_of(
        st.floats(0, 10).map(TimeDistribution.deterministic),
        st.floats(0, 1).map(TimeDistribution.bernoulli),
        st.tuples(st.floats(0, 5), st.floats(0, 5)).map(
            lambda ab: TimeDistribution.uniform(min(ab), max(ab))),
        st.floats(0.01, 10).map(TimeDistribution.exponential)),
        power=st.integers(1, 8))
    def test_light_laws_ignore_the_connectivity(self, dist, power):
        # the estimators' guard passes k = 1 for every law but pareto
        checks = [moment_check(dist, k, power) for k in range(1, 17)]
        assert all(c == checks[0] for c in checks) and checks[0].finite


class TestPercolationRegion:
    def test_zero_time_continuous_gives_source_only(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 12)
        assert percolation_region(cfg, (0, (0, 0)), 0.0) == [(0, (0, 0))]

    def test_unit_times_ball(self):
        win = window_of("cubic2", 4)
        cfg = sample_configuration(win, TimeDistribution.deterministic(1), 1)
        region = percolation_region(cfg, (0, (0, 0)), 2.0)
        assert len(region) == 13  # L1 ball of radius 2

    def test_all_zero_fills_window(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.bernoulli(1.0), 1)
        assert len(percolation_region(cfg, (0, (0, 0)), 0.0)) == len(win.vertices)

    def test_nan_time_is_rejected_and_inf_reaches_everything(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 3)
        with pytest.raises(ValueError, match="nan"):
            percolation_region(cfg, (0, (0, 0)), math.nan)
        assert percolation_region(cfg, (0, (0, 0)), math.inf) == list(win.vertices)

    def test_nested_in_t(self):
        win = window_of("cubic2", 3)
        cfg = sample_configuration(win, TimeDistribution.exponential(1), 3)
        prev = set()
        for t in (0.5, 1.0, 2.0, 4.0):
            cur = set(percolation_region(cfg, (0, (0, 0)), t))
            assert prev <= cur
            prev = cur
