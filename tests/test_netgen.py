"""Synthetic graph families and probability assignment schemes."""

from __future__ import annotations

import dataclasses
import io
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probflow import (
    GraphError,
    ProbabilisticGraph,
    assign_close_friends,
    assign_distance_decay,
    gen_erdos,
    gen_partitioned,
    gen_wsn,
    load_graph,
    save_graph,
)
from probflow.netgen import GenSpec, _wsn_edges, generate
from util import graph_digest, reference_wsn_edges

SQRT2 = math.sqrt(2.0)
# The full radius, a radius far below the spacing of drawn points,
# the smallest positive float (its square is 0), and any radius in (0, sqrt 2].
EPSILONS = st.one_of(
    st.sampled_from([SQRT2, 1e-9, 5e-324]),
    st.floats(min_value=0.0, max_value=SQRT2, exclude_min=True),
)


def degrees(graph: ProbabilisticGraph) -> list[int]:
    return [len(adj) for adj in graph.adjacency]


def hop_diameter(graph: ProbabilisticGraph) -> int:
    best = 0
    for src in range(graph.num_vertices):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v, _ in graph.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert len(dist) == graph.num_vertices, "generated graph must be connected"
        best = max(best, max(dist.values()))
    return best


class TestErdos:
    def test_counts_and_ranges(self):
        g = gen_erdos(10, 4, seed=3)
        assert g.num_edges == 20
        assert all(0.0 < p < 1.0 for p in g.probabilities)
        assert all(w in range(11) for w in map(int, g.weights))

    def test_seed_determinism(self):
        assert gen_erdos(30, 4, seed=9) == gen_erdos(30, 4, seed=9)
        assert gen_erdos(30, 4, seed=9) != gen_erdos(30, 4, seed=10)

    def test_minimal_instance(self):
        g = gen_erdos(2, 1, seed=0)
        assert g.num_edges == 1

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gen_erdos(4, 5, seed=0)


class TestPartitioned:
    def test_uniform_degree(self):
        g = gen_partitioned(8, 4, seed=1)
        assert degrees(g) == [4] * 8
        assert all(0.0 < p < 1.0 for p in g.probabilities)

    def test_degree_holds_at_scale(self):
        g = gen_partitioned(96, 6, seed=5)
        assert degrees(g) == [6] * 96

    def test_ring_and_path_diameters(self):
        # 12 partitions: ring halves the worst hop distance, the open path
        # pays the full partition count minus one.
        ring = gen_partitioned(24, 4, seed=2, wrap=True)
        path = gen_partitioned(24, 4, seed=2, wrap=False)
        assert hop_diameter(ring) == 6
        assert hop_diameter(path) == 11

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            gen_partitioned(10, 4, seed=0)
        with pytest.raises(ValueError):
            gen_partitioned(6, 4, seed=0)  # fewer than 2*degree vertices
        with pytest.raises(ValueError):
            gen_partitioned(9, 3, seed=0)  # odd degree

    def test_seed_determinism(self):
        assert gen_partitioned(16, 4, seed=4) == gen_partitioned(16, 4, seed=4)


class TestWsn:
    def test_edges_match_distance_rule(self):
        g = gen_wsn(120, 0.2, seed=6)
        coords = g.coordinates
        present = set(g.edges)
        for u in range(g.num_vertices):
            for v in range(u + 1, g.num_vertices):
                dx = coords[v][0] - coords[u][0]
                dy = coords[v][1] - coords[u][1]
                assert ((u, v) in present) == (dx * dx + dy * dy <= 0.2 * 0.2)

    def test_full_radius_gives_complete_graph(self):
        g = gen_wsn(12, math.sqrt(2.0), seed=7)
        assert g.num_edges == 12 * 11 // 2

    def test_tiny_radius_gives_empty_graph(self):
        g = gen_wsn(40, 1e-9, seed=8)
        assert g.num_edges == 0

    def test_mean_degree_follows_area_argument(self):
        # Interior expectation n*pi*eps^2 ~ 7.85; boundary loss pulls the
        # sample mean slightly below it.
        g = gen_wsn(1000, 0.05, seed=9)
        mean_degree = 2 * g.num_edges / g.num_vertices
        assert 0.8 * 7.85 <= mean_degree <= 1.2 * 7.85

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            gen_wsn(10, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_wsn(10, 2.0, seed=0)

    def test_seed_determinism(self):
        assert gen_wsn(60, 0.15, seed=3) == gen_wsn(60, 0.15, seed=3)

    @pytest.mark.pinned
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 300), eps=EPSILONS, seed=st.integers(0, 2**32 - 1))
    def test_edges_match_row_reference(self, n, eps, seed):
        g = gen_wsn(n, eps, seed)
        assert list(g.edges) == reference_wsn_edges(np.array(g.coordinates), eps)

    @pytest.mark.pinned
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lattice_points_match_row_reference(self, data):
        # Points on a 1/m lattice, repeated at will, fall on cell borders
        # whenever the grid's cell count divides m; radii at a lattice
        # distance, or one float either side of it, sit on the rule's border.
        m = data.draw(st.integers(1, 60))
        pool = data.draw(st.lists(st.tuples(st.integers(0, m), st.integers(0, m)), min_size=1, max_size=60))
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
        coords = np.array(picks, dtype=float) / m
        j = data.draw(st.integers(1, m))
        eps = data.draw(st.one_of(
            EPSILONS,
            st.sampled_from([j / m, math.nextafter(j / m, 0.0), math.nextafter(j / m, 2.0)]),
            st.sampled_from(pool).map(lambda xy: min(SQRT2, math.hypot(*xy) / m) or 1.0),
        ))
        assert _wsn_edges(coords, eps) == reference_wsn_edges(coords, eps)

    @pytest.mark.parametrize("eps, a, b", [
        (0.2, 0.39999999999999997, 0.6),
        (0.125, 0.12499999999999999, 0.25),
        (0.1, 0.19999999999999998, 0.3),
    ])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_joined_pair_two_cells_of_width_epsilon_apart(self, eps, a, b, axis):
        # floor(a/eps) and floor(b/eps) differ by 2, yet the rule joins the
        # two points; with 1/eps^2 points, cells exactly epsilon wide would
        # never pair them.
        n = round(1 / (eps * eps))
        coords = np.full((n, 2), 0.95)
        coords[0, axis], coords[1, axis] = a, b
        coords[:2, 1 - axis] = 0.5
        edges = _wsn_edges(coords, eps)
        assert (0, 1) in edges
        assert edges == reference_wsn_edges(coords, eps)

    def test_neighbour_search_memory_is_bounded(self):
        # An n x n distance matrix would take 72 MB per array at n = 3000.
        tracemalloc.start()
        try:
            g = gen_wsn(3000, 0.01, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.num_edges > 0
        assert peak < 16 * 2**20


@pytest.mark.pinned
def test_benchmark_size_graphs_match_pinned_digests():
    # The benchmark's three families at its sizes; a change that keeps
    # generated graphs bit-identical leaves these as they are.
    digests = {
        (family, seed): graph_digest(build(seed))
        for family, build in (
            ("erdos", lambda s: gen_erdos(200, 6, s)),
            ("partitioned", lambda s: gen_partitioned(200, 8, s)),
            ("wsn-decay", lambda s: assign_distance_decay(gen_wsn(500, 0.08, s), lam=0.001, scale=10000)),
        )
        for seed in (1, 2, 3)
    }
    assert digests == {
        ("erdos", 1): "2718987e5ee0b8b2ac9ff12a610ed0131156689b01c7ff5c7fc948ec5fe97b27",
        ("erdos", 2): "1ced4466d9b84e1136cec31486f54d741ea88e4419783c4fe5a9fbfcc6983956",
        ("erdos", 3): "d888d92dfb2035def585c7ef0ad76a94b13340fbeac68fd915b32e196c612f1a",
        ("partitioned", 1): "8469ece8b7c66dfb5753f82fb72f0593471f4e295374db448b52e943ee7b7546",
        ("partitioned", 2): "76cf21efd497a49c4c9d5be8a11a1627c5d644fcee35499596e3b877caa598f2",
        ("partitioned", 3): "2f6863d926e705ad007d845f11b295b146d79e1664964a396214d403ceaeac4b",
        ("wsn-decay", 1): "74b3b74d5eeab601ba6bfcba4397ee0e63f3b4df6084a519b2331125ba96653c",
        ("wsn-decay", 2): "4c7613222d9c756d0e51672ee80e222f79885bc1f1827ab36a044bccc849f4f6",
        ("wsn-decay", 3): "fe63210bd2b5bbde5cfd53b780b7f9aac026f7cfcd43824b36f46ce841ad8941",
    }


class TestDistanceDecay:
    def test_worked_probabilities(self):
        g = ProbabilisticGraph.build(
            3,
            [(0, 1, 0.5), (0, 2, 0.5)],
            coordinates=[(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)],
        )
        out = assign_distance_decay(g, lam=0.001)
        assert out.probability(0, 1) == pytest.approx(0.9048, abs=1e-4)
        assert out.probability(0, 2) == pytest.approx(0.3679, abs=1e-4)

    def test_zero_distance(self):
        g = ProbabilisticGraph.build(
            2, [(0, 1, 0.5)], coordinates=[(0.3, 0.3), (0.3, 0.3)]
        )
        assert assign_distance_decay(g).probability(0, 1) == 1.0

    def test_world_scale(self):
        # 0.01 coordinate units at 10 km world size is 100 meters.
        g = ProbabilisticGraph.build(
            2, [(0, 1, 0.5)], coordinates=[(0.0, 0.0), (0.01, 0.0)]
        )
        out = assign_distance_decay(g, lam=0.001, scale=10000.0)
        assert out.probability(0, 1) == pytest.approx(math.exp(-0.1))

    def test_missing_coordinates_rejected(self):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.5)])
        with pytest.raises(ValueError):
            assign_distance_decay(g)

    @pytest.mark.parametrize("kwargs, name", [
        ({"lam": -1.0}, "lam"),
        ({"lam": math.nan}, "lam"),
        ({"lam": math.inf}, "lam"),
        ({"scale": 0.0}, "scale"),
        ({"scale": -5.0}, "scale"),
        ({"scale": math.nan}, "scale"),
        ({"scale": math.inf}, "scale"),
    ], ids=["lam-negative", "lam-nan", "lam-inf", "scale-zero", "scale-negative",
            "scale-nan", "scale-inf"])
    def test_bad_rate_or_scale_rejected_by_name(self, kwargs, name):
        # A negative rate would give probabilities above 1 (or overflow),
        # and the other values no probability in (0, 1] at all.
        g = ProbabilisticGraph.build(
            2, [(0, 1, 0.5)], coordinates=[(0.0, 0.0), (0.9, 0.0)]
        )
        with pytest.raises(ValueError, match=f"^{name} must be"):
            assign_distance_decay(g, **kwargs)

    @pytest.mark.parametrize("kwargs, name", [({"lam": "1"}, "lam"), ({"scale": None}, "scale")])
    def test_non_real_rate_or_scale_rejected_by_name(self, kwargs, name):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.5)], coordinates=[(0.0, 0.0), (0.9, 0.0)])
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, not {kwargs[name]!r}")):
            assign_distance_decay(g, **kwargs)

    def test_real_rates_and_scales_of_any_type_give_the_same_graph(self):
        g = gen_wsn(30, 0.3, 1)
        out = assign_distance_decay(g, lam=0.5, scale=2.0)
        assert assign_distance_decay(g, lam=np.float64(0.5), scale=2) == out

    def test_replace_still_validates(self):
        # The decay returns its graph through dataclasses.replace, which
        # validates the new probabilities in full.
        g = gen_wsn(40, 0.3, seed=1)
        with pytest.raises(GraphError, match=r"edge \(0,11\) probability 0\.0 outside \(0,1\]"):
            dataclasses.replace(g, probabilities=(0.5,) + (0.0,) + g.probabilities[2:])

    def test_underflow_names_rate_and_scale(self):
        # Valid parameters whose probabilities underflow to 0.0: the error
        # names both, and the first edge that underflows.
        g = gen_wsn(40, 0.3, seed=1)
        with pytest.raises(ValueError, match=r"^lam=1000000\.0 and scale=10000\.0 underflow edge \(0,6\)"):
            assign_distance_decay(g, lam=1e6, scale=1e4)


class TestCloseFriends:
    def test_probability_ranges_partition(self):
        g = gen_erdos(40, 8, seed=11)
        out = assign_close_friends(g, f=3, seed=12)
        assert all(0.0 < p <= 1.0 for p in out.probabilities)
        assert any(p >= 0.5 for p in out.probabilities)
        assert any(p <= 0.5 for p in out.probabilities)

    def test_low_degree_vertex_all_close(self):
        g = ProbabilisticGraph.build(4, [(0, 1, 0.1), (0, 2, 0.1), (0, 3, 0.1)])
        out = assign_close_friends(g, f=10, seed=1)
        assert all(p >= 0.5 for p in out.probabilities)

    def test_seed_determinism(self):
        g = gen_erdos(30, 6, seed=2)
        assert assign_close_friends(g, f=4, seed=3) == assign_close_friends(g, f=4, seed=3)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(f=2.0), "f must be an integer, not 2.0"),
        (dict(f=-1), "f must be non-negative, got -1"),
        (dict(seed=1.5), "seed must be an integer, not 1.5"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
    ], ids=["f-float", "f-negative", "seed-float", "seed-negative"])
    def test_count_and_seed_are_checked_by_name(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            assign_close_friends(gen_erdos(12, 4, seed=1), **{"f": 2, "seed": 5, **kwargs})

    def test_saved_probabilities_load_back(self):
        # Saved probabilities are written by repr, which load_graph parses
        # only for plain floats.
        out = assign_close_friends(gen_erdos(12, 4, seed=1), f=2, seed=5)
        saved = io.StringIO()
        save_graph(out, saved)
        loaded = load_graph(io.StringIO(saved.getvalue()))
        assert sorted(loaded.probabilities) == sorted(out.probabilities)


class TestGenSpec:
    def test_dispatch(self):
        g = generate(GenSpec(family="erdos", n=12, degree=4, seed=1))
        assert g.num_edges == 24
        w = generate(GenSpec(family="wsn", n=20, epsilon=0.3, seed=1))
        assert w.coordinates is not None

    def test_unit_weights(self):
        g = generate(GenSpec(family="erdos", n=12, degree=4, seed=1, unit_weights=True))
        assert set(g.weights) == {1.0}

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GenSpec(family="smallworld", n=5)

    @pytest.mark.parametrize(
        "spec, field",
        [
            (dict(family="erdos", n=20.0, degree=4), "n"),
            (dict(family="erdos", n=20, degree=4.0), "degree"),
            (dict(family="partitioned", n=16, degree=4.0), "degree"),
            (dict(family="wsn", n=20.0, epsilon=0.3), "n"),
            (dict(family="erdos", n=20, degree=4, seed=1.5), "seed"),
            (dict(family="wsn", n=20, epsilon=0.3, seed=1.5), "seed"),
        ],
    )
    def test_integer_parameters(self, spec, field):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, not {spec[field]!r}")):
            GenSpec(**spec)

    @pytest.mark.parametrize("epsilon", ["0.1", None])
    def test_real_epsilon(self, epsilon):
        for call in (lambda: GenSpec("wsn", 10, epsilon=epsilon), lambda: gen_wsn(10, epsilon, 1)):
            with pytest.raises(ValueError, match=re.escape(f"epsilon must be a real number, not {epsilon!r}")):
                call()

    def test_real_epsilons_of_any_type_give_the_same_graph(self):
        assert gen_wsn(30, np.float64(0.3), 1) == gen_wsn(30, 0.3, 1)
        assert gen_wsn(30, 1, 1) == gen_wsn(30, 1.0, 1)

    def test_negative_seed_is_rejected_by_name(self):
        calls = [
            lambda: gen_erdos(20, 4, -1),
            lambda: gen_partitioned(16, 4, -1),
            lambda: gen_wsn(20, 0.3, -1),
            lambda: GenSpec(family="erdos", n=20, degree=4, seed=-1),
            lambda: GenSpec(family="wsn", n=20, epsilon=0.3, seed=-1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape("seed must be non-negative, got -1")):
                call()

    def test_integer_seeds_of_any_type_give_the_same_graph(self):
        assert gen_erdos(20, 4, np.int64(3)) == gen_erdos(20, 4, 3)
        out = assign_close_friends(gen_erdos(12, 4, seed=1), f=np.int32(2), seed=np.uint8(5))
        assert out == assign_close_friends(gen_erdos(12, 4, seed=1), f=2, seed=5)

    def test_generators_take_integers(self):
        with pytest.raises(ValueError, match=re.escape("n must be an integer, not 20.0")):
            gen_erdos(20.0, 4, seed=1)
        with pytest.raises(ValueError, match=re.escape("degree must be an integer, not 4.0")):
            gen_partitioned(16, 4.0, seed=1)
        with pytest.raises(ValueError, match=re.escape("n must be an integer, not 20.0")):
            gen_wsn(20.0, 0.3, seed=1)
        for gen, args in [(gen_erdos, (20, 4)), (gen_partitioned, (16, 4)), (gen_wsn, (20, 0.3))]:
            with pytest.raises(ValueError, match=re.escape("seed must be an integer, not 1.5")):
                gen(*args, seed=1.5)
