"""Synthetic graph families and probability assignment schemes."""

from __future__ import annotations

import math
from collections import deque

import pytest

from probflow import (
    ProbabilisticGraph,
    assign_close_friends,
    assign_distance_decay,
    gen_erdos,
    gen_partitioned,
    gen_wsn,
)
from probflow.netgen import GenSpec, generate


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
                d = math.dist(coords[u], coords[v])
                assert ((u, v) in present) == (d <= 0.2)

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
