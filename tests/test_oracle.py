"""Exhaustive-enumeration reference implementations."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from probflow import (
    OracleLimitError,
    ProbabilisticGraph,
    exact_expected_flow,
    exact_reachability,
    exhaustive_maxflow,
    expected_flow_of_edges,
)
from probflow.oracle import MAX_ENUMERATED_EDGES
from util import (
    DeterministicWorld,
    enumerate_worlds,
    flow_of_world,
    random_connected_graph,
    random_tree,
    world_probability,
)


def path_graph(weights=(0.0, 1.0, 1.0)):
    return ProbabilisticGraph.build(
        3, [(0, 1, 0.5), (1, 2, 0.5)], weights=list(weights)
    )


def triangle_graph(weights=(0.0, 1.0, 1.0)):
    return ProbabilisticGraph.build(
        3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)], weights=list(weights)
    )


class TestExactReachability:
    def test_single_edge(self):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.5)])
        assert exact_reachability(g, 0, 1) == pytest.approx(0.5)

    def test_triangle(self):
        # Direct edge (mass 0.5) plus the no-direct-edge two-hop world (0.125).
        assert exact_reachability(triangle_graph(), 0, 1) == pytest.approx(0.625)

    def test_self(self):
        assert exact_reachability(triangle_graph(), 0, 0) == 1.0

    def test_certain_edges_not_enumerated(self):
        # 23 edges, more than the limit of 20, of which one is uncertain.
        triples = [(i, i + 1, 1.0) for i in range(22)] + [(22, 23, 0.5)]
        g = ProbabilisticGraph.build(24, triples)
        assert exact_reachability(g, 0, 23) == pytest.approx(0.5)

    def test_limit_enforced(self):
        rng = random.Random(1)
        g = random_connected_graph(rng, 12, 10)
        assert g.num_edges == 21
        with pytest.raises(OracleLimitError):
            exact_reachability(g, 0, 1)

    def test_limit_counts_only_uncertain_edges(self):
        # A 25-edge path with 3 uncertain edges has 8 worlds; 21 uncertain
        # edges still exceed the default limit of 20.
        probs = [0.5 if i in (3, 11, 20) else 1.0 for i in range(25)]
        g = ProbabilisticGraph.build(26, [(i, i + 1, p) for i, p in enumerate(probs)])
        assert exact_expected_flow(g, 0) == pytest.approx(4 + 8 * 0.5 + 9 * 0.25 + 5 * 0.125)
        probs = [0.5 if i < 21 else 1.0 for i in range(25)]
        g = ProbabilisticGraph.build(26, [(i, i + 1, p) for i, p in enumerate(probs)])
        with pytest.raises(OracleLimitError, match="21 uncertain edges"):
            exact_expected_flow(g, 0)


class TestExactExpectedFlow:
    def test_path(self):
        assert exact_expected_flow(path_graph(), 0) == pytest.approx(0.75)

    def test_triangle(self):
        assert exact_expected_flow(triangle_graph(), 0) == pytest.approx(1.25)

    def test_edgeless(self):
        g = ProbabilisticGraph.build(3, [], weights=[4.0, 1.0, 1.0])
        assert exact_expected_flow(g, 0) == 4.0

    def test_query_weight_included(self):
        g = path_graph(weights=(2.0, 1.0, 1.0))
        assert exact_expected_flow(g, 0) == pytest.approx(2.75)

    def test_tree_flow_is_path_product_sum(self):
        # Unique paths: reachability must equal the product of edge
        # probabilities along the path, summed with weights.
        rng = random.Random(5)
        for _ in range(30):
            g = random_tree(rng, rng.randint(2, 10))
            expect = 0.0
            for v in range(g.num_vertices):
                r = 1.0
                x = v
                while x != 0:
                    # walk the unique path to the root of the construction
                    for (a, b), p in zip(g.edges, g.probabilities):
                        if b == x:
                            r *= p
                            x = a
                            break
                expect += r * g.weights[v]
            assert exact_expected_flow(g, 0) == pytest.approx(expect, abs=1e-12)

    def test_repeated_edge_rejected(self):
        # Listing (0,1) twice, in either orientation, must not count it as
        # two independent links.
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            expected_flow_of_edges(path_graph(), 0, [(0, 1), (1, 2), (1, 0)])

    def test_monotone_under_edge_addition(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 7), rng.randint(1, 4))
            edges = list(g.edges)
            dropped = rng.choice(edges)
            rest = [e for e in edges if e != dropped]
            assert (
                expected_flow_of_edges(g, 0, rest)
                <= expected_flow_of_edges(g, 0, edges) + 1e-12
            )


class TestExhaustiveMaxflow:
    def test_star_budget_two(self):
        g = ProbabilisticGraph.build(
            4,
            [(0, 1, 0.9), (0, 2, 0.5), (0, 3, 0.1)],
            weights=[0.0, 1.0, 1.0, 1.0],
        )
        edges, flow = exhaustive_maxflow(g, 0, 2)
        assert edges == ((0, 1), (0, 2))
        assert flow == pytest.approx(1.4)

    def test_zero_budget(self):
        g = triangle_graph(weights=(3.0, 1.0, 1.0))
        edges, flow = exhaustive_maxflow(g, 0, 0)
        assert edges == ()
        assert flow == 3.0

    def test_unconstrained_budget(self):
        g = triangle_graph()
        _, flow = exhaustive_maxflow(g, 0, g.num_edges + 5)
        assert flow == pytest.approx(exact_expected_flow(g, 0))

    def test_flow_non_decreasing_in_k(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_connected_graph(rng, 6, 3)
            flows = [exhaustive_maxflow(g, 0, k)[1] for k in range(5)]
            assert all(a <= b + 1e-12 for a, b in zip(flows, flows[1:]))

    def test_tie_breaks_lexicographically(self):
        g = ProbabilisticGraph.build(
            3, [(0, 1, 0.5), (0, 2, 0.5)], weights=[0.0, 1.0, 1.0]
        )
        edges, _ = exhaustive_maxflow(g, 0, 1)
        assert edges == ((0, 1),)

    def test_selection_limit(self):
        rng = random.Random(2)
        g = random_connected_graph(rng, 10, 6)
        assert g.num_edges == 15
        with pytest.raises(OracleLimitError):
            exhaustive_maxflow(g, 0, 2)


class TestWorldLoopReference:
    def test_matches_a_sum_over_every_world(self):
        # Each world's probability times the weight connected to q in it,
        # summed one world at a time; edges of probability 1 included.
        rng = random.Random(808)
        for _ in range(20):
            n = rng.randint(3, 7)
            g = random_connected_graph(rng, n, rng.randint(0, 10 - (n - 1)))
            certain = {e for e in g.edges if rng.random() < 0.3}
            g = ProbabilisticGraph.build(
                n, [(u, v, 1.0 if (u, v) in certain else p) for (u, v), p in zip(g.edges, g.probabilities)],
                weights=list(g.weights),
            )
            looped = sum(
                world_probability(g, world) * flow_of_world(world, 0)
                for world in (DeterministicWorld(g, present) for present in enumerate_worlds(g))
            )
            assert exact_expected_flow(g, 0) == pytest.approx(looped, rel=1e-12)


@pytest.mark.pinned
class TestPinnedValues:
    """Oracle values pinned bit for bit, so a change to world propagation
    cannot move them, not even in the last place.  Each reach is a sum in
    world order, so the BLAS thread count cannot move them either."""

    def tail_diamond(self):
        return ProbabilisticGraph.build(
            5,
            [(0, 1, 0.5), (0, 2, 0.7), (1, 2, 0.3), (1, 3, 0.6), (2, 3, 0.8), (3, 4, 0.9)],
            weights=[1.0, 2.0, 3.0, 4.0, 5.0],
        )

    def mixed_certain(self):
        return ProbabilisticGraph.build(
            6,
            [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 0.25), (2, 3, 1.0),
             (3, 4, 0.6), (1, 4, 1.0), (4, 5, 0.35), (3, 5, 0.8)],
            weights=[0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
        )

    def twenty_edges(self):
        return ProbabilisticGraph.build(
            9,
            [(0, 1, 0.34), (0, 2, 0.63), (0, 4, 0.63), (0, 5, 0.35), (0, 7, 0.78),
             (1, 2, 0.35), (1, 4, 0.76), (1, 5, 0.39), (1, 7, 0.43), (2, 3, 0.51),
             (2, 4, 0.6), (2, 5, 0.51), (2, 8, 0.77), (3, 4, 0.73), (3, 5, 0.47),
             (3, 8, 0.58), (4, 6, 0.75), (4, 7, 0.88), (5, 8, 0.59), (6, 8, 0.93)],
            weights=[9.0, 1.0, 5.0, 10.0, 9.0, 3.0, 3.0, 7.0, 5.0],
        )

    def test_tail_diamond(self):
        g = self.tail_diamond()
        reach = [exact_reachability(g, 0, v) for v in range(5)]
        assert reach == [1.0, 0.7225999999999999, 0.7953999999999999, 0.719, 0.6471]
        assert exact_expected_flow(g, 0) == 10.9429
        assert exact_expected_flow(g, 4) == 12.977599999999999
        assert exhaustive_maxflow(g, 0, 1) == (((0, 2),), 3.0999999999999996)
        assert exhaustive_maxflow(g, 0, 2) == (((0, 2), (2, 3)), 5.34)
        assert exhaustive_maxflow(g, 0, 3) == (((0, 2), (2, 3), (3, 4)), 7.859999999999999)

    def test_mixed_certain_and_uncertain(self):
        g = self.mixed_certain()
        reach = [exact_reachability(g, 0, v) for v in range(6)]
        assert reach == [1.0, 1.0, 0.892, 0.892, 1.0, 0.792]
        assert exact_expected_flow(g, 0) == 14.712000000000002
        assert exact_expected_flow(g, 5) == 14.653500000000001
        assert exhaustive_maxflow(g, 0, 1) == (((0, 1),), 1.5)
        assert exhaustive_maxflow(g, 0, 2) == (((0, 1), (1, 4)), 5.5)
        assert exhaustive_maxflow(g, 0, 3) == (((0, 1), (1, 4), (4, 5)), 7.6)

    def test_at_enumeration_limit(self):
        g = self.twenty_edges()
        assert g.num_edges == MAX_ENUMERATED_EDGES
        assert exact_reachability(g, 0, 8) == 0.9611669897326798
        assert exact_reachability(g, 3, 6) == 0.9386932359664837
        assert exact_expected_flow(g, 0) == 50.30352062800525
        assert exact_expected_flow(g, 6) == 49.64153694935257

    def test_one_blas_thread_gives_the_same_values(self):
        # The limit case sums 2^20 worlds per vertex, enough for a matrix
        # product to split across threads; a run pinned to one BLAS thread
        # gives the same bits.
        code = (
            "from test_oracle import TestPinnedValues as T\n"
            "from probflow import exact_expected_flow\n"
            "print(repr(exact_expected_flow(T().twenty_edges(), 0)))\n"
        )
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert float(out) == exact_expected_flow(self.twenty_edges(), 0)
