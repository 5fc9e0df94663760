"""Graph model, text I/O, and possible-world probabilities."""

from __future__ import annotations

import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probflow import (
    GraphError,
    ProbabilisticGraph,
    induced_subgraph,
    load_graph,
    save_graph,
)
from util import DeterministicWorld, enumerate_worlds, random_connected_graph, world_probability


def load_from_text(edges: str, weights: str | None = None):
    wstream = io.StringIO(weights) if weights is not None else None
    return load_graph(io.StringIO(edges), wstream)


class TestLoadGraph:
    def test_default_weights(self):
        g = load_from_text("0 1 0.5\n1 2 0.5\n")
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.weights == (1.0, 1.0, 1.0)

    def test_probability_out_of_range(self):
        with pytest.raises(GraphError, match="line 1"):
            load_from_text("0 1 1.5\n")
        with pytest.raises(GraphError, match=r"\(0,1\]"):
            load_from_text("0 1 0\n")

    def test_duplicate_edge_unordered(self):
        with pytest.raises(GraphError, match="duplicate"):
            load_from_text("0 1 0.5\n1 0 0.7\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphError, match="line 3"):
            load_from_text("# comment\n0 1 0.5\n0 2\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            load_from_text("3 3 0.5\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="negative"):
            load_from_text("0 1 0.5\n", "0 -2\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, token):
        with pytest.raises(GraphError, match="weights line 2: non-finite"):
            load_from_text("0 1 0.5\n1 2 0.5\n", f"0 1\n1 {token}\n2 1\n")

    def test_comments_and_blanks_ignored(self):
        g = load_from_text("# head\n\na b 0.25\n", "# w\nb 3.5\n")
        assert g.num_edges == 1
        assert g.weights[g.label_index["b"]] == 3.5
        assert g.weights[g.label_index["a"]] == 1.0

    def test_weight_only_vertex_is_isolated(self):
        g = load_from_text("a b 0.5\n", "c 2\n")
        assert g.num_vertices == 3
        assert g.weights[g.label_index["c"]] == 2.0

    def test_ids_are_sorted_label_ranks(self):
        g = load_from_text("b c 0.5\na b 0.25\n")
        assert g.labels == ("a", "b", "c")

    def test_repeated_weight_line_rejected(self):
        with pytest.raises(GraphError, match="weights line 3: repeated weight for 'a'"):
            load_from_text("a b 0.5\n", "a 1\nb 2\na 5\n")

    def test_repeated_coordinate_line_rejected(self):
        coords = io.StringIO("a 0 0\n# again\na 1 1\nb 2 2\n")
        with pytest.raises(GraphError, match="coords line 3: repeated coordinates for 'a'"):
            load_graph(io.StringIO("a b 0.5\n"), None, coords)

    @pytest.mark.parametrize("x, y", [("nan", "0"), ("0", "inf"), ("-inf", "1")])
    def test_non_finite_coordinate_rejected(self, x, y):
        coords = io.StringIO(f"a 0 0\n# b next\nb {x} {y}\n")
        with pytest.raises(GraphError, match="coords line 3: non-finite coordinate"):
            load_graph(io.StringIO("a b 0.5\n"), None, coords)


class TestRoundTrip:
    def test_load_save_load_identical(self):
        rng = random.Random(11)
        g1 = random_connected_graph(rng, 9, 4)
        e1, w1 = io.StringIO(), io.StringIO()
        save_graph(g1, e1, w1)
        g2 = load_graph(io.StringIO(e1.getvalue()), io.StringIO(w1.getvalue()))
        e2, w2 = io.StringIO(), io.StringIO()
        save_graph(g2, e2, w2)
        g3 = load_graph(io.StringIO(e2.getvalue()), io.StringIO(w2.getvalue()))
        assert g2 == g3
        assert e1.getvalue() == e2.getvalue()
        assert w1.getvalue() == w2.getvalue()

    def test_coordinates_round_trip(self):
        g = ProbabilisticGraph.build(
            2, [(0, 1, 0.5)], coordinates=[(0.25, 0.75), (0.5, 0.125)]
        )
        e, w, c = io.StringIO(), io.StringIO(), io.StringIO()
        save_graph(g, e, w, c)
        g2 = load_graph(
            io.StringIO(e.getvalue()), io.StringIO(w.getvalue()), io.StringIO(c.getvalue())
        )
        assert g2.coordinates == g.coordinates


class TestWorldProbability:
    def test_worked_ten_edge_value(self):
        # Six edges present, four absent; the product is 0.00653184.
        present_p = [0.6, 0.5, 0.8, 0.4, 0.4, 0.5]
        absent_p = [0.1, 0.3, 0.4, 0.1]
        triples = [(i, i + 1, p) for i, p in enumerate(present_p + absent_p)]
        g = ProbabilisticGraph.build(11, triples)
        world = DeterministicWorld(g, frozenset(g.edges[:6]))
        assert world_probability(g, world) == pytest.approx(0.00653184, abs=1e-12)

    def test_all_certain(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])
        world = DeterministicWorld(g, frozenset(g.edges))
        assert world_probability(g, world) == 1.0

    def test_empty_world_symmetric(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 0.5), (1, 2, 0.5)])
        world = DeterministicWorld(g, frozenset())
        assert world_probability(g, world) == 0.25

    def test_parent_mismatch_rejected(self):
        g1 = ProbabilisticGraph.build(2, [(0, 1, 0.5)])
        g2 = ProbabilisticGraph.build(2, [(0, 1, 0.5)])
        world = DeterministicWorld(g1, frozenset())
        with pytest.raises(GraphError):
            world_probability(g2, world)

    def test_unknown_world_edge_rejected(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 0.5)])
        with pytest.raises(GraphError):
            DeterministicWorld(g, frozenset({(1, 2)}))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_world_probabilities_sum_to_one(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n, rng.randint(0, 4))
        total = sum(
            world_probability(g, DeterministicWorld(g, present))
            for present in enumerate_worlds(g)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestInducedSubgraph:
    def test_keep_pair(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
        sub = induced_subgraph(g, {0, 1}, {(0, 1)})
        assert sub.num_vertices == 2
        assert sub.edges == ((0, 1),)
        assert sub.labels == ("0", "1")

    def test_identity(self):
        g = ProbabilisticGraph.build(
            3, [(0, 1, 0.5), (1, 2, 0.25)], weights=[1.0, 2.0, 3.0]
        )
        assert induced_subgraph(g, range(3), g.edges) == g

    def test_empty(self):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.5)])
        sub = induced_subgraph(g, (), ())
        assert sub.num_vertices == 0
        assert sub.num_edges == 0

    def test_endpoint_outside_kept_set(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 0.5), (1, 2, 0.5)])
        with pytest.raises(GraphError):
            induced_subgraph(g, {0, 1}, {(1, 2)})


class TestValidation:
    def test_duplicate_in_build(self):
        with pytest.raises(GraphError):
            ProbabilisticGraph.build(2, [(0, 1, 0.5), (1, 0, 0.5)])

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight(self, w):
        with pytest.raises(GraphError, match="vertex 1 has non-finite weight"):
            ProbabilisticGraph.build(3, [(0, 1, 0.5), (1, 2, 0.5)], weights=[0.0, w, 1.0])

    @pytest.mark.parametrize("xy", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.5)])
    def test_non_finite_coordinates(self, xy):
        # Distance decay would turn them into a nan probability.
        with pytest.raises(GraphError, match="vertex 1 has non-finite coordinates"):
            ProbabilisticGraph.build(2, [(0, 1, 0.5)], coordinates=[(0.0, 0.0), xy])

    def test_edge_to_unknown_vertex(self):
        with pytest.raises(GraphError):
            ProbabilisticGraph.build(2, [(0, 2, 0.5)])

    def test_duplicate_labels_rejected(self):
        # Vertices are found by label in induced subgraphs, so a shared label
        # would send whole-graph Monte-Carlo flow to the wrong vertex.
        with pytest.raises(GraphError, match="vertices 0 and 2 share the label 'a'"):
            ProbabilisticGraph.build(
                3, [(0, 1, 0.5), (1, 2, 0.5)], weights=[10, 1, 0], labels=("a", "b", "a")
            )
