"""Graph model, text I/O, and possible-world probabilities."""

from __future__ import annotations

import dataclasses
import io
import math
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
import numpy as np
from hypothesis import strategies as st

from probflow import (
    FTree,
    GenSpec,
    GraphError,
    ProbabilisticGraph,
    SamplerConfig,
    StrategyConfig,
    assign_close_friends,
    assign_distance_decay,
    candidate_edges,
    dijkstra_select,
    ds_delay,
    exact_expected_flow,
    exhaustive_maxflow,
    expected_flow_of_edges,
    gen_erdos,
    gen_partitioned,
    gen_wsn,
    induced_subgraph,
    load_graph,
    mc_expected_flow,
    run_strategy,
    save_graph,
)
from util import (
    DeterministicWorld,
    enumerate_worlds,
    random_connected_graph,
    reference_validate,
    world_probability,
)


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

    def test_non_integer_vertex_id_rejected(self):
        # A float id would otherwise fail later, as a list index in ``.adjacency``.
        with pytest.raises(GraphError, match=r"edge \(1.0,2\) has a non-integer vertex id"):
            ProbabilisticGraph(3, ((0, 1), (1.0, 2)), (0.5, 0.5), (1.0,) * 3, ("a", "b", "c"))
        with pytest.raises(GraphError, match=r"edge \(0,'1'\) has a non-integer vertex id"):
            ProbabilisticGraph(2, ((0, "1"),), (0.5,), (1.0,) * 2, ("a", "b"))

    def test_non_integer_vertex_count_rejected(self):
        with pytest.raises(GraphError, match=r"vertex count 2.0 is not an integer"):
            ProbabilisticGraph(2.0, ((0, 1),), (0.5,), (1.0,) * 2, ("a", "b"))

    @pytest.mark.parametrize("edge", [(0, True), (False, 1)])
    def test_bool_vertex_id_rejected(self, edge):
        # A bool is no vertex id (``check_integer``), though ``operator.index``
        # reads True as 1: the graph would hold the edge as (0, True).
        message = f"edge ({edge[0]!r},{edge[1]!r}) has a non-integer vertex id"
        with pytest.raises(GraphError, match=re.escape(message)):
            ProbabilisticGraph(2, (edge,), (0.5,), (1.0, 1.0), ("a", "b"))

    @pytest.mark.parametrize("count, fields", [(True, ((1.0,), ("a",))), (False, ((), ()))])
    def test_bool_vertex_count_rejected(self, count, fields):
        # Each graph's fields would match the count True or False reads as.
        with pytest.raises(GraphError, match=f"vertex count {count!r} is not an integer"):
            ProbabilisticGraph(count, (), (), *fields)

    def test_numpy_integers_accepted(self):
        i = np.int64
        g = ProbabilisticGraph(i(3), ((i(0), i(1)), (1, i(2))), (0.5, 0.5), (1.0,) * 3, ("a", "b", "c"))
        assert g.adjacency == (((1, 0),), ((0, 0), (2, 1)), ((1, 1),))


# Each injected fault, with the fewest vertices and edges it needs.
FAULTS = {
    "self-loop": (1, 0),
    "unknown vertex": (0, 0),
    "reversed edge": (0, 1),
    "adjacent duplicate": (0, 1),
    "distant duplicate": (0, 2),
    "swapped order": (0, 2),
    "probability": (0, 1),
    "weight": (1, 0),
    "coordinate": (1, 0),
    "repeated label": (2, 0),
    "length mismatch": (0, 0),
}


@st.composite
def valid_graph_fields(draw) -> dict:
    """The six fields of a valid graph: a random one of 0-12 vertices, or a
    benchmark family's graph at a small size."""
    family = draw(st.sampled_from(["random", "erdos", "partitioned", "wsn-decay"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "erdos":
        g = gen_erdos(draw(st.integers(3, 12)), 2, seed)
    elif family == "partitioned":
        g = gen_partitioned(draw(st.sampled_from([8, 12])), 4, seed, wrap=draw(st.booleans()))
    elif family == "wsn-decay":
        g = assign_distance_decay(gen_wsn(draw(st.integers(1, 12)), 0.4, seed), lam=0.001, scale=1000)
    else:
        n = draw(st.integers(0, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = tuple(e for e, k in zip(pairs, keep) if k)
        finite = st.floats(-1e6, 1e6)

        def tuple_of(elements, size: int, unique: bool = False) -> tuple:
            return tuple(draw(st.lists(elements, min_size=size, max_size=size, unique=unique)))

        return dict(
            num_vertices=n,
            edges=edges,
            probabilities=tuple_of(st.floats(0.0, 1.0, exclude_min=True), len(edges)),
            weights=tuple_of(st.floats(0.0, 1e6), n),
            labels=tuple_of(st.text(max_size=5), n, unique=True),
            coordinates=tuple_of(st.tuples(finite, finite), n) if draw(st.booleans()) else None,
        )
    return {f.name: getattr(g, f.name) for f in dataclasses.fields(g)}


def inject_fault(draw, fields: dict, fault: str) -> None:
    """Break ``fields`` in place by one fault of the given kind."""
    n = fields["num_vertices"]
    edges, probs = list(fields["edges"]), list(fields["probabilities"])
    weights, labels = list(fields["weights"]), list(fields["labels"])
    coords = list(fields["coordinates"] or [(0.0, 0.0)] * n)

    def index(size: int) -> int:
        return draw(st.integers(0, size - 1))

    if fault == "self-loop":
        v = index(n)
        at = draw(st.integers(0, len(edges)))
        edges.insert(at, (v, v))
        probs.insert(at, 0.5)
    elif fault == "unknown vertex":
        u = draw(st.integers(0, max(n - 1, 0)))
        edge = draw(st.sampled_from([(u, n + 1), (u, n + 3), (-1, u)]))
        at = draw(st.integers(0, len(edges)))
        edges.insert(at, edge)
        probs.insert(at, 0.5)
    elif fault == "reversed edge":
        i = index(len(edges))
        edges[i] = edges[i][::-1]
    elif fault == "adjacent duplicate":
        i = index(len(edges))
        edges.insert(i + 1, edges[i])
        probs.insert(i + 1, probs[i])
    elif fault == "distant duplicate":
        i = index(len(edges))
        at = draw(st.sampled_from([j for j in range(len(edges) + 1) if j not in (i, i + 1)]))
        edges.insert(at, edges[i])
        probs.insert(at, 0.5)
    elif fault == "swapped order":
        i, j = sorted(draw(st.lists(st.integers(0, len(edges) - 1), min_size=2, max_size=2, unique=True)))
        edges[i], edges[j] = edges[j], edges[i]
        if draw(st.booleans()):
            probs[i], probs[j] = probs[j], probs[i]
    elif fault == "probability":
        probs[index(len(probs))] = draw(st.sampled_from([0.0, 1.5, math.nan]))
    elif fault == "weight":
        weights[index(n)] = draw(st.sampled_from([-1.0, -5e-324, math.inf, -math.inf, math.nan]))
    elif fault == "coordinate":
        v, bad = index(n), draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        coords[v] = draw(st.sampled_from([(bad, coords[v][1]), (coords[v][0], bad)]))
        fields["coordinates"] = coords
    elif fault == "repeated label":
        v, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        labels[v] = labels[w]
    elif fault == "length mismatch":
        extra = {"probabilities": 0.5, "weights": 1.0, "labels": "extra", "coordinates": (0.0, 0.0)}
        name = draw(st.sampled_from(sorted(extra)))
        seq = {"probabilities": probs, "weights": weights, "labels": labels, "coordinates": coords}[name]
        if seq and draw(st.booleans()):
            seq.pop()
        else:
            seq.append(extra[name])
        if name == "coordinates":
            fields["coordinates"] = coords
    fields.update(edges=edges, probabilities=probs, weights=weights, labels=labels)
    fields.update({k: tuple(v) for k, v in fields.items() if isinstance(v, list)})


def graph_error(validate, fields: dict) -> str | None:
    try:
        validate(fields)
    except GraphError as exc:
        return str(exc)
    return None


@pytest.mark.pinned
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validation_agrees_with_reference(data):
    # The library must accept and reject exactly the graphs the reference
    # per-edge loop does, naming the same first fault.
    fields = data.draw(valid_graph_fields())
    n, m = fields["num_vertices"], len(fields["edges"])
    fault = data.draw(
        st.sampled_from(["none"] + [f for f, (n_min, m_min) in FAULTS.items() if n >= n_min and m >= m_min])
    )
    if fault != "none":
        inject_fault(data.draw, fields, fault)
    expected = graph_error(lambda f: reference_validate(SimpleNamespace(**f)), fields)
    assert (expected is None) == (fault == "none")
    assert graph_error(lambda f: ProbabilisticGraph(**f), fields) == expected


STAR = ProbabilisticGraph.build(4, [(0, 1, 0.9), (0, 2, 0.5), (0, 3, 0.1)])

# Every integer parameter that ``check_integer`` reads, by the name its
# message gives and one public call that passes it the value in place of
# that parameter, valid arguments elsewhere.
INTEGER_PARAMETERS = {
    "SamplerConfig-samples": ("samples", lambda x: SamplerConfig(samples=x)),
    "SamplerConfig-master_seed": ("master_seed", lambda x: SamplerConfig(master_seed=x)),
    "StrategyConfig-budget": ("budget", lambda x: StrategyConfig("ft_m", x)),
    "ds_delay-cost": ("cost", lambda x: ds_delay(0.5, x, 2.0)),
    "dijkstra_select-k": ("k", lambda x: dijkstra_select(STAR, 0, x)),
    "exhaustive_maxflow-k": ("k", lambda x: exhaustive_maxflow(STAR, 0, x)),
    "run_strategy-q": ("vertex", lambda x: run_strategy(STAR, x, StrategyConfig("ft_m", 2))),
    "mc_expected_flow-q": ("vertex", lambda x: mc_expected_flow(STAR, x, SamplerConfig())),
    "exact_expected_flow-q": ("vertex", lambda x: exact_expected_flow(STAR, x)),
    "induced_subgraph-vertex": ("vertex", lambda x: induced_subgraph(STAR, [2, x], [])),
    "candidate_edges-attached": ("vertex", lambda x: candidate_edges(STAR, {x}, set())),
    "FTree-q": ("q", lambda x: FTree(x)),
    "gen_erdos-n": ("n", lambda x: gen_erdos(x, 4, 1)),
    "gen_erdos-degree": ("degree", lambda x: gen_erdos(20, x, 1)),
    "gen_erdos-seed": ("seed", lambda x: gen_erdos(20, 4, x)),
    "gen_partitioned-degree": ("degree", lambda x: gen_partitioned(16, x, 1)),
    "gen_wsn-n": ("n", lambda x: gen_wsn(x, 0.3, 1)),
    "GenSpec-n": ("n", lambda x: GenSpec("erdos", x, degree=4)),
    "GenSpec-seed": ("seed", lambda x: GenSpec("wsn", 20, epsilon=0.3, seed=x)),
    "assign_close_friends-f": ("f", lambda x: assign_close_friends(STAR, x, 1)),
    "assign_close_friends-seed": ("seed", lambda x: assign_close_friends(STAR, 2, x)),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("entry", sorted(INTEGER_PARAMETERS))
def test_a_bool_is_not_an_integer(entry, value):
    # One bool policy: ``check_integer`` refuses True and False, naming the
    # parameter, as ``FTree`` refuses a memo that is not a bool, so no
    # count, seed or vertex id takes True for 1.
    name, call = INTEGER_PARAMETERS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, not {value!r}")):
        call(value)


# The two entry points that take edges from a caller, with the error each
# raises for an edge the graph does not have.
EDGE_ENTRIES = {
    "expected_flow_of_edges": (ValueError, lambda e: expected_flow_of_edges(STAR, 0, [e])),
    "induced_subgraph": (GraphError, lambda e: induced_subgraph(STAR, [0, 1], [e])),
    "probability": (GraphError, lambda e: STAR.probability(*e)),
}


@pytest.mark.parametrize("edge", [(0, 1.0), (0, True), (True, 0), (1.0, 0)], ids=repr)
@pytest.mark.parametrize("entry", sorted(EDGE_ENTRIES))
def test_an_edge_id_is_an_integer(entry, edge):
    # 1.0 and True equal 1 as dict keys, so each pair above would find the
    # edge (0, 1).  Every entry point refuses it (``graph_edge``) as an
    # unknown edge, named as given.
    error, call = EDGE_ENTRIES[entry]
    with pytest.raises(error, match=re.escape(f"unknown edge {edge!r}")):
        call(edge)


def test_numpy_integer_edge_ids_name_their_edge():
    edge = (np.int64(1), np.int64(0))
    assert expected_flow_of_edges(STAR, 0, [edge]) == expected_flow_of_edges(STAR, 0, [(0, 1)])
    assert induced_subgraph(STAR, [0, 1], [edge]) == induced_subgraph(STAR, [0, 1], [(0, 1)])
    assert STAR.probability(*edge) == STAR.probability(0, 1)


def test_an_edge_id_that_is_no_number_is_an_unknown_edge():
    # Text is no vertex id: the probability lookup names the edge as given
    # in the unknown-edge error, as an edge entry point does.
    with pytest.raises(GraphError, match=re.escape("unknown edge ('a', 1)")):
        STAR.probability("a", 1)
