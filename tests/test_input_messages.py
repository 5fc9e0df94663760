"""Input faults: every message the graph and edge-set readers raise, in
full, and which of two faults on one line is reported; and the message
every public entry raises for a graph or config argument of the wrong
type."""

from __future__ import annotations

import io

import pytest

from probflow import (
    VARIANTS,
    GraphError,
    SamplerConfig,
    StrategyConfig,
    assign_close_friends,
    assign_distance_decay,
    candidate_edges,
    dijkstra_select,
    exact_expected_flow,
    exact_reachability,
    exhaustive_maxflow,
    expected_flow_of_edges,
    gen_erdos,
    greedy_select,
    induced_subgraph,
    load_graph,
    mc_expected_flow,
    naive_select,
    run_strategy,
    save_graph,
)
from probflow.cli import main
from probflow.selection import mc_flow_of_edges

EDGES = "a b 0.5\n"

# (edges, weights, coordinates, message); None skips that file.
LOAD_GRAPH_FAULTS = {
    "edges-field-count": ("# head\n\na b\n", None, None,
                          "line 3: expected '<u> <v> <p>', got 'a b'"),
    "edges-self-loop": ("a a 0.5\n", None, None, "line 1: self-loop at 'a'"),
    "edges-malformed-probability": ("a b x\n", None, None, "line 1: malformed probability 'x'"),
    "edges-probability-range": ("a b 1.5\n", None, None, "line 1: probability 1.5 outside (0,1]"),
    "edges-probability-nan": ("a b nan\n", None, None, "line 1: probability nan outside (0,1]"),
    "edges-duplicate": ("a b 0.5\n# again\nb a 0.25\n", None, None, "line 3: duplicate edge b a"),
    "edges-two-faults": ("a a x\n", None, None, "line 1: self-loop at 'a'"),
    "weights-field-count": (EDGES, "# w\na\n", None, "weights line 2: expected '<v> <w>', got 'a'"),
    "weights-malformed": (EDGES, "a x\n", None, "weights line 1: malformed weight 'x'"),
    "weights-non-finite": (EDGES, "a inf\n", None, "weights line 1: non-finite weight inf"),
    "weights-negative": (EDGES, "a -1\n", None, "weights line 1: negative weight -1.0"),
    "weights-repeated": (EDGES, "a 1\n\na 2\n", None, "weights line 3: repeated weight for 'a'"),
    "weights-two-faults": (EDGES, "a 1\na -inf\n", None, "weights line 2: non-finite weight -inf"),
    "coords-field-count": (EDGES, None, "a 0\n", "coords line 1: expected '<v> <x> <y>', got 'a 0'"),
    "coords-malformed": (EDGES, None, "a 0 x\n", "coords line 1: malformed coordinate"),
    "coords-non-finite": (EDGES, None, "a nan 0\n", "coords line 1: non-finite coordinate (nan, 0.0)"),
    "coords-repeated": (EDGES, None, "a 0 0\n# b\na 1 1\n",
                        "coords line 3: repeated coordinates for 'a'"),
    "coords-missing": (EDGES, None, "a 0 0\n", "missing coordinates for vertices: b"),
    "coords-two-faults": (EDGES, None, "a 0 0\na x inf\n", "coords line 2: malformed coordinate"),
}


@pytest.mark.parametrize("edges, weights, coords, message", LOAD_GRAPH_FAULTS.values(),
                         ids=LOAD_GRAPH_FAULTS.keys())
def test_load_graph_message(edges, weights, coords, message):
    streams = [io.StringIO(t) if t is not None else None for t in (edges, weights, coords)]
    with pytest.raises(GraphError) as info:
        load_graph(*streams)
    assert str(info.value) == message


# Faults in an edge-set file over the path Q - a - b.
EDGE_SET_FAULTS = {
    "field-count": ("# picked\nQ\n", "edge-set line 2: expected '<u> <v>', got 'Q'"),
    "field-count-four": ("Q a 1 2\n", "edge-set line 1: expected '<u> <v>', got 'Q a 1 2'"),
    "unknown-vertex": ("Q z\n", "edge-set line 1: unknown vertex 'z'"),
    "no-such-edge": ("Q b\n", "edge-set line 1: no such edge Q b"),
    "duplicate": ("Q a\n\na Q\n", "edge-set line 3: duplicate edge a Q"),
    "two-faults": ("Q a\ny z\n", "edge-set line 2: unknown vertex 'y'"),
}


@pytest.mark.parametrize("text, message", EDGE_SET_FAULTS.values(), ids=EDGE_SET_FAULTS.keys())
@pytest.mark.parametrize("flag", ["evaluate --edge-set", "dump-ftree --insert"])
def test_edge_set_message(tmp_path, capsys, flag, text, message):
    (tmp_path / "g.edges").write_text("Q a 0.5\na b 0.5\n", encoding="utf-8")
    (tmp_path / "sel.txt").write_text(text, encoding="utf-8")
    command, option = flag.split()
    rc = main([command, "--edges", str(tmp_path / "g.edges"), "--query", "Q",
               option, str(tmp_path / "sel.txt")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


G = gen_erdos(8, 3, 1)
GRAPH_NONE = "graph must be a ProbabilisticGraph, not None"
# (call, error, message): each call passes None for one graph or config.
WRONG_TYPES = {
    "mc_expected_flow-graph": (lambda: mc_expected_flow(None, 0, SamplerConfig()), GraphError, GRAPH_NONE),
    **{
        f"run_strategy-{v}-graph": (lambda v=v: run_strategy(None, 0, StrategyConfig(v, 2)), GraphError, GRAPH_NONE)
        for v in VARIANTS
    },
    "greedy_select-graph": (lambda: greedy_select(None, 0, StrategyConfig("ft", 2)), GraphError, GRAPH_NONE),
    "naive_select-graph": (lambda: naive_select(None, 0, StrategyConfig("naive", 2)), GraphError, GRAPH_NONE),
    "dijkstra_select-graph": (lambda: dijkstra_select(None, 0, 2), GraphError, GRAPH_NONE),
    "exact_expected_flow-graph": (lambda: exact_expected_flow(None, 0), GraphError, GRAPH_NONE),
    "exact_reachability-graph": (lambda: exact_reachability(None, 0, 1), GraphError, GRAPH_NONE),
    "expected_flow_of_edges-graph": (lambda: expected_flow_of_edges(None, 0, []), GraphError, GRAPH_NONE),
    "exhaustive_maxflow-graph": (lambda: exhaustive_maxflow(None, 0, 1), GraphError, GRAPH_NONE),
    "mc_flow_of_edges-graph": (lambda: mc_flow_of_edges(None, 0, [], SamplerConfig()), GraphError, GRAPH_NONE),
    "induced_subgraph-graph": (lambda: induced_subgraph(None, [], []), GraphError, GRAPH_NONE),
    "candidate_edges-graph": (lambda: candidate_edges(None, {0}, set()), GraphError, GRAPH_NONE),
    "assign_distance_decay-graph": (lambda: assign_distance_decay(None), GraphError, GRAPH_NONE),
    "assign_close_friends-graph": (lambda: assign_close_friends(None), GraphError, GRAPH_NONE),
    "save_graph-graph": (lambda: save_graph(None, io.StringIO()), GraphError, GRAPH_NONE),
    "mc_expected_flow-cfg": (lambda: mc_expected_flow(G, 0, None), ValueError,
                             "cfg must be a SamplerConfig, not None"),
    "mc_flow_of_edges-scfg": (lambda: mc_flow_of_edges(G, 0, [], None), ValueError,
                              "scfg must be a SamplerConfig, not None"),
    "run_strategy-cfg": (lambda: run_strategy(G, 0, None), ValueError, "cfg must be a StrategyConfig, not None"),
    "greedy_select-cfg": (lambda: greedy_select(G, 0, None), ValueError, "cfg must be a StrategyConfig, not None"),
    "naive_select-cfg": (lambda: naive_select(G, 0, None), ValueError, "cfg must be a StrategyConfig, not None"),
}


@pytest.mark.parametrize("call, error, message", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_wrong_type_message(call, error, message):
    # A graph or config argument of the wrong type is refused with a named
    # error before anything reads it, never with a bare AttributeError.
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
