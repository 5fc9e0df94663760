"""Input-file faults: every message the graph and edge-set readers raise, in
full, and which of two faults on one line is reported."""

from __future__ import annotations

import io

import pytest

from probflow import GraphError, load_graph
from probflow.cli import main

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
