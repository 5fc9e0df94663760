"""Exact, exponential-time reference implementations.

These enumerate every possible world of the uncertain edges (edges of
probability 1 are present in all of them) through ``sampling.exact_reach``,
the builder that also gives small bi components their exact reach tables,
and serve as the ground truth for all estimators and selection heuristics
on small instances.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .graphs import Edge, ProbabilisticGraph, check_integer, check_vertex, graph_edge
from .sampling import exact_reach

# Guard rails on enumeration size: the uncertain edges one enumeration
# takes, and the graph edges ``exhaustive_maxflow`` chooses subsets from.
MAX_ENUMERATED_EDGES = 20
MAX_SELECTION_EDGES = 12


class OracleLimitError(ValueError):
    """Raised when an instance exceeds the enumeration limits."""


def _reach_probabilities(
    num_vertices: int, edges: Sequence[Edge], probs: Sequence[float], source: int
) -> np.ndarray:
    """Exact reachability probability from ``source`` to every vertex; the
    enumeration limit counts the uncertain edges, the only ones enumerated."""
    m = sum(p < 1.0 for p in probs)
    if m > MAX_ENUMERATED_EDGES:
        raise OracleLimitError(f"{m} uncertain edges exceed the enumeration limit {MAX_ENUMERATED_EDGES}")
    return exact_reach(edges, probs, num_vertices, source)


def exact_reachability(graph: ProbabilisticGraph, source: int, target: int) -> float:
    """Probability that source and target are connected, over all worlds."""
    source, target = check_vertex(graph, source), check_vertex(graph, target)
    if source == target:
        return 1.0
    reach = _reach_probabilities(graph.num_vertices, graph.edges, graph.probabilities, source)
    return float(reach[target])


def exact_expected_flow(graph: ProbabilisticGraph, q: int) -> float:
    """Expected total weight reaching q; q's own weight counts with probability 1."""
    return expected_flow_of_edges(graph, q, graph.edges)


def expected_flow_of_edges(graph: ProbabilisticGraph, q: int, edge_subset: Iterable[Edge]) -> float:
    """Exact expected flow of the subgraph keeping only ``edge_subset``;
    an edge ``graph_edge`` refuses, or one given twice, raises ValueError."""
    subset = [graph_edge(graph, *e) for e in edge_subset]
    index = graph.edge_index
    probs = []
    seen: set[Edge] = set()
    for e in subset:
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        probs.append(graph.probabilities[index[e]])
    reach = _reach_probabilities(graph.num_vertices, subset, probs, check_vertex(graph, q))
    return float(np.asarray(graph.weights, dtype=float) @ reach)


def exhaustive_maxflow(graph: ProbabilisticGraph, q: int, k: int) -> tuple[tuple[Edge, ...], float]:
    """Best edge subset of size <= k by exact flow; ties go to the
    lexicographically smallest sorted edge list."""
    if graph.num_edges > MAX_SELECTION_EDGES:
        raise OracleLimitError(
            f"{graph.num_edges} edges exceed the selection limit {MAX_SELECTION_EDGES}"
        )
    k = check_integer("k", k)
    if k < 0:
        raise ValueError("k must be non-negative")
    best_edges: tuple[Edge, ...] = ()
    best_flow = expected_flow_of_edges(graph, q, ())
    for size in range(1, min(k, graph.num_edges) + 1):
        for subset in itertools.combinations(graph.edges, size):
            flow = expected_flow_of_edges(graph, q, subset)
            if flow > best_flow + 1e-12:
                best_flow = flow
                best_edges = subset
            elif flow > best_flow - 1e-12 and subset < best_edges:
                best_edges = subset
    return best_edges, best_flow
