"""Exact, exponential-time reference implementations.

These enumerate every possible world of the uncertain edges (edges of
probability 1 are present in all of them) through ``sampling.exact_reach``,
the builder that also gives small bi components their exact reach tables,
and serve as the ground truth for all estimators and selection heuristics
on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Edge, ProbabilisticGraph, canonical_edge
from .sampling import exact_reach


@dataclass(frozen=True)
class OracleLimits:
    """Guard rails on enumeration size."""

    max_edges_enumeration: int = 20
    max_edges_selection: int = 12

    def __post_init__(self) -> None:
        if self.max_edges_enumeration < 1 or self.max_edges_selection < 1:
            raise ValueError("limits must be positive")


DEFAULT_LIMITS = OracleLimits()


class OracleLimitError(ValueError):
    """Raised when an instance exceeds the enumeration limits."""


def _reach_probabilities(
    num_vertices: int,
    edges: Sequence[Edge],
    probs: Sequence[float],
    source: int,
    limits: OracleLimits,
) -> np.ndarray:
    """Exact reachability probability from ``source`` to every vertex; the
    enumeration limit counts the uncertain edges, the only ones enumerated."""
    m = sum(p < 1.0 for p in probs)
    if m > limits.max_edges_enumeration:
        raise OracleLimitError(
            f"{m} uncertain edges exceed the enumeration limit {limits.max_edges_enumeration}"
        )
    return exact_reach(edges, probs, num_vertices, source)


def exact_reachability(
    graph: ProbabilisticGraph,
    source: int,
    target: int,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> float:
    """Probability that source and target are connected, over all worlds."""
    for v in (source, target):
        if not (0 <= v < graph.num_vertices):
            raise ValueError(f"unknown vertex {v}")
    if source == target:
        return 1.0
    reach = _reach_probabilities(graph.num_vertices, graph.edges, graph.probabilities, source, limits)
    return float(reach[target])


def exact_expected_flow(
    graph: ProbabilisticGraph,
    q: int,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> float:
    """Expected total weight reaching q; q's own weight counts with probability 1."""
    if not (0 <= q < graph.num_vertices):
        raise ValueError(f"unknown vertex {q}")
    reach = _reach_probabilities(graph.num_vertices, graph.edges, graph.probabilities, q, limits)
    return float(np.asarray(graph.weights, dtype=float) @ reach)


def expected_flow_of_edges(
    graph: ProbabilisticGraph,
    q: int,
    edge_subset: Iterable[Edge],
    limits: OracleLimits = DEFAULT_LIMITS,
) -> float:
    """Exact expected flow of the subgraph keeping only ``edge_subset``."""
    subset = [canonical_edge(*e) for e in edge_subset]
    index = graph.edge_index
    probs = []
    seen: set[Edge] = set()
    for e in subset:
        if e not in index:
            raise ValueError(f"unknown edge {e}")
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        probs.append(graph.probabilities[index[e]])
    if not (0 <= q < graph.num_vertices):
        raise ValueError(f"unknown vertex {q}")
    reach = _reach_probabilities(graph.num_vertices, subset, probs, q, limits)
    return float(np.asarray(graph.weights, dtype=float) @ reach)


def exhaustive_maxflow(
    graph: ProbabilisticGraph,
    q: int,
    k: int,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> tuple[tuple[Edge, ...], float]:
    """Best edge subset of size <= k by exact flow; ties go to the
    lexicographically smallest sorted edge list."""
    if graph.num_edges > limits.max_edges_selection:
        raise OracleLimitError(
            f"{graph.num_edges} edges exceed the selection limit {limits.max_edges_selection}"
        )
    if k < 0:
        raise ValueError("k must be non-negative")
    best_edges: tuple[Edge, ...] = ()
    best_flow = expected_flow_of_edges(graph, q, (), limits)
    for size in range(1, min(k, graph.num_edges) + 1):
        for subset in itertools.combinations(graph.edges, size):
            flow = expected_flow_of_edges(graph, q, subset, limits)
            if flow > best_flow + 1e-12:
                best_flow = flow
                best_edges = subset
            elif flow > best_flow - 1e-12 and subset < best_edges:
                best_edges = subset
    return best_edges, best_flow
