"""Exact, exponential-time reference implementations.

These enumerate every possible world (deterministic edges excluded from the
enumeration) and serve as the ground truth for all estimators and selection
heuristics on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Edge, ProbabilisticGraph, canonical_edge
from .sampling import _reach_matrix


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


def _split_edges(
    edges: Sequence[Edge], probs: Sequence[float]
) -> tuple[list[Edge], list[float], list[Edge]]:
    """Separate uncertain edges (P < 1) from deterministic ones (P = 1)."""
    uncertain_e: list[Edge] = []
    uncertain_p: list[float] = []
    certain: list[Edge] = []
    for e, p in zip(edges, probs):
        if p >= 1.0:
            certain.append(e)
        else:
            uncertain_e.append(e)
            uncertain_p.append(p)
    return uncertain_e, uncertain_p, certain


def _world_probabilities(probs: Sequence[float]) -> np.ndarray:
    """Probability of each of the 2^m worlds; bit i of the index = edge i present."""
    out = np.ones(1)
    for p in probs:
        out = np.concatenate([out * (1.0 - p), out * p])
    return out


def _reach_probabilities(
    num_vertices: int,
    edges: Sequence[Edge],
    probs: Sequence[float],
    source: int,
    limits: OracleLimits,
) -> np.ndarray:
    """Exact reachability probability from ``source`` to every vertex."""
    if len(edges) > limits.max_edges_enumeration:
        raise OracleLimitError(
            f"{len(edges)} edges exceed the enumeration limit {limits.max_edges_enumeration}"
        )
    uncertain_e, uncertain_p, certain = _split_edges(edges, probs)
    m = len(uncertain_e)
    worlds = np.arange(1 << m, dtype=np.uint32)
    present_cols = [((worlds >> i) & 1).astype(bool) for i in range(m)]
    present_cols += [np.ones(1 << m, dtype=bool)] * len(certain)
    present = np.stack(present_cols, axis=1) if present_cols else np.zeros((1, 0), dtype=bool)
    reached = _reach_matrix(present, list(uncertain_e) + certain, num_vertices, source)
    weights = _world_probabilities(uncertain_p)
    return weights @ reached


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
