"""Shared corpus builders for the test suite."""

from __future__ import annotations

import random

import numpy as np

from probflow import DeterministicWorld, Edge, ProbabilisticGraph, canonical_edge


def random_tree(
    rng: random.Random,
    n: int,
    p_range: tuple[float, float] = (0.2, 0.95),
    weight_range: tuple[int, int] = (0, 10),
) -> ProbabilisticGraph:
    """Random spanning tree on n vertices with random probabilities/weights."""
    triples = []
    for v in range(1, n):
        u = rng.randrange(v)
        triples.append((u, v, rng.uniform(*p_range)))
    weights = [float(rng.randint(*weight_range)) for _ in range(n)]
    return ProbabilisticGraph.build(n, triples, weights=weights)


def random_connected_graph(
    rng: random.Random,
    n: int,
    extra_edges: int,
    p_range: tuple[float, float] = (0.2, 0.95),
    weight_range: tuple[int, int] = (0, 10),
) -> ProbabilisticGraph:
    """Spanning tree plus ``extra_edges`` random chords (as many as fit)."""
    edges: dict[Edge, float] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[canonical_edge(u, v)] = rng.uniform(*p_range)
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    for e in candidates[:extra_edges]:
        edges[e] = rng.uniform(*p_range)
    weights = [float(rng.randint(*weight_range)) for _ in range(n)]
    return ProbabilisticGraph.build(
        n, [(u, v, p) for (u, v), p in edges.items()], weights=weights
    )


def insertable_order(
    graph: ProbabilisticGraph, rng: random.Random | None = None, q: int = 0
) -> list[Edge]:
    """Order all edges reachable from q so each insertion touches the
    connected subgraph; random growth when an rng is given."""
    attached = {q}
    remaining = set(graph.edges)
    order: list[Edge] = []
    while True:
        cands = sorted(e for e in remaining if e[0] in attached or e[1] in attached)
        if not cands:
            break
        e = rng.choice(cands) if rng is not None else cands[0]
        order.append(e)
        attached.update(e)
        remaining.remove(e)
    return order


def sample_world(graph: ProbabilisticGraph, stream: np.random.Generator) -> DeterministicWorld:
    """Draw one world: each edge present independently with its probability."""
    draws = stream.random(graph.num_edges)
    present = frozenset(e for e, d, p in zip(graph.edges, draws, graph.probabilities) if d < p)
    return DeterministicWorld(parent=graph, present_edges=present)


def reachable_set(world: DeterministicWorld, source: int) -> set[int]:
    """Connected component of ``source`` in a deterministic world."""
    graph = world.parent
    if not (0 <= source < graph.num_vertices):
        raise ValueError(f"unknown vertex {source}")
    adj: dict[int, list[int]] = {}
    for u, v in world.present_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def flow_of_world(world: DeterministicWorld, source: int) -> float:
    """Total vertex weight of the world's component containing ``source``."""
    return sum(world.parent.weights[v] for v in reachable_set(world, source))


def enumerate_worlds(graph: ProbabilisticGraph):
    """Yield every present-edge subset of a small graph."""
    import itertools

    for r in range(graph.num_edges + 1):
        for subset in itertools.combinations(graph.edges, r):
            yield frozenset(subset)


def triangle_chain_graph(m: int) -> ProbabilisticGraph:
    """m independent triangles, each hung off vertex 0 by one tree edge;
    every edge has probability 0.5, the query vertex weighs nothing."""
    triples = []
    n = 1
    for _ in range(m):
        a, b, c = n, n + 1, n + 2
        triples += [(0, a, 0.5), (a, b, 0.5), (b, c, 0.5), (a, c, 0.5)]
        n += 3
    weights = [0.0] + [1.0] * (n - 1)
    return ProbabilisticGraph.build(n, triples, weights=weights)


# ----------------------------------------------------------------------
# Reconstructed running-example topology (Q plus vertices 1..17, p = 0.5,
# weight = numeric id).  Component structure after inserting BASE_ORDER:
#   A = MONO({1,2,3,6}, Q)   root; flow to Q is exactly 5.75
#   B = BI({4,5}, 3)         triangle
#   C = BI({7,8,9}, 6)       four-cycle
#   D = BI({10,11}, 9)       triangle
#   E = MONO({13,14,15,16}, 9)
#   F = MONO({12}, 11)
# WALKTHROUGH_EDGES drive the four insertion cases IIb/IIIa/IIIb/IV.
# ----------------------------------------------------------------------

BASE_ORDER = [
    (0, 2), (1, 2), (0, 3), (0, 6),
    (3, 4), (4, 5), (3, 5),
    (6, 7), (7, 8), (8, 9), (6, 9),
    (9, 10), (10, 11), (9, 11),
    (11, 12),
    (9, 13), (13, 14), (13, 15), (15, 16),
]

WALKTHROUGH_EDGES = [(7, 17), (6, 8), (14, 15), (11, 15)]


def running_example_graph() -> ProbabilisticGraph:
    triples = [(u, v, 0.5) for u, v in BASE_ORDER + WALKTHROUGH_EDGES]
    labels = ["Q"] + [str(i) for i in range(1, 18)]
    weights = [float(i) for i in range(18)]
    return ProbabilisticGraph.build(18, triples, weights=weights, labels=labels)
