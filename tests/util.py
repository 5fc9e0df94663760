"""Shared corpus builders for the test suite."""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from probflow import (
    Edge,
    FlowEstimate,
    GraphError,
    IterationRecord,
    ProbabilisticGraph,
    SamplerConfig,
    Solution,
    StrategyConfig,
    candidate_edges,
    canonical_edge,
    induced_subgraph,
    mc_expected_flow,
)


@dataclass(frozen=True)
class DeterministicWorld:
    """One realization of a probabilistic graph: a subset of its edges."""

    parent: ProbabilisticGraph
    present_edges: frozenset[Edge]

    def __post_init__(self) -> None:
        index = self.parent.edge_index
        for e in self.present_edges:
            if e not in index:
                raise GraphError(f"world edge {e} is not an edge of the parent graph")


def world_probability(graph: ProbabilisticGraph, world: DeterministicWorld) -> float:
    """Realization probability: product of P(e) over present edges times 1-P(e) over absent ones."""
    if world.parent is not graph:
        raise GraphError("world does not belong to this graph")
    prob = 1.0
    for e, p in zip(graph.edges, graph.probabilities):
        prob *= p if e in world.present_edges else 1.0 - p
    return prob


def graph_digest(graph: ProbabilisticGraph) -> str:
    """sha256 over the repr of every value a graph holds."""
    payload = repr((graph.edges, graph.probabilities, graph.weights, graph.labels, graph.coordinates))
    return hashlib.sha256(payload.encode()).hexdigest()


def reference_validate(self) -> None:
    """Per-edge reference for ``ProbabilisticGraph.__post_init__``: a loop with
    a ``seen`` set, then a full ``sorted()`` comparison, written as that
    method's body (hence ``self``).  ``self`` is anything with the graph's six
    fields, so that invalid fields can be checked without constructing a graph."""
    n = self.num_vertices
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    if len(self.probabilities) != len(self.edges):
        raise GraphError("probabilities must align with edges")
    if len(self.weights) != n or len(self.labels) != n:
        raise GraphError("weights and labels must cover every vertex")
    if self.coordinates is not None:
        if len(self.coordinates) != n:
            raise GraphError("coordinates must cover every vertex")
        for v, (x, y) in enumerate(self.coordinates):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GraphError(f"vertex {v} has non-finite coordinates ({x}, {y})")
    if len(set(self.labels)) != n:
        first: dict[str, int] = {}
        for v, lab in enumerate(self.labels):
            if lab in first:
                raise GraphError(f"vertices {first[lab]} and {v} share the label {lab!r}")
            first[lab] = v
    seen: set[Edge] = set()
    for (u, v), p in zip(self.edges, self.probabilities):
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) references an unknown vertex")
        if (u, v) != canonical_edge(u, v):
            raise GraphError(f"edge ({u},{v}) is not in canonical order")
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        if not (0.0 < p <= 1.0):
            raise GraphError(f"edge ({u},{v}) probability {p} outside (0,1]")
    if list(self.edges) != sorted(self.edges):
        raise GraphError("edges must be sorted")
    for v, w in enumerate(self.weights):
        if not math.isfinite(w):
            raise GraphError(f"vertex {v} has non-finite weight {w}")
        if w < 0:
            raise GraphError(f"vertex {v} has negative weight {w}")


def reference_wsn_edges(coords: np.ndarray, eps: float) -> list[Edge]:
    """``gen_wsn``'s pairs by one row pass per vertex: v > u is joined to u
    when ``dx*dx + dy*dy <= eps*eps`` on ``coords[v] - coords[u]``."""
    edges: list[Edge] = []
    eps2 = eps * eps
    for u in range(len(coords)):
        delta = coords[u + 1 :] - coords[u]
        close = np.nonzero((delta * delta).sum(axis=1) <= eps2)[0]
        edges.extend((u, u + 1 + int(v)) for v in close)
    return edges


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


def long_cycle_graph(
    rng: random.Random, length: tuple[int, int] = (17, 19), max_uncertain: int = 20
) -> ProbabilisticGraph:
    """A cycle of ``length`` uncertain edges through vertex 0, random chords
    up to ``max_uncertain`` uncertain edges in all, and 0-3 vertices hung
    off it by certain (p = 1) edges.  The cycle's bi component has at least
    2^length[0] worlds, so its table is drawn below that many samples,
    while the oracle enumerates at most 2^max_uncertain."""
    n = rng.randint(*length)
    triples = [(i, (i + 1) % n, rng.uniform(0.3, 0.95)) for i in range(n)]
    chords = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
    for u, v in rng.sample(chords, rng.randint(0, max_uncertain - n)):
        triples.append((u, v, rng.uniform(0.3, 0.95)))
    hung = rng.randint(0, 3)
    triples += [(rng.randrange(n + j), n + j, 1.0) for j in range(hung)]
    weights = [float(rng.randint(0, 10)) for _ in range(n + hung)]
    return ProbabilisticGraph.build(n + hung, triples, weights=weights)


def long_ring_graph(
    rng: random.Random,
    pendants: int,
    extra_edges: int,
    ring: int = 9,
    p_range: tuple[float, float] = (0.2, 0.95),
    weight_range: tuple[int, int] = (0, 10),
) -> tuple[ProbabilisticGraph, list[Edge]]:
    """Two cycles of ``ring`` edges, C through vertex 0 and D through a
    vertex of C, ``pendants`` vertices hung off them as a random forest,
    and up to ``extra_edges`` random links; with an insertion order that
    grows C, then D, then the rest at random.

    No link joins two vertices of C or two of D, and the links with the
    forest stay cycle-free, so every cycle runs along C's or D's edges,
    and along that order every cycle-closing insert makes or grows a bi
    component holding all of C or of D.  Every bi component thus has at
    least ``ring`` uncertain edges: its reach table is drawn while
    ``samples`` < 2^ring.  Links inside one bi component (case IIIa) and
    between components (case IV) stay.
    """
    cyc_c = list(range(ring))
    cyc_d = [rng.randrange(1, ring), *range(ring, 2 * ring - 1)]
    n = 2 * ring - 1 + pendants
    edges = {canonical_edge(a, b) for cyc in (cyc_c, cyc_d) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
    root = list(range(n))  # union-find over the forest and the links

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    def join(u: int, v: int) -> None:
        edges.add((u, v))
        root[find(u)] = find(v)

    for v in range(2 * ring - 1, n):
        join(rng.randrange(v), v)
    links = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(links)
    added = 0
    for u, v in links:
        if added == extra_edges:
            break
        if {u, v} <= set(cyc_c) or {u, v} <= set(cyc_d) or find(u) == find(v):
            continue
        join(u, v)
        added += 1
    graph = ProbabilisticGraph.build(
        n, [(u, v, rng.uniform(*p_range)) for u, v in sorted(edges)],
        weights=[float(rng.randint(*weight_range)) for _ in range(n)],
    )
    order: list[Edge] = []
    attached = {0}
    for group in (cyc_c, cyc_d, range(n)):
        left = {e for e in graph.edges if set(e) <= set(group)} - set(order)
        while left:
            e = rng.choice(sorted(e for e in left if attached & set(e)))
            order.append(e)
            attached.update(e)
            left.remove(e)
    return graph, order


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


def ring_chain_graph(m: int, ring: int = 3) -> ProbabilisticGraph:
    """m independent cycles of ``ring`` vertices, each hung off vertex 0 by
    one tree edge; every edge has probability 0.5, the query vertex weighs
    nothing.  ``ring`` = 3 gives triangles."""
    triples = []
    n = 1
    for _ in range(m):
        cycle = list(range(n, n + ring))
        triples.append((0, n, 0.5))
        triples += [(a, b, 0.5) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        n += ring
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


# ----------------------------------------------------------------------
# Reference naive selection: every candidate scored by mc_expected_flow
# on an induced subgraph object.  The library's naive_select builds the
# same arrays without the graph object and must agree bit for bit.
# ----------------------------------------------------------------------

def reference_naive_select(graph: ProbabilisticGraph, q: int, cfg: StrategyConfig) -> Solution:
    """Greedy selection scored by whole-graph Monte-Carlo on the selected
    subgraph plus the candidate, one subgraph object per candidate."""
    if not (0 <= q < graph.num_vertices):
        raise ValueError(f"unknown vertex {q}")
    attached: set[int] = {q}
    chosen: list[Edge] = []
    chosen_set: set[Edge] = set()
    trace: list[IterationRecord] = []
    for iteration in range(1, cfg.budget + 1):
        tick = time.perf_counter()
        cands = candidate_edges(graph, attached, chosen_set)
        if not cands:
            break
        results: dict[Edge, FlowEstimate] = {}
        for e in cands:
            results[e] = reference_mc_flow_of_edges(graph, q, chosen + [e], cfg.sampler)
        best = min(cands, key=lambda e: (-results[e].mean, e))
        chosen.append(best)
        chosen_set.add(best)
        attached.update(best)
        trace.append(
            IterationRecord(
                iteration=iteration,
                edge=best,
                flow=results[best],
                edges_sampled=len(chosen),
                candidates_probed=len(cands),
                candidates_pruned=0,
                candidates_delayed=0,
                elapsed_ms=int((time.perf_counter() - tick) * 1000),
            )
        )
    return Solution(selected=tuple(chosen), trace=tuple(trace))


def reference_mc_flow_of_edges(
    graph: ProbabilisticGraph, q: int, edges: Sequence[Edge], scfg: SamplerConfig
) -> FlowEstimate:
    """``mc_expected_flow`` of the subgraph induced by the edges, on the
    vertices they touch plus q."""
    verts = {q}
    for e in edges:
        verts.update(e)
    sub = induced_subgraph(graph, verts, edges)
    q_local = sub.label_index[graph.labels[q]]
    return mc_expected_flow(sub, q_local, scfg)
