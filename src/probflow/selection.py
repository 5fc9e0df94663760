"""Budgeted edge selection strategies.

One greedy skeleton drives the component-tree variants (plain, memoized,
interval-pruned, delay-scheduled); the naive whole-graph sampler and the
probability-maximizing shortest-path tree serve as baselines.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

# new_ftree is a perfbench tracer install site: keep it imported here.
from .ftree import FTree, new_ftree
from .graphs import (
    Edge,
    ProbabilisticGraph,
    candidate_edges,
    check_finite,
    check_instance,
    check_integer,
    check_vertex,
    graph_signature,
    induced_subgraph,
)
from .sampling import (
    CI_MIN_SAMPLES,
    EXACT_SAMPLES,
    FlowEstimate,
    SamplerConfig,
    flow_estimate,
    flow_mean,
    mc_counts,
    mc_expected_flow,
)

VARIANTS = ("naive", "dijkstra", "ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds")


@dataclass(frozen=True)
class StrategyConfig:
    """Which selector to run and its budgets.  A field out of range, or not
    of its kind, raises ValueError naming it."""

    variant: str
    budget: int
    sampler: SamplerConfig = SamplerConfig()
    ds_c: float = 2.0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if check_integer("budget", self.budget) < 1:
            raise ValueError("budget must be >= 1")
        if not (check_finite("ds_c", self.ds_c) > 1.0):
            raise ValueError("ds_c must be > 1")
        check_instance("sampler", self.sampler, SamplerConfig)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    edge: Edge
    flow: FlowEstimate
    edges_sampled: int
    candidates_probed: int
    candidates_pruned: int
    candidates_delayed: int
    # wall time is diagnostics, never part of result identity
    elapsed_ms: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Solution:
    """Selected edges in commit order with the per-iteration trace."""

    selected: tuple[Edge, ...]
    trace: tuple[IterationRecord, ...]

    def __post_init__(self) -> None:
        if len(self.selected) != len(self.trace):
            raise ValueError("trace must have one record per selected edge")

    def final_flow(self, weight_at_query: float) -> float:
        return self.trace[-1].flow.mean if self.trace else weight_at_query


def ci_prune(candidates: Sequence[tuple[Edge, FlowEstimate]]) -> set[Edge]:
    """Candidates that survive interval dominance.

    A candidate is discarded only when another candidate's flow lower bound
    exceeds its upper bound and both carry at least ``CI_MIN_SAMPLES``
    sampled worlds (the normal approximation is meaningless below that).
    """
    best_lb = None
    for _, est in candidates:
        if est.samples_used >= CI_MIN_SAMPLES:
            if best_lb is None or est.lb > best_lb:
                best_lb = est.lb
    survivors = set()
    for e, est in candidates:
        if best_lb is not None and est.samples_used >= CI_MIN_SAMPLES and est.ub < best_lb:
            continue
        survivors.add(e)
    return survivors


def ds_delay(pot: float, cost: int, c: float) -> int:
    """Iterations to suspend a probed-but-unchosen candidate.

    floor(log_c(cost / pot)): expensive low-potential candidates wait longest.
    A free probe (no cycle formed, cost 0) is never delayed.  A bad
    parameter raises ValueError naming it: pot and c must be finite real
    numbers (pot > 0, c > 1) and cost a non-negative integer.
    """
    if not (check_finite("pot", pot) > 0.0):
        raise ValueError("pot must be positive")
    if not (check_finite("c", c) > 1.0):
        raise ValueError("c must be > 1")
    if check_integer("cost", cost) < 0:
        raise ValueError("cost must be non-negative")
    if cost == 0:
        return 0
    value = math.log(cost / pot) / math.log(c)
    return max(0, math.floor(value + 1e-12))


def run_strategy(graph: ProbabilisticGraph, q: int, cfg: StrategyConfig) -> Solution:
    """Dispatch a selection run by variant; a ``cfg`` that is not a
    ``StrategyConfig`` raises ValueError naming it."""
    check_instance("cfg", cfg, StrategyConfig)
    if cfg.variant == "naive":
        return naive_select(graph, q, cfg)
    if cfg.variant == "dijkstra":
        return dijkstra_select(graph, q, cfg.budget)
    return greedy_select(graph, q, cfg)


def greedy_select(graph: ProbabilisticGraph, q: int, cfg: StrategyConfig) -> Solution:
    """Component-tree greedy: score every eligible candidate, commit the argmax.

    The tree keeps its candidate edges (``FTree.candidates``), the cycle
    candidates among them (``FTree.cycle_candidates``) and every leaf
    candidate's (one endpoint attached) term over its kept evaluation, in
    order (``FTree.leaf_terms``), across iterations; only cycle candidates
    are probed (``FTree.probe_edge``), each giving its estimate and its
    cost, the ring's edge count.  The best leaf, read with its estimate
    once per iteration from the front of the order (``FTree.best_leaf``),
    is the one with the largest mean, ties going to the smallest edge.
    The flow recorded for the committed edge is the live tree's own after
    the insert.

    Variant flags: ``_m`` runs a memo tree (``FTree(q, memo=True)``), whose
    re-probes of a ring reuse the table its first probe built, across the
    commits that take none of the ring's members (any tree's commit adopts
    its probe's table); ``_ci`` prunes the cycle candidates that
    ``ci_prune`` drops beside the others and the best leaf
    (``_probe_with_ci``); ``_ds`` suspends low-potential expensive
    candidates.  A leaf samples nothing, so it is never pruned or
    suspended.

    A pruned candidate's ub is below some candidate's lb, so below that
    candidate's mean, and it could not have been the argmax; ``_ds`` reads
    the same estimate, pruned or not.  So ``ft_m_ci`` selects exactly
    ``ft_m``'s edges with ``ft_m``'s flows, and ``ft_m_ci_ds`` exactly
    ``ft_m_ds``'s; only the prune counts differ.
    """
    q = check_vertex(graph, q)
    check_instance("cfg", cfg, StrategyConfig)
    use_ci = "_ci" in cfg.variant
    use_ds = "_ds" in cfg.variant
    tree = new_ftree(q, memo=cfg.variant != "ft")
    # Suspended candidates and the iterations they still wait; only _ds
    # suspends any, and only cycle candidates.  A suspended edge stays a
    # candidate, as only an eligible edge is committed, so the eligible
    # candidates are the others.
    delays: dict[Edge, int] = {}
    selected: list[Edge] = []
    trace: list[IterationRecord] = []

    for iteration in range(1, cfg.budget + 1):
        tick = time.perf_counter()
        cands = tree.candidates(graph)
        if not cands:
            break
        if len(delays) == len(cands):
            # Everything is suspended: fast-forward the clock so the nearest
            # candidates wake up, keeping the budget fillable.
            shift = min(delays.values())
            delays = {e: d - shift for e, d in delays.items() if d > shift}
        probed = len(cands) - len(delays)

        # Leaves are never suspended, so every one is eligible.
        leaf = tree.best_leaf(graph)
        leaves = [] if leaf is None else [leaf]
        cycles = [e for e in tree.cycle_candidates(graph) if e not in delays]
        if use_ci:
            probes, pruned = _probe_with_ci(tree, graph, cycles, leaves)
        else:
            probes = {e: tree.probe_edge(graph, e) for e in cycles}
            pruned = set()

        ranked = [(-est.mean, e) for e, (est, _) in probes.items() if e not in pruned]
        ranked += [(-est.mean, e) for e, est in leaves]
        _, best = min(ranked)
        report = tree.insert_edge(graph, best, cfg.sampler)
        best_est = tree.expected_flow(graph)
        selected.append(best)
        trace.append(
            IterationRecord(
                iteration=iteration,
                edge=best,
                flow=best_est,
                edges_sampled=report.edges_sampled_count,
                candidates_probed=probed,
                candidates_pruned=len(pruned),
                candidates_delayed=len(delays),
                elapsed_ms=int((time.perf_counter() - tick) * 1000),
            )
        )
        delays = {e: d - 1 for e, d in delays.items() if d > 1}
        if use_ds:
            denom = best_est.mean
            for e, (est, cost) in probes.items():
                if e == best:
                    continue
                ratio = est.mean / denom if denom > 0 else 1.0
                pot = min(1.0, max(1e-9, ratio))
                delay = ds_delay(pot, cost, cfg.ds_c)
                if delay:
                    delays[e] = delay
    return Solution(selected=tuple(selected), trace=tuple(trace))


def _probe_with_ci(
    tree: FTree,
    graph: ProbabilisticGraph,
    cycles: Sequence[Edge],
    leaves: list[tuple[Edge, FlowEstimate]],
) -> tuple[dict[Edge, tuple[FlowEstimate, int]], set[Edge]]:
    """Probe the cycle candidates ``cycles`` (the eligible ones) with
    ``FTree.probe_edge`` and prune with one ``ci_prune`` over their
    estimates and ``leaves`` (the best leaf's, if any).  Returns the cycle
    probes' estimates and costs, and the cycle candidates ``ci_prune``
    drops; a leaf is never pruned.  Every table is built before it is
    judged, so a prune skips no work, and the pruned set depends on the
    iteration's estimates alone, not on probe order or memo state.
    """
    probes = {e: tree.probe_edge(graph, e) for e in cycles}
    kept = ci_prune([(e, est) for e, (est, _) in probes.items()] + leaves)
    return probes, {e for e in probes if e not in kept}


def naive_select(graph: ProbabilisticGraph, q: int, cfg: StrategyConfig) -> Solution:
    """Greedy selection scored by whole-graph Monte-Carlo on the selected
    subgraph plus the candidate; no decomposition, no reuse.

    Each iteration sorts the selected edges and the attached vertices once;
    a candidate adds its edge and, unless it closes a cycle, its new vertex
    to them in sorted place, and its worlds are drawn as
    ``mc_flow_of_edges`` draws that edge set's.  Candidates are ranked by
    their mean alone (``flow_mean``), ties going to the smallest edge; only
    the winner's estimate gets bounds, the ones ``mc_flow_of_edges`` gives.
    Each edge's probability is formatted as stream-key text once per run,
    when the edge first becomes a candidate."""
    q = check_vertex(graph, q)
    check_instance("cfg", cfg, StrategyConfig)
    attached: set[int] = {q}
    chosen: list[Edge] = []
    chosen_set: set[Edge] = set()
    texts: dict[Edge, str] = {}
    index, probabilities = graph.edge_index, graph.probabilities
    trace: list[IterationRecord] = []
    for iteration in range(1, cfg.budget + 1):
        tick = time.perf_counter()
        cands = candidate_edges(graph, attached, chosen_set)
        if not cands:
            break
        base_edges, base_verts = sorted(chosen), sorted(attached)
        best = best_rank = None
        for e in cands:
            if e not in texts:
                texts[e] = repr(probabilities[index[e]])
            edges = base_edges.copy()
            insort(edges, e)
            verts = base_verts
            for v in e:
                if v not in attached:
                    verts = base_verts.copy()
                    insort(verts, v)
            ledges, probs, weights, lq, sig = _local_subgraph(graph, q, edges, verts, texts)
            counts = mc_counts(ledges, probs, len(verts), lq, sig, cfg.sampler)
            rank = (-flow_mean(counts, weights, cfg.sampler.samples), e)
            if best_rank is None or rank < best_rank:
                best, best_rank = (e, counts, weights), rank
        e, counts, weights = best
        chosen.append(e)
        chosen_set.add(e)
        attached.update(e)
        trace.append(
            IterationRecord(
                iteration=iteration,
                edge=e,
                flow=flow_estimate(counts, weights, cfg.sampler),
                edges_sampled=len(chosen),
                candidates_probed=len(cands),
                candidates_pruned=0,
                candidates_delayed=0,
                elapsed_ms=int((time.perf_counter() - tick) * 1000),
            )
        )
    return Solution(selected=tuple(chosen), trace=tuple(trace))


def mc_flow_of_edges(
    graph: ProbabilisticGraph, q: int, edges: Sequence[Edge], scfg: SamplerConfig
) -> FlowEstimate:
    """Whole-subgraph Monte-Carlo flow into ``q`` of the given edge set:
    ``mc_expected_flow`` of ``induced_subgraph(graph, verts, edges)``, with
    verts q and the edges' endpoints, at q's local id.

    Restricted to vertices the edges can reach (plus q); the rest of the
    graph cannot contribute flow and would only add sampling work.  A bad
    vertex (q included), an unknown edge or a repeated one raises
    ``induced_subgraph``'s error, and an ``scfg`` that is not a
    ``SamplerConfig`` ValueError naming it.
    """
    check_instance("scfg", scfg, SamplerConfig)
    verts = sorted({q, *(v for e in edges for v in e)})
    return mc_expected_flow(induced_subgraph(graph, verts, edges), verts.index(q), scfg)


def _local_subgraph(
    graph: ProbabilisticGraph,
    q: int,
    edges: Sequence[Edge],
    verts: Sequence[int],
    texts: Mapping[Edge, str],
) -> tuple[list[Edge], list[float], np.ndarray, int, str]:
    """The edges, probabilities, weights, query and stream key that
    ``mc_counts`` and ``flow_mean`` take for the subgraph on ``verts``
    (ascending ids, q and every endpoint among them) with ``edges``
    (distinct edges of the graph in sorted canonical order), numbered as
    ``induced_subgraph`` numbers it: a vertex's local id is its rank in
    ``verts``, so the local edges stay sorted.  ``texts`` holds each edge's
    probability as its ``repr``, for the signature."""
    local = {v: i for i, v in enumerate(verts)}
    index, probabilities = graph.edge_index, graph.probabilities
    probs = [probabilities[index[e]] for e in edges]
    ledges = [(local[u], local[v]) for u, v in edges]
    key = graph_signature(len(verts), ledges, [texts[e] for e in edges])
    return ledges, probs, np.array([graph.weights[v] for v in verts], dtype=float), local[q], key


def dijkstra_select(graph: ProbabilisticGraph, q: int, k: int) -> Solution:
    """Maximum-probability spanning tree via shortest paths on -log P(e).

    Commits one tree edge per settled vertex, at most k edges; the result is
    cycle-free so the flow is an exact edge-product computation.
    """
    q = check_vertex(graph, q)
    k = check_integer("k", k)
    if k < 1:
        raise ValueError("k must be >= 1")
    settled: set[int] = set()
    flow_acc = graph.weights[q]
    chosen: list[Edge] = []
    trace: list[IterationRecord] = []
    # heap entries: (distance, vertex, reach product, tree edge or None)
    heap: list[tuple[float, int, float, Optional[Edge]]] = [(0.0, q, 1.0, None)]
    tick = time.perf_counter()
    while heap and len(chosen) < k:
        dist, v, reach, tree_edge = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if tree_edge is not None:
            chosen.append(tree_edge)
            flow_acc += reach * graph.weights[v]
            trace.append(
                IterationRecord(
                    iteration=len(chosen),
                    edge=tree_edge,
                    flow=FlowEstimate(flow_acc, flow_acc, flow_acc, EXACT_SAMPLES),
                    edges_sampled=0,
                    candidates_probed=0,
                    candidates_pruned=0,
                    candidates_delayed=0,
                    elapsed_ms=int((time.perf_counter() - tick) * 1000),
                )
            )
            tick = time.perf_counter()
        for nbr, eidx in graph.adjacency[v]:
            if nbr in settled:
                continue
            p = graph.probabilities[eidx]
            heapq.heappush(heap, (dist - math.log(p), nbr, reach * p, graph.edges[eidx]))
    return Solution(selected=tuple(chosen), trace=tuple(trace))
