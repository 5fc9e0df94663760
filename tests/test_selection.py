"""Greedy selection, heuristic variants, and the two baselines."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probflow import (
    EXACT_SAMPLES,
    BiComponent,
    FTree,
    FlowEstimate,
    GraphError,
    IterationRecord,
    ProbabilisticGraph,
    SamplerConfig,
    StrategyConfig,
    VARIANTS,
    candidate_edges,
    ci_prune,
    dijkstra_select,
    ds_delay,
    exact_expected_flow,
    exact_reachability,
    exhaustive_maxflow,
    expected_flow_of_edges,
    greedy_select,
    induced_subgraph,
    mc_expected_flow,
    naive_select,
    netgen,
    run_strategy,
    sampling,
    selection,
)
from probflow.ftree import IncrementalComponentSampler
from probflow.selection import _local_subgraph, mc_flow_of_edges
from util import (
    random_connected_graph,
    reference_greedy_select,
    reference_mc_flow_of_edges,
    reference_naive_select,
    ring_chain_graph,
)


def star_graph():
    return ProbabilisticGraph.build(
        4, [(0, 1, 0.9), (0, 2, 0.5), (0, 3, 0.1)], weights=[0.0, 1.0, 1.0, 1.0]
    )


def scfg(variant, k, seed=1, samples=1000):
    return StrategyConfig(
        variant=variant, budget=k, sampler=SamplerConfig(samples=samples, master_seed=seed)
    )


class TestCandidateEdges:
    def test_initial_state(self):
        g = star_graph()
        assert candidate_edges(g, {0}, set()) == [(0, 1), (0, 2), (0, 3)]

    def test_all_selected(self):
        g = star_graph()
        assert candidate_edges(g, {0, 1, 2, 3}, set(g.edges)) == []

    def test_frontier_only(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 0.5), (1, 2, 0.5)])
        assert candidate_edges(g, {0, 1}, {(0, 1)}) == [(1, 2)]


class TestGreedySelect:
    def test_star_matches_exhaustive(self):
        g = star_graph()
        sol = greedy_select(g, 0, scfg("ft", 2))
        assert sol.selected == ((0, 1), (0, 2))
        assert [r.flow.mean for r in sol.trace] == [pytest.approx(0.9), pytest.approx(1.4)]
        assert all(r.flow.lb == r.flow.ub == r.flow.mean for r in sol.trace)
        edges, best = exhaustive_maxflow(g, 0, 2)
        assert set(sol.selected) == set(edges)

    def test_single_edge_budget_one(self):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.7)])
        sol = greedy_select(g, 0, scfg("ft", 1))
        assert sol.selected == ((0, 1),)

    def test_budget_exceeding_reachable_edges(self):
        g = star_graph()
        sol = greedy_select(g, 0, scfg("ft", 10))
        assert len(sol.selected) == 3

    def test_budget_respected(self):
        rng = random.Random(5)
        g = random_connected_graph(rng, 10, 6)
        sol = greedy_select(g, 0, scfg("ft", 4))
        assert len(sol.selected) == 4

    def test_oracle_prefix_flows_non_decreasing(self):
        rng = random.Random(8)
        for i in range(5):
            g = random_connected_graph(rng, 7, 3)
            sol = greedy_select(g, 0, scfg("ft", 5, seed=i))
            flows = [
                expected_flow_of_edges(g, 0, sol.selected[: j + 1])
                for j in range(len(sol.selected))
            ]
            assert all(a <= b + 1e-12 for a, b in zip(flows, flows[1:]))

    def test_quality_floor_against_oracle(self):
        rng = random.Random(2024)
        good = 0
        total = 12
        for i in range(total):
            n = rng.randint(5, 9)
            g = random_connected_graph(rng, n, rng.randint(1, 4), p_range=(0.3, 0.95))
            k = rng.choice([2, 3, 4])
            sol = greedy_select(g, 0, scfg("ft", k, seed=100 + i))
            achieved = expected_flow_of_edges(g, 0, sol.selected)
            _, best = exhaustive_maxflow(g, 0, k)
            if best <= 0 or achieved / best >= 0.9:
                good += 1
        assert good >= total - 1


class TestMemoizedVariant:
    def test_identical_solution_to_plain(self):
        rng = random.Random(3)
        for i in range(4):
            g = random_connected_graph(rng, 9, 5)
            a = greedy_select(g, 0, scfg("ft", 5, seed=11 + i))
            b = greedy_select(g, 0, scfg("ft_m", 5, seed=11 + i))
            assert a.selected == b.selected
            assert [r.flow for r in a.trace] == [r.flow for r in b.trace]


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v.startswith("ft")])
def test_leaf_candidates_are_never_probed_or_copied(monkeypatch, variant):
    # Leaf candidates are scored in one pass from the kept evaluation: no
    # leaf reaches FTree.probe_edge.  Cycle candidates are scored from the
    # live tree's masses, so no tree is ever copied.
    calls = {"leaf probe": 0, "cycle probe": 0, "copy": 0}
    probe_edge, copy = FTree.probe_edge, FTree.copy

    def counting_probe(tree, graph, edge, *args, **kwargs):
        kind = "cycle" if tree.is_attached(edge[0]) and tree.is_attached(edge[1]) else "leaf"
        calls[f"{kind} probe"] += 1
        return probe_edge(tree, graph, edge, *args, **kwargs)

    def counting_copy(tree):
        calls["copy"] += 1
        return copy(tree)

    monkeypatch.setattr(FTree, "probe_edge", counting_probe)
    monkeypatch.setattr(FTree, "copy", counting_copy)
    rng = random.Random(19)
    for seed in range(4):
        g = random_connected_graph(rng, 10, 12)
        greedy_select(g, 0, scfg(variant, 9, seed=seed, samples=300))
    assert calls["leaf probe"] == calls["copy"] == 0
    assert calls["cycle probe"] > 0


TREE_VARIANTS = [v for v in VARIANTS if v.startswith("ft")]


class TestIncrementalLoop:
    """The greedy loop reads the best leaf from the tree's ordered frontier
    and probes only its kept cycle candidates; the reference walks every
    candidate each iteration.  Selections and traces agree bit for bit."""

    @pytest.mark.pinned
    @pytest.mark.parametrize("variant", TREE_VARIANTS)
    @pytest.mark.parametrize("family", ["erdos", "partitioned", "wsn"])
    def test_matches_the_reference_loop(self, family, variant):
        make = {
            "erdos": lambda s: netgen.gen_erdos(40, 6, s),
            "partitioned": lambda s: netgen.gen_partitioned(40, 8, s),
            "wsn": lambda s: netgen.assign_distance_decay(
                netgen.gen_wsn(60, 0.25, s), lam=0.001, scale=1000
            ),
        }[family]
        for graph_seed, master_seed in [(1, 3), (2, 11), (4, 29)]:
            g = make(graph_seed)
            cfg = scfg(variant, 14, seed=master_seed, samples=300)
            assert greedy_select(g, 0, cfg) == reference_greedy_select(g, 0, cfg)

    @pytest.mark.pinned
    @pytest.mark.parametrize("variant", ["ft_m_ds", "ft_m_ci_ds"])
    def test_matches_the_reference_through_fast_forwards(self, variant):
        # On complete graphs every candidate closes a cycle once each vertex
        # is attached, so the delay scheduler suspends them all at times and
        # the clock is fast-forwarded.
        rng = random.Random(31)
        fast_forwarded = 0
        for trial in range(6):
            g = random_connected_graph(rng, 7, 21)
            cfg = scfg(variant, 20, seed=trial, samples=60)
            forwards: list[int] = []
            assert greedy_select(g, 0, cfg) == reference_greedy_select(g, 0, cfg, forwards)
            fast_forwarded += len(forwards)
        assert fast_forwarded > 0

    @pytest.mark.parametrize("variant", TREE_VARIANTS)
    def test_leaf_terms_are_read_once_per_iteration(self, monkeypatch, variant):
        # Each iteration reads the leaf terms once, through ``FTree.best_leaf``,
        # which gives the best leaf with its estimate.
        calls = []
        leaf_terms = FTree.leaf_terms
        monkeypatch.setattr(FTree, "leaf_terms", lambda tree, g: calls.append(1) or leaf_terms(tree, g))
        sol = greedy_select(netgen.gen_erdos(40, 6, 1), 0, scfg(variant, 12, samples=300))
        assert len(sol.trace) == 12 and len(calls) == 12

    @pytest.mark.parametrize("variant", TREE_VARIANTS)
    def test_best_leaf_ties_after_rounding_go_to_the_smallest_edge(self, variant):
        # Beside a query weight of 1e16, whose ulp is 2, the terms 4.0, 3.5
        # and 3.2 all round to 1e16 + 4, and 1.0 to 1e16.  The leaf with the
        # largest term, (0, 2), leads the order, but the smallest edge of
        # the tying run, (0, 1), wins, as under ``min``.
        g = ProbabilisticGraph.build(
            5, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)],
            weights=[1e16, 3.2, 4.0, 3.5, 1.0],
        )
        tree = FTree(0)
        base, terms = tree.leaf_terms(g)
        assert tree.best_leaf(g) == ((0, 1), tree.leaf_estimate(base, terms[0, 1]))
        cfg = scfg(variant, 1)
        assert greedy_select(g, 0, cfg).selected == ((0, 1),)
        assert greedy_select(g, 0, cfg) == reference_greedy_select(g, 0, cfg)


def pruning_demo_graph():
    """After (0,1), (1,2), (1,3) are taken, the fourth iteration scores the
    exact spokes (1,4) and (1,5) and the weak cycle chord (2,3), whose
    interval sits entirely below the best spoke's lower bound.  The chord's
    triangle has 2^3 worlds, so its table is exact from 8 samples on."""
    return ProbabilisticGraph.build(
        6,
        [
            (0, 1, 0.9),
            (1, 2, 0.9),
            (1, 3, 0.9),
            (1, 4, 0.9),
            (1, 5, 0.9),
            (2, 3, 0.2),
        ],
        weights=[0.0, 5.0, 1.0, 1.0, 0.5, 0.4],
    )


def sampled_pruning_demo_graph():
    """After (0,1) and the path 1-2-...-10 are taken, the eleventh iteration
    scores the exact spoke (0,11) and the weak chord (1,10), whose sampled
    interval sits entirely below the spoke's lower bound.  The
    chord closes a ring of 10 edges, whose 2^10 worlds exceed 1000 samples,
    so its table is drawn."""
    return ProbabilisticGraph.build(
        12,
        [(0, 1, 0.9), *((i, i + 1, 0.99) for i in range(1, 10)), (1, 10, 0.2), (0, 11, 0.9)],
        weights=[0.0, 5.0, *[1.0] * 9, 0.5],
    )


class TestCiVariant:
    def test_pruning_triggers_and_result_stays_sound(self, monkeypatch):
        g = sampled_pruning_demo_graph()
        worlds = []
        original = FTree.probe_edge

        def recording(tree, graph, edge):
            est, cost = original(tree, graph, edge)
            if cost:
                worlds.append(est.samples_used)
            return est, cost

        monkeypatch.setattr(FTree, "probe_edge", recording)
        sol_ci = greedy_select(g, 0, scfg("ft_m_ci", 11, seed=7))
        assert sum(r.candidates_pruned for r in sol_ci.trace) >= 1
        assert worlds and max(worlds) <= 1000  # every cycle probe's table drawn
        sol_ft = greedy_select(g, 0, scfg("ft", 11, seed=7))
        assert sol_ci.selected == sol_ft.selected

    @pytest.mark.parametrize("samples", [20, 29, 30, 31, 150, 1000])
    def test_pruning_changes_no_selection(self, samples):
        # A probe's estimate does not depend on the prune, and a pruned
        # candidate's ub is below some candidate's lb, so it could not be
        # the argmax; ``_ds`` reads the same estimate, pruned or not.  So on
        # random graphs ``ft_m_ci``'s trace equals ``ft_m``'s, and
        # ``ft_m_ci_ds``'s equals ``ft_m_ds``'s, in every field but
        # ``candidates_pruned``, bit for bit.  Some probes are pruned (none
        # below ``CI_MIN_SAMPLES`` worlds, where ``ci_prune`` judges none).
        def unpruned(sol):
            return sol.selected, [dataclasses.replace(r, candidates_pruned=0) for r in sol.trace]

        rng = random.Random(4100 + samples)
        pruned = 0
        for trial in range(10):
            n = rng.randint(12, 30)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n))
            for plain, checked in (("ft_m", "ft_m_ci"), ("ft_m_ds", "ft_m_ci_ds")):
                cfg = scfg(plain, 20, seed=trial, samples=samples)
                sol = greedy_select(g, 0, cfg)
                sol_ci = greedy_select(g, 0, dataclasses.replace(cfg, variant=checked))
                assert unpruned(sol_ci) == unpruned(sol)
                pruned += sum(r.candidates_pruned for r in sol_ci.trace)
        assert pruned > 0

    def test_each_sampled_state_is_evaluated_once(self, monkeypatch):
        # Interval-checked probes score their full tables from the live
        # tree's masses and evaluate no tree, pruned or not; the live tree
        # is evaluated once per state its commits leave, and a call answered
        # from its kept evaluation evaluates nothing.
        evaluated = []
        original = FTree._evaluate

        def recording(tree, graph):
            counts = tuple(
                sorted((cid, c.reach.sample_count) for cid, c in tree.components.items()
                       if isinstance(c, BiComponent))
            )
            evaluated.append((tree, counts))
            return original(tree, graph)

        built = []
        build = IncrementalComponentSampler.build

        def counting_build(sampler):
            built.append(sampler.exact)
            return build(sampler)

        judged = 0
        probe_with_ci = selection._probe_with_ci

        def judging(*args):
            nonlocal judged
            before = len(built)
            out = probe_with_ci(*args)
            judged += len(built) > before
            return out

        monkeypatch.setattr(FTree, "_evaluate", recording)
        monkeypatch.setattr(IncrementalComponentSampler, "build", counting_build)
        monkeypatch.setattr(selection, "_probe_with_ci", judging)
        # Two 9-edge rings: 2^9 worlds exceed 400 samples, so every table
        # is drawn, and judged in the iteration that builds it.
        g = ring_chain_graph(2, ring=9)
        for seed in range(4):
            greedy_select(g, 0, scfg("ft_m_ci", 20, seed=seed, samples=400))
        assert built and not any(built) and judged > 0  # drawn tables were judged
        assert {n for _, counts in evaluated for _, n in counts} == {400}
        assert len(evaluated) == len({(id(tree), counts) for tree, counts in evaluated})

    @pytest.mark.pinned
    def test_single_offer_prunes_an_exact_candidate(self, monkeypatch):
        # The chord's exact table shows it dominated beside the best leaf
        # in the fourth iteration, which builds the table, and again in the
        # fifth, which reads it from its memo ring: each iteration judges
        # its own estimates.  In the sixth the chord is the only candidate
        # left, and it is taken.
        g = pruning_demo_graph()
        pruned = []
        original = selection._probe_with_ci

        def recording(tree, graph, cycles, leaves):
            probes, cut = original(tree, graph, cycles, leaves)
            assert all(est.samples_used == EXACT_SAMPLES for est, _ in probes.values())
            pruned.append(sorted(cut))
            return probes, cut

        monkeypatch.setattr(selection, "_probe_with_ci", recording)
        sol_ci = greedy_select(g, 0, scfg("ft_m_ci", 6, seed=7))
        assert pruned == [[], [], [], [(2, 3)], [(2, 3)], []]
        assert [r.candidates_pruned for r in sol_ci.trace] == [0, 0, 0, 1, 1, 0]
        assert sol_ci.selected == greedy_select(g, 0, scfg("ft", 6, seed=7)).selected

    @pytest.mark.parametrize("samples", [29, 30, 250, 1000])
    def test_prunes_are_ci_prune_of_a_fresh_replay(self, samples):
        # Prune counts come from the iteration's estimates alone, whatever
        # the probe order or the memo state.  On random graphs, for each
        # ``ft_m_ci`` iteration the selected prefix is replayed into a fresh
        # tree with no memo, which probes every cycle candidate in reverse
        # canonical order; beside the best leaf's estimate, ``ci_prune``
        # drops as many cycle candidates as the iteration pruned.  Some
        # iterations prune, at 29 samples only by exact tables, as a drawn
        # table has fewer than ``CI_MIN_SAMPLES`` worlds.
        rng = random.Random(4242)
        pruned = 0
        for trial in range(8):
            n = rng.randint(10, 24)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n))
            cfg = scfg("ft_m_ci", 16, seed=trial, samples=samples)
            sol = greedy_select(g, 0, cfg)
            for i, rec in enumerate(sol.trace):
                tree = FTree(0)
                for e in sol.selected[:i]:
                    tree.insert_edge(g, e, cfg.sampler)
                cycles = tree.cycle_candidates(g)[::-1]
                ranked = [(e, tree.probe_edge(g, e)[0]) for e in cycles]
                leaf = tree.best_leaf(g)
                if leaf is not None:
                    ranked.append(leaf)
                assert len(set(cycles) - ci_prune(ranked)) == rec.candidates_pruned
                pruned += rec.candidates_pruned
        assert pruned > 0

    @pytest.mark.parametrize("samples", [29, 30, 250, 1000])
    def test_suspended_runs_prune_ci_prune_of_a_fresh_replay(self, monkeypatch, samples):
        # As above, under ``ft_m_ci_ds``, whose suspended candidates are
        # neither probed nor judged.  The cycle candidates each iteration
        # hands ``_probe_with_ci`` are recorded; a fresh tree with no memo,
        # fed the selected prefix, probes them in reverse order, and beside
        # the best leaf's estimate ``ci_prune`` drops as many as the
        # iteration pruned.  Some iterations prune, and some suspend.
        handed = []
        original = selection._probe_with_ci

        def recording(tree, graph, cycles, leaves):
            handed.append(list(cycles))
            return original(tree, graph, cycles, leaves)

        monkeypatch.setattr(selection, "_probe_with_ci", recording)
        rng = random.Random(2424)
        pruned = delayed = 0
        for trial in range(8):
            n = rng.randint(10, 24)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n))
            cfg = scfg("ft_m_ci_ds", 16, seed=trial, samples=samples)
            handed.clear()
            sol = greedy_select(g, 0, cfg)
            assert len(handed) == len(sol.trace)
            for i, (rec, cycles) in enumerate(zip(sol.trace, handed)):
                tree = FTree(0)
                for e in sol.selected[:i]:
                    tree.insert_edge(g, e, cfg.sampler)
                assert set(cycles) <= set(tree.cycle_candidates(g))
                ranked = [(e, tree.probe_edge(g, e)[0]) for e in cycles[::-1]]
                leaf = tree.best_leaf(g)
                if leaf is not None:
                    ranked.append(leaf)
                assert len(set(cycles) - ci_prune(ranked)) == rec.candidates_pruned
                pruned += rec.candidates_pruned
                delayed += rec.candidates_delayed
        assert pruned > 0 and delayed > 0

    def test_without_a_leaf_the_cycles_are_judged_alone(self, monkeypatch):
        # Once the spokes (0,1), (0,2) and (0,3) are taken, every vertex is
        # attached: the fourth iteration has no leaf, and ``ci_prune``
        # judges the three chords beside each other alone.  Their tables
        # are exact, so each interval is its mean, and the two weaker
        # chords are pruned.  The strongest, (1,2), is taken.
        g = ProbabilisticGraph.build(
            4,
            [(0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.9), (1, 2, 0.9), (1, 3, 0.5), (2, 3, 0.2)],
            weights=[0.0, 10.0, 10.0, 10.0],
        )
        calls = []
        original = selection._probe_with_ci

        def recording(tree, graph, cycles, leaves):
            probes, pruned = original(tree, graph, cycles, leaves)
            assert all(est.samples_used == EXACT_SAMPLES for est, _ in probes.values())
            calls.append((sorted(cycles), [e for e, _ in leaves], sorted(pruned)))
            return probes, pruned

        monkeypatch.setattr(selection, "_probe_with_ci", recording)
        sol = greedy_select(g, 0, scfg("ft_m_ci", 4, seed=7))
        assert sol.selected == ((0, 1), (0, 2), (0, 3), (1, 2))
        assert calls[3] == ([(1, 2), (1, 3), (2, 3)], [], [(1, 3), (2, 3)])
        assert sol.trace[3].candidates_pruned == 2

    @pytest.mark.parametrize("variant", ["ft_m_ci", "ft_m_ci_ds"])
    def test_prunes_do_not_depend_on_the_hash_seed(self, variant):
        # ``ci_prune`` returns a set and the pruned set is one: no count,
        # selection or suspension may follow their iteration order.  A run
        # that prunes drawn tables of 1000 worlds gives the same trace
        # digest under two hash seeds as in this process.
        code = (
            "from test_selection import scfg, trace_digest\n"
            "from probflow import netgen, run_strategy\n"
            f"cfg = scfg({variant!r}, 15, seed=7, samples=1000)\n"
            "print(trace_digest(run_strategy(netgen.gen_partitioned(60, 6, 2), 0, cfg)))\n"
        )
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
        digests = {
            subprocess.run(
                [sys.executable, "-c", code], env=dict(env, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for seed in ("0", "12345")
        }
        sol = run_strategy(netgen.gen_partitioned(60, 6, 2), 0, scfg(variant, 15, seed=7, samples=1000))
        assert digests == {trace_digest(sol)} and sum(r.candidates_pruned for r in sol.trace) > 0

    @pytest.mark.parametrize("variant", ["ft_m_ci", "ft_m_ci_ds"])
    def test_a_dominated_leaf_is_never_pruned(self, monkeypatch, variant):
        # Once (0,1) and (0,2) are taken, the chord (1,2) closes an exact
        # triangle of flow 19.62, and the best leaf, (0,3), reaches 18.1:
        # ``ci_prune`` drops the leaf, which is not pruned, as a leaf
        # samples nothing.  The chord is taken.
        g = ProbabilisticGraph.build(
            4, [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9), (0, 3, 0.1)],
            weights=[0.0, 10.0, 10.0, 1.0],
        )
        dropped = []
        original = selection.ci_prune

        def recording(candidates):
            kept = original(candidates)
            dropped.append(sorted(e for e, _ in candidates if e not in kept))
            return kept

        monkeypatch.setattr(selection, "ci_prune", recording)
        sol = greedy_select(g, 0, scfg(variant, 3, seed=7))
        assert sol.selected == ((0, 1), (0, 2), (1, 2))
        assert dropped[2] == [(0, 3)]
        assert [r.candidates_pruned for r in sol.trace] == [0, 0, 0]

    def test_ci_prune_interval_dominance(self):
        a = ((0, 1), FlowEstimate(0.85, 0.8, 0.9, 100))
        b = ((0, 2), FlowEstimate(0.15, 0.1, 0.2, 100))
        assert ci_prune([a, b]) == {(0, 1)}

    def test_ci_prune_overlap_keeps_both(self):
        a = ((0, 1), FlowEstimate(0.5, 0.4, 0.6, 100))
        b = ((0, 2), FlowEstimate(0.45, 0.35, 0.55, 100))
        assert ci_prune([a, b]) == {(0, 1), (0, 2)}

    def test_ci_prune_minimum_sample_guard(self):
        a = ((0, 1), FlowEstimate(0.85, 0.8, 0.9, 100))
        b = ((0, 2), FlowEstimate(0.15, 0.1, 0.2, 10))
        assert ci_prune([a, b]) == {(0, 1), (0, 2)}

    def test_never_prunes_oracle_argmax(self):
        # Exact zero-width intervals: the argmax upper bound can never fall
        # below another candidate's lower bound.
        rng = random.Random(12)
        for _ in range(20):
            g = random_connected_graph(rng, 6, 3)
            cands = []
            for e in g.edges[:5]:
                flow = expected_flow_of_edges(g, 0, [e])
                cands.append((e, FlowEstimate(flow, flow, flow, EXACT_SAMPLES)))
            best = max(cands, key=lambda c: c[1].mean)[0]
            assert best in ci_prune(cands)


class TestDsDelay:
    def test_worked_value(self):
        assert ds_delay(0.01, 10, 2.0) == 9

    def test_zero_cost_never_delays(self):
        assert ds_delay(0.5, 0, 2.0) == 0

    def test_log_of_one(self):
        assert ds_delay(1.0, 1, 2.0) == 0
        assert ds_delay(1.0, 1, 1.5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ds_delay(0.0, 1, 2.0)
        with pytest.raises(ValueError):
            ds_delay(0.5, 1, 1.0)
        with pytest.raises(ValueError):
            ds_delay(0.5, -1, 2.0)

    @pytest.mark.parametrize("args, message", [
        (("1", 2, 2.0), "pot must be a real number, not '1'"),
        ((0.5, 2, "2"), "c must be a real number, not '2'"),
        ((True, 2, 2.0), "pot must be a real number, not True"),
        ((0.5, 2, False), "c must be a real number, not False"),
        ((math.inf, 10, 2.0), "pot must be finite, got inf"),
        ((0.5, 10, math.inf), "c must be finite, got inf"),
        ((0.5, 10, -math.inf), "c must be finite, got -inf"),
        ((0.5, "2", 2.0), "cost must be an integer, not '2'"),
        ((0.5, 2.0, 2.0), "cost must be an integer, not 2.0"),
        ((0.5, None, 2.0), "cost must be an integer, not None"),
    ])
    def test_non_real_parameters_rejected_by_name(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ds_delay(*args)

    def test_integer_parameters_give_the_float_delay(self):
        assert ds_delay(1, 8, 2) == ds_delay(1.0, 8, 2.0) == 3

    def test_nan_parameters_rejected(self):
        with pytest.raises(ValueError, match="pot"):
            ds_delay(math.nan, 1, 2.0)
        with pytest.raises(ValueError, match="c must"):
            ds_delay(0.5, 1, math.nan)
        with pytest.raises(ValueError, match="ds_c"):
            StrategyConfig(variant="ft_m_ds", budget=15, ds_c=math.nan)


class TestDsVariant:
    def test_delays_trigger_and_budget_still_fills(self):
        g = pruning_demo_graph()
        sol = greedy_select(g, 0, scfg("ft_m_ds", 6, seed=7))
        assert sum(r.candidates_delayed for r in sol.trace) >= 1
        assert len(sol.selected) == 6  # every edge eventually re-probed and taken

    def test_all_variants_select_full_budget(self):
        rng = random.Random(21)
        g = random_connected_graph(rng, 10, 8)
        for variant in ("ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"):
            sol = greedy_select(g, 0, scfg(variant, 6, seed=2))
            assert len(sol.selected) == 6


class TestNaiveSelect:
    def test_deterministic_graph_matches_ft(self):
        g = ProbabilisticGraph.build(
            5,
            [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0)],
            weights=[0.0, 3.0, 2.0, 1.0, 5.0],
        )
        a = naive_select(g, 0, scfg("naive", 3))
        b = greedy_select(g, 0, scfg("ft", 3))
        assert a.selected == b.selected

    def test_star_with_many_samples(self):
        g = star_graph()
        sol = naive_select(g, 0, scfg("naive", 2, seed=5, samples=10000))
        assert sol.selected == ((0, 1), (0, 2))
        assert sol.trace[-1].flow.mean == pytest.approx(1.4, abs=0.05)

    def test_probe_cost_accounting(self):
        g = star_graph()
        sol = naive_select(g, 0, scfg("naive", 3))
        assert [r.edges_sampled for r in sol.trace] == [1, 2, 3]

    @pytest.mark.pinned
    @pytest.mark.parametrize("master_seed", [1, 7, 404])
    def test_matches_the_subgraph_object_reference(self, master_seed):
        # Scoring every candidate from arrays built by insertion into the
        # iteration's sorted edges and vertices gives the Solution that
        # scoring an induced subgraph object per candidate gives, bit for
        # bit: random graphs with some p = 1 edges, any query vertex, and
        # budgets beyond the reachable edges.
        rng = random.Random(master_seed)
        for _ in range(8):
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            g = ProbabilisticGraph.build(
                n,
                [(u, v, 1.0 if rng.random() < 0.3 else p) for (u, v), p in zip(g.edges, g.probabilities)],
                weights=g.weights,
                labels=[f"v{rng.random()}" for _ in range(n)],
            )
            q = rng.randrange(n)
            budget, samples = rng.randint(1, g.num_edges + 2), rng.choice([40, 300])
            cfg = scfg("naive", budget, seed=master_seed, samples=samples)
            assert naive_select(g, q, cfg) == reference_naive_select(g, q, cfg)

    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "make",
        [
            lambda: netgen.gen_erdos(40, 4, 3),
            lambda: netgen.gen_partitioned(40, 8, 3),
            lambda: netgen.assign_distance_decay(netgen.gen_wsn(60, 0.25, 3), lam=0.001, scale=10000),
        ],
        ids=["erdos", "partitioned", "wsn-decay"],
    )
    def test_matches_the_reference_on_generated_graphs(self, make):
        # The probabilities the benchmark's generators draw, 17-digit exp()
        # values among them, give the reference's stream keys and Solution.
        g = make()
        cfg = scfg("naive", 6, seed=11)
        assert naive_select(g, 0, cfg) == reference_naive_select(g, 0, cfg)


# Floats whose shortest repr is unusual: the smallest subnormal, a sum that
# is not the literal it looks like, the one p that is certain, and the
# neighbours of 0.5.
ADVERSARIAL_PROBABILITIES = (5e-324, 0.1 + 0.2, 1.0, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0))


@pytest.mark.pinned
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stream_key_is_the_induced_subgraph_signature(data):
    # The key naive and mc_flow_of_edges build from probabilities formatted
    # once, with the local arrays, is the induced subgraph's own.
    n = data.draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    prob = st.one_of(st.sampled_from(ADVERSARIAL_PROBABILITIES), st.floats(5e-324, 1.0))
    g = ProbabilisticGraph.build(n, [(u, v, data.draw(prob)) for u, v in chosen])
    texts = {e: repr(p) for e, p in zip(g.edges, g.probabilities)}
    edges = sorted(data.draw(st.lists(st.sampled_from(g.edges), unique=True)) if chosen else [])
    q = data.draw(st.integers(0, n - 1))
    verts = sorted({q, *(v for e in edges for v in e)})
    ledges, probs, weights, lq, key = _local_subgraph(g, q, edges, verts, texts)
    sub = induced_subgraph(g, verts, edges)
    assert key == sub.signature()
    assert (ledges, probs, list(weights)) == (list(sub.edges), list(sub.probabilities), list(sub.weights))
    assert lq == verts.index(q)


@st.composite
def edge_set_cases(draw):
    """A graph of 1-8 vertices with some p = 1 edges, a query vertex, and
    a list of its edges in any order, each with either endpoint first."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    prob = st.one_of(st.just(1.0), st.floats(0.05, 0.99))
    triples = [(u, v, draw(prob)) for u, v in chosen]
    weights = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    g = ProbabilisticGraph.build(n, triples, weights=weights)
    edges = draw(st.permutations(g.edges))[: draw(st.integers(0, g.num_edges))]
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    return g, draw(st.integers(0, n - 1)), edges


class TestMcFlowOfEdges:
    @settings(max_examples=80, deadline=None)
    @given(
        case=edge_set_cases(),
        samples=st.integers(1, 150),
        seed=st.integers(0, 2**32),
        chunk=st.sampled_from([None, 1, 7]),
    )
    def test_equals_the_induced_subgraph_estimate(self, case, samples, seed, chunk):
        # The same FlowEstimate as mc_expected_flow of the induced subgraph
        # at q's local id, bit for bit, with the draw in one chunk or many.
        g, q, edges = case
        cfg = SamplerConfig(samples=samples, master_seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(sampling, "_CHUNK_BUDGET", chunk)
            assert mc_flow_of_edges(g, q, edges, cfg) == reference_mc_flow_of_edges(g, q, edges, cfg)

    def test_empty_edge_set_is_the_query_weight(self):
        g = star_graph()
        cfg = SamplerConfig(samples=20, master_seed=3)
        est = mc_flow_of_edges(g, 2, [], cfg)
        assert est == reference_mc_flow_of_edges(g, 2, [], cfg)
        assert (est.mean, est.lb, est.ub) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "q, edges",
        [
            (0, [(0, 1), (1, 2)]),  # no such edge
            (0, [(0, 1), (0, 1)]),  # repeated
            (0, [(0, 3), (2, 0), (0, 2)]),  # repeated, reversed
            (0, [(0, 1), (1, 7)]),  # unknown vertex
            (9, [(0, 1)]),  # unknown query vertex
            (0, [(2, 2)]),  # self-loop
        ],
    )
    def test_bad_edges_raise_the_subgraph_error(self, q, edges):
        g = star_graph()
        cfg = SamplerConfig(samples=20)
        with pytest.raises(GraphError) as want:
            reference_mc_flow_of_edges(g, q, edges, cfg)
        with pytest.raises(GraphError) as got:
            mc_flow_of_edges(g, q, edges, cfg)
        assert str(got.value) == str(want.value)


class TestDijkstraSelect:
    def test_path_graph_in_order(self):
        g = ProbabilisticGraph.build(
            4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)], weights=[0.0, 1.0, 1.0, 1.0]
        )
        sol = dijkstra_select(g, 0, 3)
        assert sol.selected == ((0, 1), (1, 2), (2, 3))
        assert [r.flow.mean for r in sol.trace] == [
            pytest.approx(0.5),
            pytest.approx(0.75),
            pytest.approx(0.875),
        ]

    def test_star_settles_by_probability(self):
        sol = dijkstra_select(star_graph(), 0, 2)
        assert sol.selected == ((0, 1), (0, 2))

    def test_triangle_tree_property(self):
        g = ProbabilisticGraph.build(
            3, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)], weights=[0.0, 1.0, 1.0]
        )
        sol = dijkstra_select(g, 0, 3)
        assert len(sol.selected) == 2
        assert sol.trace[-1].flow.mean == pytest.approx(1.0)
        # the unconstrained optimum uses the cycle and strictly beats the tree
        assert exact_expected_flow(g, 0) == pytest.approx(1.25)

    def test_trace_is_exact(self):
        sol = dijkstra_select(star_graph(), 0, 3)
        for rec in sol.trace:
            assert rec.flow.lb == rec.flow.ub == rec.flow.mean
            assert rec.edges_sampled == 0


class TestRunStrategy:
    def test_dispatch(self):
        g = star_graph()
        for variant in ("naive", "dijkstra", "ft", "ft_m"):
            sol = run_strategy(g, 0, scfg(variant, 2, seed=9, samples=2000))
            assert set(sol.selected) == {(0, 1), (0, 2)}

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(variant="bogus", budget=1)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(variant="ft", budget=0)

    @pytest.mark.parametrize("budget", [2.0, 2.5, "2"])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(ValueError, match=re.escape(f"budget must be an integer, not {budget!r}")):
            StrategyConfig("ft_m", budget)

    @pytest.mark.parametrize("ds_c, message", [
        ("3", "ds_c must be a real number, not '3'"),
        (None, "ds_c must be a real number, not None"),
        (True, "ds_c must be a real number, not True"),
        (math.inf, "ds_c must be finite, got inf"),
    ], ids=["text", "none", "bool", "inf"])
    def test_non_real_ds_c_rejected(self, ds_c, message):
        # An infinite ds_c would delay nothing, running ft_m_ds as ft_m.
        with pytest.raises(ValueError, match=re.escape(message)):
            StrategyConfig("ft", 3, ds_c=ds_c)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("sampler", [None, {"samples": 60}, 60], ids=["none", "dict", "int"])
    def test_a_sampler_that_is_not_a_sampler_config_is_rejected(self, variant, sampler):
        # Refused at construction, naming ``sampler``, for every variant:
        # not by a bare AttributeError mid-run, nor at a tree's first insert,
        # nor ignored, as dijkstra would.
        with pytest.raises(ValueError, match=re.escape(f"sampler must be a SamplerConfig, not {sampler!r}")):
            StrategyConfig(variant, 3, sampler=sampler)

    def test_integer_ds_c_gives_the_float_selection(self):
        g = netgen.gen_partitioned(40, 8, 1)
        sampler = SamplerConfig(samples=60, master_seed=2)
        runs = [greedy_select(g, 0, StrategyConfig("ft_m_ds", 10, sampler, ds_c=c)) for c in (3, 3.0)]
        assert runs[0] == runs[1] and sum(r.candidates_delayed for r in runs[0].trace) > 0

    def test_determinism(self):
        rng = random.Random(6)
        g = random_connected_graph(rng, 9, 6)
        for variant in ("naive", "ft_m_ci_ds"):
            a = run_strategy(g, 0, scfg(variant, 4, seed=3))
            b = run_strategy(g, 0, scfg(variant, 4, seed=3))
            assert a == b


def _pinned_graphs():
    return {
        "erdos": netgen.gen_erdos(40, 6, 3),
        "partitioned": netgen.gen_partitioned(40, 8, 3),
        "wsn": netgen.assign_distance_decay(netgen.gen_wsn(60, 0.25, 3), lam=0.001, scale=1000),
    }


# Each variant's selection, final estimate and total (pruned, delayed) counts
# on one small graph per family, k=12, 300 samples, master seed 7.
PINNED = {
    'erdos': {
        'naive': (
            (
                (0, 26), (0, 27), (26, 27), (3, 26), (27, 29), (15, 26),
                (26, 33), (15, 27), (12, 33), (12, 25), (15, 38), (2, 3),
            ),
            FlowEstimate(32.93333333333334, 28.149947307365213, 37.71671935930145, 300),
            (0, 0),
        ),
        'dijkstra': (
            (
                (0, 37), (8, 37), (5, 8), (1, 8), (20, 37), (8, 27),
                (0, 26), (14, 20), (5, 24), (14, 25), (28, 37), (15, 26),
            ),
            FlowEstimate(37.520962425093145, 37.520962425093145, 37.520962425093145, 2147483647),
            (0, 0),
        ),
        'ft': (
            (
                (0, 26), (0, 27), (26, 27), (27, 29), (3, 26), (15, 26),
                (26, 33), (15, 38), (21, 38), (22, 38), (3, 38), (22, 34),
            ),
            FlowEstimate(33.99003520444501, 33.99003520444501, 33.99003520444501, 2147483647),
            (0, 0),
        ),
        'ft_m': (
            (
                (0, 26), (0, 27), (26, 27), (27, 29), (3, 26), (15, 26),
                (26, 33), (15, 38), (21, 38), (22, 38), (3, 38), (22, 34),
            ),
            FlowEstimate(33.99003520444501, 33.99003520444501, 33.99003520444501, 2147483647),
            (0, 0),
        ),
        'ft_m_ci': (
            (
                (0, 26), (0, 27), (26, 27), (27, 29), (3, 26), (15, 26),
                (26, 33), (15, 38), (21, 38), (22, 38), (3, 38), (22, 34),
            ),
            FlowEstimate(33.99003520444501, 33.99003520444501, 33.99003520444501, 2147483647),
            (26, 0),
        ),
        'ft_m_ds': (
            (
                (0, 26), (0, 27), (26, 27), (27, 29), (3, 26), (15, 26),
                (26, 33), (15, 38), (21, 38), (22, 38), (22, 34), (3, 38),
            ),
            FlowEstimate(33.99003520444501, 33.99003520444501, 33.99003520444501, 2147483647),
            (0, 16),
        ),
        'ft_m_ci_ds': (
            (
                (0, 26), (0, 27), (26, 27), (27, 29), (3, 26), (15, 26),
                (26, 33), (15, 38), (21, 38), (22, 38), (22, 34), (3, 38),
            ),
            FlowEstimate(33.99003520444501, 33.99003520444501, 33.99003520444501, 2147483647),
            (13, 16),
        ),
    },
    'partitioned': {
        'naive': (
            (
                (0, 6), (6, 8), (6, 9), (2, 6), (0, 7), (7, 9),
                (2, 37), (0, 37), (3, 7), (3, 37), (6, 11), (8, 12),
            ),
            FlowEstimate(55.98333333333333, 52.45411673754711, 59.51254992911956, 300),
            (0, 0),
        ),
        'dijkstra': (
            (
                (0, 6), (6, 8), (6, 11), (0, 7), (8, 12), (2, 6),
                (6, 10), (2, 37), (6, 9), (12, 16), (13, 16), (11, 14),
            ),
            FlowEstimate(41.55526660304771, 41.55526660304771, 41.55526660304771, 2147483647),
            (0, 0),
        ),
        'ft': (
            (
                (0, 6), (6, 8), (6, 9), (2, 6), (0, 7), (7, 9),
                (6, 11), (3, 7), (2, 37), (3, 37), (0, 37), (8, 12),
            ),
            FlowEstimate(56.41346122511222, 53.59508588487696, 59.23183656534749, 300),
            (0, 0),
        ),
        'ft_m': (
            (
                (0, 6), (6, 8), (6, 9), (2, 6), (0, 7), (7, 9),
                (6, 11), (3, 7), (2, 37), (3, 37), (0, 37), (8, 12),
            ),
            FlowEstimate(56.41346122511222, 53.59508588487696, 59.23183656534749, 300),
            (0, 0),
        ),
        'ft_m_ci': (
            (
                (0, 6), (6, 8), (6, 9), (2, 6), (0, 7), (7, 9),
                (6, 11), (3, 7), (2, 37), (3, 37), (0, 37), (8, 12),
            ),
            FlowEstimate(56.41346122511222, 53.59508588487696, 59.23183656534749, 300),
            (16, 0),
        ),
        'ft_m_ds': (
            (
                (0, 6), (6, 8), (6, 9), (2, 6), (0, 7), (7, 9),
                (6, 11), (3, 7), (2, 37), (3, 37), (8, 12), (12, 18),
            ),
            FlowEstimate(56.871062949655965, 56.871062949655965, 56.871062949655965, 2147483647),
            (0, 15),
        ),
        'ft_m_ci_ds': (
            (
                (0, 6), (6, 8), (6, 9), (2, 6), (0, 7), (7, 9),
                (6, 11), (3, 7), (2, 37), (3, 37), (8, 12), (12, 18),
            ),
            FlowEstimate(56.871062949655965, 56.871062949655965, 56.871062949655965, 2147483647),
            (8, 15),
        ),
    },
    'wsn': {
        'naive': (
            (
                (0, 37), (0, 38), (0, 40), (40, 56), (54, 56), (48, 54),
                (4, 48), (0, 2), (2, 52), (14, 52), (4, 9), (5, 56),
            ),
            FlowEstimate(71.18333333333334, 65.70870175757854, 76.65796490908814, 300),
            (0, 0),
        ),
        'dijkstra': (
            (
                (0, 38), (0, 40), (0, 37), (0, 2), (0, 11), (11, 56),
                (37, 52), (11, 54), (2, 43), (2, 17), (5, 11), (11, 15),
            ),
            FlowEstimate(54.89436792739185, 54.89436792739185, 54.89436792739185, 2147483647),
            (0, 0),
        ),
        'ft': (
            (
                (0, 37), (0, 38), (0, 40), (40, 56), (54, 56), (48, 54),
                (37, 52), (14, 52), (4, 48), (5, 56), (5, 8), (37, 40),
            ),
            FlowEstimate(72.98796696322967, 72.98796696322967, 72.98796696322967, 2147483647),
            (0, 0),
        ),
        'ft_m': (
            (
                (0, 37), (0, 38), (0, 40), (40, 56), (54, 56), (48, 54),
                (37, 52), (14, 52), (4, 48), (5, 56), (5, 8), (37, 40),
            ),
            FlowEstimate(72.98796696322967, 72.98796696322967, 72.98796696322967, 2147483647),
            (0, 0),
        ),
        'ft_m_ci': (
            (
                (0, 37), (0, 38), (0, 40), (40, 56), (54, 56), (48, 54),
                (37, 52), (14, 52), (4, 48), (5, 56), (5, 8), (37, 40),
            ),
            FlowEstimate(72.98796696322967, 72.98796696322967, 72.98796696322967, 2147483647),
            (29, 0),
        ),
        'ft_m_ds': (
            (
                (0, 37), (0, 38), (0, 40), (40, 56), (54, 56), (48, 54),
                (37, 52), (14, 52), (4, 48), (5, 56), (5, 8), (37, 40),
            ),
            FlowEstimate(72.98796696322967, 72.98796696322967, 72.98796696322967, 2147483647),
            (0, 14),
        ),
        'ft_m_ci_ds': (
            (
                (0, 37), (0, 38), (0, 40), (40, 56), (54, 56), (48, 54),
                (37, 52), (14, 52), (4, 48), (5, 56), (5, 8), (37, 40),
            ),
            FlowEstimate(72.98796696322967, 72.98796696322967, 72.98796696322967, 2147483647),
            (15, 14),
        ),
    },
}


# sha256 of each variant's whole trace on the same runs: every
# IterationRecord field but elapsed_ms, floats by their hex form.
PINNED_TRACES = {
    'erdos': {
        'naive': '3ac31d00d8ec42e8a849fb1979b8e19e087af5d9dcfade8d4816a678ffca48bf',
        'dijkstra': '0bdfc4879fe3472ff65dee851ad7a1d5cede3abafd99550a5b84abfad9336f96',
        'ft': '6ea95126b33be676f9e69532de7266336ef6847da6b8e6a2323c5dd41279ac9b',
        'ft_m': '6ea95126b33be676f9e69532de7266336ef6847da6b8e6a2323c5dd41279ac9b',
        'ft_m_ci': '0d576f71647b6a80bba796ab1708127fe01d4261982a40daa7b454f8a911a803',
        'ft_m_ds': '390a11963f2975853ae7b1ec4154431f53e39187a6521d5159d64315d134728a',
        'ft_m_ci_ds': 'ff4ef2650a2f09c47d313951c3b8be413e12ce0b4b588c5c69f7a414102c98bd',
    },
    'partitioned': {
        'naive': 'e8e8e4da8b3ff2e814a2a7e446bc03c1df2fda7c2515e6c27480f80379c1dcc2',
        'dijkstra': '224467544f7ae02a3bc78364998a4832be98c097e2ac3d131c929a242cee0085',
        'ft': '0244e0a9307540f0c68760c8af0fe85e65b7c5cf05015077526ff4348edb1a17',
        'ft_m': '0244e0a9307540f0c68760c8af0fe85e65b7c5cf05015077526ff4348edb1a17',
        'ft_m_ci': '4ebbf837b8d7b7cd140ce14614ccbf5e3c6fd5593d394446f12977755533f62d',
        'ft_m_ds': '0145ec43b2807693440ef00d056a2d47267951634bf4e52586c6fc95164324ad',
        'ft_m_ci_ds': '951503545a487f4367216bd944f0990f16637c70cc562aafcebf331e088a0c80',
    },
    'wsn': {
        'naive': 'd9d804337db5405d54e6831134ab95bcc7bdc56294f6fe20b7581ff6710e26d2',
        'dijkstra': 'c203d92a8524799970fc585fdebeebb853e85baa4c2b42cff5f9217d69cbb4e8',
        'ft': 'd8b8c540f0f48d01fb500e18a4182f758e6988337495797359416975296e14b3',
        'ft_m': 'd8b8c540f0f48d01fb500e18a4182f758e6988337495797359416975296e14b3',
        'ft_m_ci': 'a70819d5e91b8adb84bd6d988e79bb9c563c32038fae4975b29ae2dea3e680e0',
        'ft_m_ds': '1863e16901fd875d833000a32fefcc908f78075c676e6d735ec14fce4410affb',
        'ft_m_ci_ds': '91524e6dfcca1fc85ff76e159ea66a0f1e43a7c0ceb4bbe2dc16f37cb181ec73',
    },
}


def _hexed(value):
    """A trace field with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, FlowEstimate):
        return tuple(_hexed(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def trace_digest(sol):
    """sha256 over every IterationRecord field but elapsed_ms, in order."""
    names = [f.name for f in dataclasses.fields(IterationRecord) if f.name != "elapsed_ms"]
    h = hashlib.sha256()
    for rec in sol.trace:
        h.update(repr(tuple(_hexed(getattr(rec, n)) for n in names)).encode())
    return h.hexdigest()


@pytest.mark.pinned
class TestSeededSolutions:
    """Seeded selections stay what they were when pinned, bit for bit."""

    @pytest.mark.parametrize("family", sorted(PINNED))
    def test_every_variant_matches_its_pin(self, family):
        g = _pinned_graphs()[family]
        for variant in VARIANTS:
            sol = run_strategy(g, 0, scfg(variant, 12, seed=7, samples=300))
            pruned = sum(r.candidates_pruned for r in sol.trace)
            delayed = sum(r.candidates_delayed for r in sol.trace)
            assert (sol.selected, sol.trace[-1].flow, (pruned, delayed)) == PINNED[family][
                variant
            ], variant

    @pytest.mark.parametrize("family", sorted(PINNED_TRACES))
    def test_every_trace_matches_its_digest(self, family):
        g = _pinned_graphs()[family]
        digests = {
            variant: trace_digest(run_strategy(g, 0, scfg(variant, 12, seed=7, samples=300)))
            for variant in VARIANTS
        }
        assert digests == PINNED_TRACES[family]

    def test_pruned_drawn_tables_match_their_digest(self, monkeypatch):
        # Here ``ft_m_ci`` prunes drawn tables of 1000 worlds, so the
        # full-table prune path is pinned end to end.
        probe_with_ci = selection._probe_with_ci
        found = []

        def recording(tree, graph, cycles, leaves):
            probes, pruned = probe_with_ci(tree, graph, cycles, leaves)
            found.extend(tree._rings[e].scored[0].sample_count for e in pruned)
            return probes, pruned

        monkeypatch.setattr(selection, "_probe_with_ci", recording)
        g = netgen.gen_partitioned(60, 6, 2)
        digests = {
            variant: trace_digest(run_strategy(g, 0, scfg(variant, 15, seed=7, samples=1000)))
            for variant in ("ft_m_ci", "ft_m_ci_ds")
        }
        assert digests == {
            "ft_m_ci": "1636558cabcf6852da1cfee6438775c4b888bae8d1481455011b581e58fed908",
            "ft_m_ci_ds": "1e420af6a98170e68b33911f9a454d11f6e1241e1360e9b5bf24ea80a0329c4e",
        }
        assert 1000 in found


def run_within_budget(g, variant, k):
    """Run ``variant`` from vertex 0; it must finish and select at most k
    distinct edges, each with an endpoint attached when it was chosen."""
    sol = run_strategy(g, 0, scfg(variant, k))
    assert len(sol.selected) == len(set(sol.selected)) <= k
    attached = {0}
    for u, v in sol.selected:
        assert u in attached or v in attached
        attached |= {u, v}
    return sol


class TestEdgeCases:
    """Degenerate inputs behave the same under every variant."""

    # Every public entry that takes a vertex of a graph, called with that
    # vertex on star_graph() (vertices 0-3).
    VERTEX_ENTRIES = {
        **{
            f"run_strategy-{name}": lambda g, v, name=name: run_strategy(g, v, scfg(name, 2, samples=50))
            for name in VARIANTS
        },
        "mc_expected_flow": lambda g, v: mc_expected_flow(g, v, SamplerConfig(samples=50)),
        "mc_flow_of_edges": lambda g, v: mc_flow_of_edges(g, v, [(0, 1)], SamplerConfig(samples=50)),
        "exact_expected_flow": lambda g, v: exact_expected_flow(g, v),
        "exact_reachability-source": lambda g, v: exact_reachability(g, v, 1),
        "exact_reachability-target": lambda g, v: exact_reachability(g, 1, v),
        "expected_flow_of_edges": lambda g, v: expected_flow_of_edges(g, v, [(0, 1)]),
        "exhaustive_maxflow": lambda g, v: exhaustive_maxflow(g, v, 1),
        "induced_subgraph": lambda g, v: induced_subgraph(g, [v, 1], []),
        "candidate_edges": lambda g, v: candidate_edges(g, {v}, set()),
    }

    @pytest.mark.parametrize("entry", sorted(VERTEX_ENTRIES))
    @pytest.mark.parametrize(
        "vertex, message",
        [(-1, "unknown vertex -1"), (4, "unknown vertex 4"), (0.0, "vertex must be an integer, not 0.0")],
        ids=["negative", "past-the-end", "float"],
    )
    def test_bad_vertex_rejected_where_it_enters(self, entry, vertex, message):
        # A negative id must not index from the end, and a float must not
        # reach a list index.
        with pytest.raises(ValueError, match=re.escape(message)):
            self.VERTEX_ENTRIES[entry](star_graph(), vertex)

    def test_non_integer_tree_root_rejected(self):
        with pytest.raises(ValueError, match=re.escape("q must be an integer, not 0.0")):
            FTree(0.0)

    TREE_ENTRIES = {
        "candidates": lambda t, g: t.candidates(g),
        "insert_edge": lambda t, g: t.insert_edge(g, (0, 1), SamplerConfig(samples=50)),
        "probe_edge": lambda t, g: t.probe_edge(g, (0, 1)),
        "expected_flow": lambda t, g: t.expected_flow(g),
    }

    @pytest.mark.parametrize("entry", sorted(TREE_ENTRIES))
    @pytest.mark.parametrize("q", [4], ids=["past-the-end"])
    def test_tree_root_checked_against_graph(self, entry, q):
        # FTree(q) has no graph to check q against until its first use; a
        # negative q it refuses when it is built
        # (``TestNewFTree::test_a_negative_query_vertex_is_refused``).
        with pytest.raises(GraphError, match=re.escape(f"unknown vertex {q}")):
            self.TREE_ENTRIES[entry](FTree(q), star_graph())

    @pytest.mark.parametrize("select", [dijkstra_select, exhaustive_maxflow], ids=["dijkstra", "exhaustive"])
    def test_non_integer_edge_budget_rejected(self, select):
        with pytest.raises(ValueError, match=re.escape("k must be an integer, not 2.5")):
            select(star_graph(), 0, 2.5)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_isolated_query_vertex(self, variant):
        g = ProbabilisticGraph.build(3, [(1, 2, 0.5)], weights=[2.5, 1.0, 1.0])
        sol = run_within_budget(g, variant, 3)
        assert sol.selected == () and sol.trace == ()
        assert sol.final_flow(g.weights[0]) == 2.5

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_zero_weights(self, variant):
        g = ProbabilisticGraph.build(
            4, [(0, 1, 0.5), (1, 2, 0.6), (0, 2, 0.7), (2, 3, 0.8)], weights=[0.0] * 4
        )
        sol = run_within_budget(g, variant, 4)
        assert len(sol.selected) == (3 if variant == "dijkstra" else 4)
        assert all(r.flow.mean == r.flow.lb == r.flow.ub == 0.0 for r in sol.trace)
        assert sol.trace[-1].flow.mean == expected_flow_of_edges(g, 0, sol.selected)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_certain_edges_with_a_cycle(self, variant):
        g = ProbabilisticGraph.build(
            4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)], weights=[1.0, 2.0, 3.0, 4.0]
        )
        sol = run_within_budget(g, variant, 4)
        assert set(sol.selected) == (
            {(0, 1), (0, 2), (2, 3)} if variant == "dijkstra" else set(g.edges)
        )
        final = sol.trace[-1].flow
        assert final.mean == final.lb == final.ub == 10.0
        assert final.mean == expected_flow_of_edges(g, 0, sol.selected)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_budget_above_reachable_edges(self, variant):
        g = ProbabilisticGraph.build(
            5, [(0, 1, 0.6), (1, 2, 0.7), (0, 2, 0.8), (3, 4, 0.9)], weights=[1.0] * 5
        )
        sol = run_within_budget(g, variant, 10)
        reachable = {(0, 1), (1, 2), (0, 2)}
        if variant == "dijkstra":
            assert len(sol.selected) == 2 and set(sol.selected) <= reachable
        else:
            assert set(sol.selected) == reachable
