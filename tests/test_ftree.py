"""Component-tree structure, insertion cases, and flow evaluation."""

from __future__ import annotations

import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probflow import (
    EXACT_SAMPLES,
    BiComponent,
    DirtyComponentError,
    FlowEstimate,
    FTreeError,
    InsertReport,
    MonoComponent,
    ProbabilisticGraph,
    ReachTable,
    SamplerConfig,
    StrategyConfig,
    candidate_edges,
    exact_expected_flow,
    expected_flow_of_edges,
    greedy_select,
    netgen,
    new_ftree,
    normal_quantile,
    selection,
)
from probflow.ftree import FTree, IncrementalComponentSampler, MemoStore
from probflow.sampling import CI_BATCH
from util import (
    BASE_ORDER,
    WALKTHROUGH_EDGES,
    drawn_table,
    insertable_order,
    long_cycle_graph,
    long_ring_graph,
    random_connected_graph,
    random_tree,
    reference_prune_round,
    reference_round_estimates,
    replay_tree,
    ring_chain_graph,
    round_sizes,
    running_example_graph,
)

CFG = SamplerConfig(samples=2000, master_seed=17)


def build_base_tree(graph, cfg=CFG, memo=False):
    tree = new_ftree(0, memo)
    for e in BASE_ORDER:
        tree.insert_edge(graph, e, cfg)
    return tree


def long_ring_tree(cfg=CFG, memo=False):
    """An 11-edge cycle 0-1-...-10-0 through the query vertex with a tail
    5-11-12, all inserted, in a memo tree if ``memo``.  2^11 worlds exceed
    ``CFG``'s 2000 samples, so the cycle's table is drawn; the edge (8, 12)
    closes a 14-edge ring around it (case IV), also drawn."""
    cycle = [(i, (i + 1) % 11, 0.5 + 0.04 * i) for i in range(11)]
    g = ProbabilisticGraph.build(
        13, cycle + [(5, 11, 0.8), (11, 12, 0.7), (8, 12, 0.6)],
        weights=[float(v % 5) for v in range(13)],
    )
    tree = new_ftree(0, memo)
    for e in insertable_order(g):
        if e != (8, 12):
            tree.insert_edge(g, e, cfg)
    return g, tree


def count_builds(monkeypatch):
    """A list that gains "draw" or "exact" at every reach-table build."""
    built = []
    draw, exact_table = IncrementalComponentSampler.draw, IncrementalComponentSampler.exact_table
    monkeypatch.setattr(
        IncrementalComponentSampler, "draw", lambda s, batch: built.append("draw") or draw(s, batch)
    )
    monkeypatch.setattr(
        IncrementalComponentSampler, "exact_table", lambda s: built.append("exact") or exact_table(s)
    )
    return built


def components_by_kind(tree):
    monos = {frozenset(c.members): c for c in tree.components.values() if isinstance(c, MonoComponent)}
    bis = {frozenset(c.members): c for c in tree.components.values() if isinstance(c, BiComponent)}
    return monos, bis


class TestNewFTree:
    def test_initial_state(self):
        tree = new_ftree(0)
        assert tree.selected_edges == set()
        root = tree.components[tree.root_id]
        assert isinstance(root, MonoComponent)
        assert root.members == set()
        assert root.articulation == 0

    def test_two_calls_structurally_equal(self):
        assert new_ftree(3).dump() == new_ftree(3).dump()

    def test_initial_flow_is_query_weight(self):
        g = ProbabilisticGraph.build(1, [], weights=[5.0])
        est = new_ftree(0).expected_flow(g)
        assert est.mean == est.lb == est.ub == 5.0


class TestInsertionCases:
    def test_first_insertion_joins_root(self):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.5)])
        tree = new_ftree(0)
        report = tree.insert_edge(g, (0, 1), CFG)
        assert report.case_taken == "IIa"
        assert tree.components[tree.root_id].members == {1}
        tree.verify(g)

    def test_path_closing_edge_splits_root(self):
        # Path Q-a-b in one mono component; closing (Q,b) creates the cycle
        # component and empties the old root.
        g = ProbabilisticGraph.build(
            3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)], weights=[0.0, 1.0, 1.0]
        )
        tree = new_ftree(0)
        tree.insert_edge(g, (0, 1), CFG)
        tree.insert_edge(g, (1, 2), CFG)
        cfg = SamplerConfig(samples=100000, master_seed=3)
        report = tree.insert_edge(g, (0, 2), cfg)
        assert report.case_taken == "IIIb"
        root = tree.components[tree.root_id]
        assert isinstance(root, BiComponent)
        assert root.members == {1, 2}
        assert root.articulation == 0
        assert len(tree.components) == 1
        tree.verify(g)
        est = tree.expected_flow(g)
        assert est.mean == pytest.approx(1.25, abs=0.02)  # 8-world enumeration

    def test_case_i_rejected(self):
        g = ProbabilisticGraph.build(4, [(0, 1, 0.5), (2, 3, 0.5)])
        tree = new_ftree(0)
        with pytest.raises(FTreeError, match="neither endpoint"):
            tree.insert_edge(g, (2, 3), CFG)

    def test_duplicate_insert_rejected(self):
        g = ProbabilisticGraph.build(2, [(0, 1, 0.5)])
        tree = new_ftree(0)
        tree.insert_edge(g, (0, 1), CFG)
        with pytest.raises(FTreeError, match="already selected"):
            tree.insert_edge(g, (1, 0), CFG)

    def test_unknown_edge_rejected(self):
        g = ProbabilisticGraph.build(3, [(0, 1, 0.5)])
        with pytest.raises(FTreeError, match="not an edge"):
            new_ftree(0).insert_edge(g, (0, 2), CFG)


class TestRunningExample:
    def test_base_component_structure(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        tree.verify(g)
        monos, bis = components_by_kind(tree)
        assert set(monos) == {
            frozenset({1, 2, 3, 6}),
            frozenset({13, 14, 15, 16}),
            frozenset({12}),
        }
        assert set(bis) == {
            frozenset({4, 5}),
            frozenset({7, 8, 9}),
            frozenset({10, 11}),
        }
        assert monos[frozenset({1, 2, 3, 6})].articulation == 0
        assert bis[frozenset({4, 5})].articulation == 3
        assert bis[frozenset({7, 8, 9})].articulation == 6
        assert bis[frozenset({10, 11})].articulation == 9
        assert monos[frozenset({13, 14, 15, 16})].articulation == 9
        assert monos[frozenset({12})].articulation == 11

    def test_new_leaf_under_cycle_component(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        report = tree.insert_edge(g, (7, 17), CFG)
        assert report.case_taken == "IIb"
        assert report.edges_sampled_count == 0
        monos, _ = components_by_kind(tree)
        assert monos[frozenset({17})].articulation == 7
        tree.verify(g)

    def test_internal_cycle_edge_only_resamples(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        before = tree.dump(g)
        deferred = tree.copy()
        deferred.insert_edge(g, (6, 8), CFG, defer_sampling=True)
        assert len(deferred.dirty_components()) == 1
        report = tree.insert_edge(g, (6, 8), CFG)
        assert report.case_taken == "IIIa"
        assert report.edges_sampled_count == 5  # the four-cycle plus the chord
        assert tree.dump(g) == before  # no structural change
        tree.verify(g)

    def test_chain_split_with_orphan(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        report = tree.insert_edge(g, (14, 15), CFG)
        assert report.case_taken == "IIIb"
        monos, bis = components_by_kind(tree)
        cycle = bis[frozenset({14, 15})]
        assert cycle.articulation == 13
        assert cycle.internal_edges == {(13, 14), (13, 15), (14, 15)}
        assert monos[frozenset({16})].articulation == 15
        assert monos[frozenset({13})].articulation == 9
        tree.verify(g)

    def test_cross_component_cycle_builds_ring(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        report = tree.insert_edge(g, (11, 15), CFG)
        assert report.case_taken.startswith("IV")
        monos, bis = components_by_kind(tree)
        ring = bis[frozenset({10, 11, 13, 15})]
        assert ring.articulation == 9
        assert len(ring.internal_edges) == 6
        # children: the absorbed triangle's leaf plus both split-off groups
        assert monos[frozenset({12})].articulation == 11
        assert monos[frozenset({14})].articulation == 13
        assert monos[frozenset({16})].articulation == 15
        tree.verify(g)

    def test_lowest_common_ancestor(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        monos, bis = components_by_kind(tree)

        def cid_of(comp):
            return next(cid for cid, c in tree.components.items() if c is comp)

        d = cid_of(bis[frozenset({10, 11})])
        e = cid_of(monos[frozenset({13, 14, 15, 16})])
        c = cid_of(bis[frozenset({7, 8, 9})])
        assert tree.lowest_common_ancestor(d, e) == c
        assert tree.lowest_common_ancestor(d, d) == d
        assert tree.lowest_common_ancestor(tree.root_id, d) == tree.root_id

    def test_component_a_flow_anchor(self):
        # The stated flow of the root component's four vertices is 5.75.
        g = running_example_graph()
        tree = new_ftree(0)
        for e in [(0, 2), (1, 2), (0, 3), (0, 6)]:
            tree.insert_edge(g, e, CFG)
        est = tree.expected_flow(g)
        assert est.mean == est.lb == est.ub == pytest.approx(5.75, abs=1e-12)

    def test_full_tree_tracks_oracle(self):
        g = running_example_graph()
        cfg = SamplerConfig(samples=100000, master_seed=23)
        tree = build_base_tree(g, cfg)
        est = tree.expected_flow(g)
        oracle = expected_flow_of_edges(g, 0, BASE_ORDER)
        z = normal_quantile(1 - cfg.alpha / 2)
        stderr = (est.ub - est.lb) / (2 * z)
        assert abs(est.mean - oracle) <= 4 * max(stderr, 1e-9)


class TestSplitTree:
    def test_direct_split_matches_narrative(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        report = tree.insert_edge(g, (14, 15), CFG, defer_sampling=True)
        assert report.case_taken == "IIIb"
        _, bis = components_by_kind(tree)
        bi = bis[frozenset({14, 15})]
        assert bi.articulation == 13
        assert bi.internal_edges == {(13, 14), (13, 15), (14, 15)}
        assert bi.dirty
        tree.refresh(g, CFG)
        tree.verify(g)

    def test_split_requires_mono(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        _, bis = components_by_kind(tree)
        cid = next(c for c, comp in tree.components.items() if comp is bis[frozenset({4, 5})])
        with pytest.raises(FTreeError):
            tree._split_mono(cid, 4, 5)


def owner(tree, v):
    return tree.components[tree.vertex_index[v]]


def drop_member(tree, v):
    owner(tree, v).members.discard(v)
    del tree.vertex_index[v]


class TestVerifyRejects:
    """Every check of ``verify`` fires on a running-example tree broken
    just enough to fail it."""

    CORRUPTIONS = {
        "root component missing": lambda t: t.components.pop(t.root_id),
        "root articulation vertex is not the query vertex":
            lambda t: setattr(t.components[t.root_id], "articulation", 1),
        "query vertex must not be a member": lambda t: t.vertex_index.update({0: t.root_id}),
        "appear in more than one component": lambda t: owner(t, 7).members.add(4),
        "vertex index out of sync for 7": lambda t: t.vertex_index.update({7: t.vertex_index[4]}),
        "vertex index does not match": lambda t: t.vertex_index.update({17: t.root_id}),
        "articulation vertex may not be a member":
            lambda t: setattr(owner(t, 12), "articulation", 12),
        "articulation vertex is not attached": lambda t: setattr(owner(t, 12), "articulation", 17),
        # {10, 11} hangs off {12} and {12} off {10, 11}: neither is reachable.
        "articulation vertex is attached after a member":
            lambda t: setattr(owner(t, 10), "articulation", 12),
        # 15 and 16 each name the other as parent.
        "mono member 15's parent is not listed before it":
            lambda t: owner(t, 15).parent_edges.update({15: (16, 0.5)}),
        # 16's path would leave {13, 14, 15, 16} for 7.
        "mono member 16's parent is not listed before it":
            lambda t: owner(t, 16).parent_edges.update({16: (7, 0.5)}),
        # 14 moved behind 16, which was attached after it.
        "mono members are not listed in attach order":
            lambda t: owner(t, 14).parent_edges.update({14: owner(t, 14).parent_edges.pop(14)}),
        "bi component smaller than three vertices": lambda t: drop_member(t, 5),
        "cut vertex or is disconnected": lambda t: owner(t, 7).internal_edges.discard((6, 9)),
        "internal edge escapes the component": lambda t: owner(t, 4).internal_edges.add((4, 17)),
        "component edge (7, 9) not in graph": lambda t: owner(t, 7).internal_edges.add((7, 9)),
        "reach table does not cover the members":
            lambda t: setattr(owner(t, 4), "reach", replace(owner(t, 4).reach, rows={4: (0.5, 0.5, 0.5)})),
        "reach table articulation mismatch":
            lambda t: setattr(owner(t, 4), "reach", replace(owner(t, 4).reach, articulation=0)),
        "do not partition the selected edges": lambda t: t.selected_edges.discard((11, 12)),
    }

    @pytest.mark.parametrize("message", CORRUPTIONS)
    def test_corruption_rejected(self, message):
        g = running_example_graph()
        tree = build_base_tree(g)
        tree.verify(g)
        self.CORRUPTIONS[message](tree)
        with pytest.raises(FTreeError, match=re.escape(message)):
            tree.verify(g)


class TestExpectedFlow:
    def test_tree_only_matches_oracle_exactly(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_tree(rng, rng.randint(2, 12))
            tree = new_ftree(0)
            for e in insertable_order(g, rng):
                report = tree.insert_edge(g, e, CFG)
                assert report.edges_sampled_count == 0
            est = tree.expected_flow(g)
            assert est.samples_used >= 2**31 - 1
            assert est.mean == est.lb == est.ub
            assert est.mean == pytest.approx(exact_expected_flow(g, 0), abs=1e-9)

    def test_sampled_estimate_is_python_floats(self):
        # 7 worlds are fewer than any base component's 2^m (a triangle's 8),
        # so every table is drawn.
        cfg = replace(CFG, samples=7)
        g = running_example_graph()
        tree = build_base_tree(g, cfg)
        est = tree.expected_flow(g)
        assert est.samples_used == cfg.samples
        assert [type(x) for x in (est.mean, est.lb, est.ub)] == [float] * 3
        _, bis = components_by_kind(tree)
        assert {c.reach.sample_count for c in bis.values()} == {cfg.samples}
        assert {type(x) for c in bis.values() for row in c.reach.rows.values() for x in row} == {float}
        assert {len(row) for c in bis.values() for row in c.reach.rows.values()} == {3}

    def test_dirty_component_rejected(self):
        g = ProbabilisticGraph.build(
            3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)]
        )
        tree = new_ftree(0)
        tree.insert_edge(g, (0, 1), CFG)
        tree.insert_edge(g, (1, 2), CFG)
        tree.insert_edge(g, (0, 2), CFG, defer_sampling=True)
        with pytest.raises(DirtyComponentError):
            tree.expected_flow(g)
        tree.refresh(g, CFG)
        tree.expected_flow(g)

    def test_sampled_flow_converges_to_oracle(self):
        # Cycles of 14 or more uncertain edges: 2^14 worlds exceed 10000
        # samples, so every table is drawn.
        rng = random.Random(13)
        cfg = SamplerConfig(samples=10000, master_seed=41)
        z = normal_quantile(1 - cfg.alpha / 2)
        for _ in range(6):
            g = long_cycle_graph(rng, (14, 16), max_uncertain=18)
            tree = new_ftree(0)
            for e in insertable_order(g, rng):
                tree.insert_edge(g, e, cfg)
            tree.verify(g)
            est = tree.expected_flow(g)
            assert est.samples_used == cfg.samples
            oracle = exact_expected_flow(g, 0)
            stderr = (est.ub - est.lb) / (2 * z)
            assert abs(est.mean - oracle) <= 4 * max(stderr, 1e-9)

    def test_order_robustness_against_oracle(self):
        # A cycle of 15 or more uncertain edges: 2^15 worlds exceed 20000
        # samples, so every table is drawn, whatever the order.
        rng = random.Random(47)
        cfg = SamplerConfig(samples=20000, master_seed=3)
        z = normal_quantile(1 - cfg.alpha / 2)
        g = long_cycle_graph(rng, (15, 16), max_uncertain=18)
        oracle = exact_expected_flow(g, 0)
        for order_seed in range(4):
            order = insertable_order(g, random.Random(order_seed))
            tree = new_ftree(0)
            for e in order:
                tree.insert_edge(g, e, cfg)
            tree.verify(g)
            assert set(tree.selected_edges) == set(g.edges)
            est = tree.expected_flow(g)
            assert est.samples_used == cfg.samples
            stderr = (est.ub - est.lb) / (2 * z)
            assert abs(est.mean - oracle) <= 4 * max(stderr, 1e-9)


class TestProbe:
    def test_probe_then_insert_identical(self):
        # The probe scores the ring from masses; the insert evaluates the
        # grown tree.  They agree up to rounding, and the insert reports
        # what the probe reported.
        g = running_example_graph()
        tree = build_base_tree(g)
        est, report, pruned = tree.probe_edge(g, (14, 15), CFG)
        assert not pruned
        assert tree.insert_edge(g, (14, 15), CFG) == report
        assert_close(est, tree.expected_flow(g))

    def test_probe_does_not_mutate(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        before_dump = tree.dump(g)
        before_est = tree.expected_flow(g)
        tree.probe_edge(g, (11, 15), CFG)
        assert tree.dump(g) == before_dump
        assert tree.expected_flow(g) == before_est

    def test_probes_of_every_candidate_do_not_mutate(self):
        # Each probe, plain and floor-checked, leaves the tree's structure,
        # tables and evaluation exactly as they were.  A leaf probe raises:
        # ``leaf_terms`` scores leaves, and test_frontier_matches_full_evaluations
        # checks them against grown copies.  A cycle probe
        # agrees with an insert into a copy up to rounding and reports what
        # that insert reports, and an infinite floor prunes it at once, at
        # the first round's estimate.  Every bi component has at least 9
        # edges (``long_ring_graph``), so every table is drawn (2^9 > 300).
        rng = random.Random(2024)
        cfg = SamplerConfig(samples=300, master_seed=12)
        cases = set()
        for trial in range(30):
            g, order = long_ring_graph(rng, rng.randint(2, 8), rng.randint(2, 12))
            tree = new_ftree(0, memo=bool(trial % 2))
            for e in order[: rng.randint(1, len(order) - 1)]:
                tree.insert_edge(g, e, cfg)
            before = snapshot(tree, g)
            for e in sorted(set(g.edges) - tree.selected_edges):
                if not (tree.is_attached(e[0]) or tree.is_attached(e[1])):
                    continue
                if not (tree.is_attached(e[0]) and tree.is_attached(e[1])):
                    with pytest.raises(FTreeError, match="leaf_terms"):
                        tree.probe_edge(g, e, cfg)
                    cases.add(tree.copy().insert_edge(g, e, cfg).case_taken)
                    continue
                stopped, stopped_report, pruned = tree.probe_edge(g, e, cfg, math.inf)
                probe = tree.copy()
                report = probe.insert_edge(g, e, cfg)
                est, probe_report, _ = tree.probe_edge(g, e, cfg)
                assert report == probe_report == stopped_report
                assert_close(est, probe.expected_flow(g))
                assert est.samples_used == cfg.samples
                assert pruned and stopped.samples_used == CI_BATCH
                cases.add(report.case_taken)
            assert snapshot(tree, g) == before
        assert {"IIa", "IIb", "IIIa", "IIIb", "IVb"} <= cases

    def test_kept_probes_match_fresh_probes(self):
        self.check_kept_probes_match_fresh_probes(use_memo=True)

    def test_memo_less_kept_probes_match_fresh_probes(self):
        self.check_kept_probes_match_fresh_probes(use_memo=False)

    @staticmethod
    def check_kept_probes_match_fresh_probes(use_memo):
        # Before every commit each cycle candidate is probed plain and
        # floor-checked, on the tree (which keeps cycle probes and scores
        # them again over the current masses) and on a fresh copy of a twin
        # tree fed the same inserts and no probes.  Estimates, reports and
        # prunes agree bit for bit.  The floor is, in turn, the plain
        # probe's mean or ub, or infinite.  A memo tree's floor-checked probe
        # follows its plain one, so its kept table is never pruned and it
        # gives the plain estimate, which the copy's plain probe gives.
        # After every probe a memo tree's ring holds the table the copy's
        # fresh ring holds.  Each leaf's estimate from ``leaf_terms`` agrees
        # too.  Every commit, which on the tree applies its probe's ring (and
        # in a memo tree adopts its table) and drops it, reports and
        # evaluates as the twin's unprobed commit does.
        # Without a memo each candidate is probed twice more, so a drawn
        # ring's kept sampler re-draws from its kept stream state many
        # times, and a pruned ring's next probe judges its kept draw.
        rng = random.Random(77)
        cfg = SamplerConfig(samples=300, master_seed=9)
        checks = ("plain", "floor") if use_memo else ("plain", "floor", "plain", "floor")
        rescored = redrawn = pruned = picks = 0
        for trial in range(25):
            n = rng.randint(5, 11)
            g = random_connected_graph(rng, n, rng.randint(2, 2 * n))
            tree, twin = new_ftree(0, use_memo), new_ftree(0, use_memo)
            after_leaf = False
            for e in insertable_order(g, rng):
                for c in candidate_edges(g, tree.attached_vertices(), tree.selected_edges):
                    if not (tree.is_attached(c[0]) and tree.is_attached(c[1])):
                        (base, terms), (twin_base, twin_terms) = (
                            tree.leaf_terms(g), twin.copy().leaf_terms(g)
                        )
                        assert tree.leaf_estimate(base, terms[c]) == twin.leaf_estimate(
                            twin_base, twin_terms[c]
                        )
                        continue
                    picks += 1
                    for check in checks:
                        ring = tree._rings.get((c, cfg))
                        # Kept before the last commit, which was a leaf.
                        rescored += check == "plain" and after_leaf and ring is not None
                        sampler = ring and ring.sampler  # prepared at its first build
                        redrawn += (
                            not use_memo and sampler is not None and not sampler.exact
                            and ring.drawn is None
                        )
                        floor = None if check == "plain" else (plain.mean, plain.ub, math.inf)[picks % 3]
                        got = tree.probe_edge(g, c, cfg, floor)
                        plain = got[0] if check == "plain" else plain
                        copy = twin.copy()
                        assert got == copy.probe_edge(g, c, cfg, None if use_memo else floor)
                        pruned += got[2]
                        if use_memo:
                            assert tree._rings[c, cfg].scored[0] == copy._rings[c, cfg].scored[0]
                after_leaf = not (tree.is_attached(e[0]) and tree.is_attached(e[1]))
                assert tree.insert_edge(g, e, cfg) == twin.insert_edge(g, e, cfg)
                assert (e, cfg) not in tree._rings
                assert tree.expected_flow(g) == twin.expected_flow(g)
        assert rescored > 100
        assert use_memo or (redrawn > 100 and pruned > 100)

    @pytest.mark.parametrize("use_memo", [True, False], ids=["memo", "no-memo"])
    def test_cycle_reprobe_after_leaf_commit_copies(self, monkeypatch, use_memo):
        # No probe copies the tree: a re-probe of a cycle candidate after a
        # leaf commit scores the ring over the new masses, memoized or not,
        # and gives what a fresh probe of a copy gives, bit for bit.
        g = running_example_graph()
        tree = build_base_tree(g, memo=use_memo)
        first = tree.probe_edge(g, (14, 15), CFG)[0]
        assert tree.insert_edge(g, (7, 17), CFG).case_taken == "IIb"
        calls = []
        copy = type(tree).copy
        monkeypatch.setattr(type(tree), "copy", lambda self: calls.append(1) or copy(self))
        est = tree.probe_edge(g, (14, 15), CFG)[0]
        assert calls == []
        assert est != first
        assert est == tree.copy().probe_edge(g, (14, 15), CFG)[0]

    def test_kept_probe_serves_only_its_config(self):
        # A cycle probe kept under one sampler config is not replayed for a
        # probe under another, which draws that config's own tables.
        g = running_example_graph()
        tree = build_base_tree(g, memo=True)
        tree.probe_edge(g, (14, 15), CFG)
        other = replace(CFG, master_seed=CFG.master_seed + 1)
        est = tree.probe_edge(g, (14, 15), other)[0]
        assert est == tree.copy().probe_edge(g, (14, 15), other)[0]

    @pytest.mark.pinned
    def test_memo_less_reprobes_match_fresh_probes(self, monkeypatch):
        # Random graphs in random insertion orders, no memo.  Before every
        # commit each cycle candidate is probed, and the tree keeps its plan.
        # After every leaf commit each kept candidate is probed again (after
        # a cycle commit, see test_kept_rings_survive_untouched_commits), plain
        # and with an infinite floor, which prunes it at its first round:
        # both return what a fresh probe of a copy returns, bit for bit.
        # Every memo-less cycle probe, first, kept or fresh, builds its table
        # exactly once (one draw or one enumeration), but for the probe after
        # a pruned one, which judges the drawn table the prune left in the
        # ring and builds nothing; a kept ring keeps no full table.  Graphs
        # of up to 14 vertices give rings both enumerated (2^m <= 300) and
        # drawn.
        built = count_builds(monkeypatch)

        def probe(tree, c, floor=None):
            nonlocal resumed
            ring = tree._rings.get((c, cfg))
            kept = ring is not None and ring.drawn is not None
            resumed += kept
            before = len(built)
            result = tree.probe_edge(g, c, cfg, floor)
            assert len(built) == before + (not kept)
            return result

        rng = random.Random(2718)
        cfg = SamplerConfig(samples=300, master_seed=31)
        reprobed = resumed = 0
        for trial in range(25):
            n = rng.randint(6, 14)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n))
            tree = new_ftree(0)
            for e in insertable_order(g, rng):
                cycles = [c for c in tree.candidates(g) if tree.is_attached(c[0]) and tree.is_attached(c[1])]
                for c in cycles:
                    probe(tree, c)
                leaf = not (tree.is_attached(e[0]) and tree.is_attached(e[1]))
                tree.insert_edge(g, e, cfg)
                if not leaf:
                    continue
                for c in cycles:
                    if c == e:
                        continue
                    assert tree._rings[c, cfg].scored is None
                    for floor in (None, math.inf):
                        assert probe(tree, c, floor) == probe(tree.copy(), c, floor)
                    reprobed += 1
        assert reprobed > 200 and resumed > 50
        assert {"draw", "exact"} <= set(built)

    @pytest.mark.pinned
    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_kept_rings_survive_untouched_commits(self, use_memo):
        # Random geometric graphs, whose cycles are local, in random
        # insertion orders.  Before every commit each cycle candidate is
        # probed.  After every cycle commit each kept ring the commit did not
        # mark stale is what a fresh plan of its edge gives (members in
        # attach order, articulation, edges, report and the parts it takes),
        # and a memoized ring's kept table is the one a fresh probe builds and
        # its coefficients are the table's over the new tree.  Its re-probe,
        # plain and, without a memo, with an infinite floor, which prunes it
        # at its first round, equals a probe of a tree rebuilt by replaying
        # the inserts, bit for bit.  (Stale rings are
        # test_stale_rings_keep_unchanged_tables's.)
        rng = random.Random(6061)
        cfg = SamplerConfig(samples=300, master_seed=23)
        survived = stale = 0
        for trial in range(20):
            g = netgen.gen_wsn(rng.randint(10, 18), 0.4, rng.randrange(1000))
            tree, inserted = new_ftree(0, use_memo), []
            for e in insertable_order(g, rng):
                for c in tree.cycle_candidates(g):
                    tree.probe_edge(g, c, cfg)
                leaf = not (tree.is_attached(e[0]) and tree.is_attached(e[1]))
                tree.insert_edge(g, e, cfg)
                inserted.append(e)
                if leaf:
                    continue
                replay = replay_tree(g, inserted, cfg, use_memo)
                for (c, _), ring in tree._rings.items():
                    if ring.parts is None:
                        stale += 1
                        continue
                    parts, comp, case = tree._plan_cycle(*c, c)
                    assert (ring.comp.members, ring.comp.articulation, ring.comp.internal_edges) == (
                        comp.members, comp.articulation, comp.internal_edges
                    )
                    assert ring.report == InsertReport(case, len(comp.internal_edges))
                    assert ring.parts == parts
                    assert ring.members == sorted((tree._kept.rank[x], x) for x in comp.members)
                    for floor in (None,) if use_memo else (None, math.inf):
                        fresh = replay.probe_edge(g, c, cfg, floor)
                        assert tree.probe_edge(g, c, cfg, floor) == fresh
                    if use_memo:
                        table, coeffs = ring.scored
                        assert table == replay._rings[c, cfg].scored[0]
                        assert coeffs == tree._coefficients(ring.members, table.rows)
                    survived += 1
        assert survived > 200 and stale > 1000

    @pytest.mark.pinned
    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_stale_rings_keep_unchanged_tables(self, monkeypatch, use_memo):
        # Random graphs in random insertion orders.  Before every commit each
        # cycle candidate is probed, plain or, twice as often, against an
        # infinite floor, which prunes a drawn ring at its first round.
        # After every cycle commit each ring the commit marked stale is
        # probed again.  A ring whose new plan keeps its component
        # (articulation vertex and edges) stays the
        # same ring, with the new plan's parts, prepares no sampler and
        # builds only what a live ring's re-probe builds: nothing for a table
        # it keeps (memo trees, exact or drawn) or a pruned draw it judges
        # again, else one table from its kept sampler.  A ring whose
        # component changed is replaced and builds once.  Either way the
        # re-probe returns what a probe of a tree rebuilt by replaying the
        # inserts returns, bit for bit.  A kept table is never pruned, so it
        # is compared plain, and an infinite floor then leaves it unpruned.
        # Sparse graphs of up to 20 vertices, whose long mono paths a commit
        # often splits without folding a ring that crosses them, give rings
        # both enumerated (2^m <= 30) and drawn.
        built, prepared = count_builds(monkeypatch), []
        init = IncrementalComponentSampler.__init__
        monkeypatch.setattr(
            IncrementalComponentSampler, "__init__", lambda s, *a: prepared.append(1) or init(s, *a)
        )
        rng = random.Random(4711)
        cfg = SamplerConfig(samples=30, master_seed=19)
        seen: dict[tuple[bool, str], int] = {}
        for trial in range(100):
            n = rng.randint(10, 20)
            g = random_connected_graph(rng, n, rng.randint(2, n))
            tree, inserted = new_ftree(0, use_memo), []
            for e in insertable_order(g, rng):
                for c in tree.cycle_candidates(g):
                    tree.probe_edge(g, c, cfg, rng.choice([None, math.inf, math.inf]))
                cycle = tree.is_attached(e[0]) and tree.is_attached(e[1])
                tree.insert_edge(g, e, cfg)
                inserted.append(e)
                if not cycle:
                    continue
                replay = replay_tree(g, inserted, cfg, use_memo)
                for (c, _), ring in list(tree._rings.items()):
                    if ring.parts is not None:
                        continue
                    parts, comp, _ = tree._plan_cycle(*c, c)
                    same = (ring.comp.articulation, ring.comp.internal_edges) == (
                        comp.articulation, comp.internal_edges
                    )
                    held, resumed = ring.scored is not None, ring.drawn is not None
                    if resumed:
                        kind = "pruned"
                    else:
                        exact = ring.scored[0].sample_count == EXACT_SAMPLES if held else ring.sampler.exact
                        kind = "exact" if exact else "drawn"
                    floor = None if held else rng.choice([None, math.inf])
                    before, made = len(built), len(prepared)
                    got = tree.probe_edge(g, c, cfg, floor)
                    builds, samplers = len(built) - before, len(prepared) - made
                    assert got == replay.probe_edge(g, c, cfg, floor)
                    assert (tree._rings[c, cfg] is ring) == same
                    if same:
                        assert ring.parts == parts and samplers == 0
                        assert builds == (0 if held or resumed else 1)
                    else:
                        assert builds == samplers == 1
                    if held:
                        assert tree.probe_edge(g, c, cfg, math.inf) == got and not got[2]
                    seen[same, kind] = seen.get((same, kind), 0) + 1
        assert all(seen.get((True, kind), 0) > 5 for kind in ("exact", "drawn", "pruned"))
        assert sum(count for (same, _), count in seen.items() if not same) > 100

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_probed_commit_reuses_its_probes_ring(self, monkeypatch, use_memo):
        # Random graphs in random insertion orders.  Before most commits
        # every cycle candidate is probed.  A cycle commit of an edge whose
        # probe's ring is kept and not stale applies that ring's plan and, in
        # a memo tree, adopts the ring's table: it plans no cycle.  Any other
        # cycle commit, of a stale ring's edge too, plans once.  No ring of
        # the committed edge stays.  Either way the tree then equals
        # a fresh replay of the same inserts bit for bit: its dump, each bi
        # component's table rows and world count, its estimate and the
        # commit's report.  Graphs of up to 12 vertices give rings both
        # enumerated (2^m <= 300) and drawn.
        calls = []
        plan = FTree._plan_cycle
        monkeypatch.setattr(FTree, "_plan_cycle", lambda *a: calls.append("plan") or plan(*a))

        def tables(tree):
            return {
                c.signature(): ({v: hexed(r) for v, r in c.reach.rows.items()}, c.reach.sample_count)
                for c in tree.components.values() if isinstance(c, BiComponent)
            }

        rng = random.Random(9091)
        cfg = SamplerConfig(samples=300, master_seed=13)
        commits = {True: 0, False: 0}  # cycle commits, by whether a live ring was kept
        stale = 0
        for trial in range(25):
            n = rng.randint(5, 12)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n))
            tree, inserted = new_ftree(0, use_memo), []
            for e in insertable_order(g, rng):
                if rng.random() < 0.7:
                    for c in tree.cycle_candidates(g):
                        tree.probe_edge(g, c, cfg)
                cycle = tree.is_attached(e[0]) and tree.is_attached(e[1])
                ring = tree._rings.get((e, cfg))
                kept = ring is not None and ring.parts is not None
                stale += ring is not None and not kept
                calls.clear()
                report = tree.insert_edge(g, e, cfg)
                assert (e, cfg) not in tree._rings
                if cycle:
                    assert calls == ([] if kept else ["plan"])
                    commits[kept] += 1
                replay = replay_tree(g, inserted, cfg, use_memo)
                assert replay.insert_edge(g, e, cfg) == report
                inserted.append(e)
                assert tree.dump(g) == replay.dump(g)
                assert tables(tree) == tables(replay)
                est, ref = tree.expected_flow(g), replay.expected_flow(g)
                assert hexed((est.mean, est.lb, est.ub)) == hexed((ref.mean, ref.lb, ref.ub))
                assert est.samples_used == ref.samples_used
        assert commits[True] > 100 and commits[False] > 20 and stale > 5

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_probe_after_a_prune_draws_nothing(self, monkeypatch, use_memo):
        # Random trees grown edge by edge, every table drawn
        # (``long_ring_graph``).  Before every commit each cycle candidate is
        # probed against an infinite floor, which prunes a ring at its first
        # round unless its memo tree holds its table.  After a leaf commit,
        # which changes the masses, each pruned ring is probed again, in
        # turn plain or against an infinite floor: the probe judges the
        # table the prune left in the ring against the new masses and draws
        # nothing, and returns what a probe of a fresh copy returns, which
        # draws the table anew.  A memo tree's ring keeps the table once a
        # probe of it is not pruned.
        built = count_builds(monkeypatch)
        rng = random.Random(8118)
        cfg = SamplerConfig(samples=300, master_seed=5)
        resumed = {None: 0, math.inf: 0}
        for trial in range(20):
            g, order = long_ring_graph(rng, rng.randint(2, 8), rng.randint(2, 12))
            tree = new_ftree(0, use_memo)
            for e in order:
                for c in tree.cycle_candidates(g):
                    tree.probe_edge(g, c, cfg, math.inf)
                leaf = tree.is_attached(e[0]) != tree.is_attached(e[1])
                tree.insert_edge(g, e, cfg)
                if not leaf:
                    continue
                for (c, _), ring in list(tree._rings.items()):
                    if ring.drawn is None:
                        continue
                    floor = rng.choice([None, math.inf])
                    fresh = tree.copy().probe_edge(g, c, cfg, floor)
                    before = len(built)
                    assert tree.probe_edge(g, c, cfg, floor) == fresh
                    assert len(built) == before
                    assert (ring.drawn is None) == (floor is None)
                    assert (ring.scored is not None) == (use_memo and floor is None)
                    resumed[floor] += 1
        assert min(resumed.values()) > 20

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_deferred_probed_commit_samples_nothing(self, use_memo):
        # A deferred commit of a probed cycle edge leaves its new component
        # dirty, memo tree or not, and reports and dumps as a deferred
        # commit of an unprobed edge does; ``refresh`` then gives the tables
        # of an undeferred commit.
        g = running_example_graph()
        tree, plain = build_base_tree(g, memo=use_memo), build_base_tree(g, memo=use_memo)
        tree.probe_edge(g, (14, 15), CFG)
        report = tree.insert_edge(g, (14, 15), CFG, defer_sampling=True)
        assert report == plain.copy().insert_edge(g, (14, 15), CFG, defer_sampling=True)
        assert report.case_taken == "IIIb"
        assert len(tree.dirty_components()) == 1
        tree.refresh(g, CFG)
        plain.insert_edge(g, (14, 15), CFG)
        assert tree.dump(g) == plain.dump(g)
        assert tree.expected_flow(g) == plain.expected_flow(g)

    @pytest.mark.parametrize("variant",["ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"])
    def test_signature_text_is_built_once_per_drawn_sampler(self, monkeypatch, variant):
        # The signature text is only a drawn sampler's stream key, built at
        # its first draw; a stale ring is matched to its new plan by its
        # articulation vertex and edges.
        calls, drawn = [], {}
        signature, draw = BiComponent.signature, IncrementalComponentSampler.draw
        monkeypatch.setattr(BiComponent, "signature", lambda c: calls.append(1) or signature(c))

        def recording_draw(sampler, batch):
            drawn[id(sampler)] = sampler
            return draw(sampler, batch)

        monkeypatch.setattr(IncrementalComponentSampler, "draw", recording_draw)
        for seed in (1, 2):
            g = netgen.gen_partitioned(40, 8, seed)
            greedy_select(g, 0, StrategyConfig(variant, 12, SamplerConfig(samples=60, master_seed=seed)))
        assert len(calls) == len(drawn) > 0

    def test_leaf_probe_is_not_kept(self):
        # Only cycle edges are probed: a leaf probe raises, naming
        # ``leaf_terms``, and keeps nothing (a kept leaf probe would be
        # replayed as the cycle its edge closes once the free endpoint is
        # attached).  A leaf insert samples nothing.
        g = ProbabilisticGraph.build(3, [(0, 1, 0.6), (0, 2, 0.7), (1, 2, 0.8)], weights=[1.0, 2.0, 3.0])
        tree = new_ftree(0, memo=True)
        tree.insert_edge(g, (0, 1), CFG)
        before = snapshot(tree, g)
        with pytest.raises(FTreeError, match="leaf_terms"):
            tree.probe_edge(g, (1, 2), CFG)
        assert tree._rings == {} and snapshot(tree, g) == before
        assert (1, 2) in tree.leaf_terms(g)[1]
        assert tree.insert_edge(g, (0, 2), CFG).edges_sampled_count == 0
        assert (1, 2) in tree.candidates(g) and (1, 2) not in tree.leaf_terms(g)[1]
        est, report, pruned = tree.probe_edge(g, (1, 2), CFG)
        assert report.case_taken not in ("IIa", "IIb")
        assert (est, report, pruned) == tree.copy().probe_edge(g, (1, 2), CFG)

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_frontier_matches_full_evaluations(self, use_memo):
        # The tree keeps its candidates and leaf terms across inserts, on
        # random graphs and insertion orders.  Before every commit the kept
        # candidates are exactly ``candidate_edges``, the leaf terms cover
        # exactly the candidates with one endpoint attached, and each leaf's
        # estimate plus term equals inserting it into an evaluated copy, bit
        # for bit, both as the copy's extended estimate and evaluated from
        # scratch.  Some commits defer sampling and refresh after, so the
        # terms are read with no kept evaluation, as the empty tree's are.
        rng = random.Random(4242)
        cfg = SamplerConfig(samples=300, master_seed=3)
        seen = set()
        for trial in range(25):
            n = rng.randint(4, 11)
            g = random_connected_graph(rng, n, rng.randint(1, 2 * n))
            tree = new_ftree(0, use_memo)
            last = "empty"
            for e in insertable_order(g, rng):
                cands = tree.candidates(g)
                assert cands == candidate_edges(g, tree.attached_vertices(), tree.selected_edges)
                leaves = [c for c in cands if tree.is_attached(c[0]) != tree.is_attached(c[1])]
                before = snapshot(tree.copy(), g)
                base, terms = tree.leaf_terms(g)
                assert sorted(terms) == leaves
                for c in leaves:
                    t = terms[c]
                    score = (base.mean + t[0], base.lb + t[1], base.ub + t[2])
                    trial_tree = tree.copy()
                    trial_tree.expected_flow(g)
                    trial_tree.insert_edge(g, c, cfg)
                    kept = trial_tree.expected_flow(g)
                    for est in (kept, trial_tree.copy().expected_flow(g)):
                        assert hexed(score) == hexed((est.mean, est.lb, est.ub))
                        assert base.samples_used == est.samples_used
                    with pytest.raises(FTreeError, match="leaf_terms"):
                        tree.probe_edge(g, c, cfg)
                assert snapshot(tree, g) == before
                seen.add(last if leaves else None)
                if rng.random() < 0.3:
                    case = tree.insert_edge(g, e, cfg, defer_sampling=True).case_taken
                    tree.refresh(g, cfg)
                    last = case if tree._kept is not None else "unevaluated"
                else:
                    last = tree.insert_edge(g, e, cfg).case_taken
            assert tree.candidates(g) == []
        assert {"empty", "unevaluated", "IIa", "IIb", "IIIa", "IIIb", "IVb"} <= seen

    def test_frontier_terms_cover_only_leaves(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        _, terms = tree.leaf_terms(g)
        assert [e for e in [(7, 17), (14, 15), (11, 15), (6, 8)] if e in terms] == [(7, 17)]

    def test_copy_keeps_no_frontier(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        tree.leaf_terms(g)
        assert tree._cands is not None and tree._kept is not None
        other = tree.copy()
        assert other._cands is None and other._kept is None


def snapshot(tree, g):
    """Deep, comparable picture of a tree: layout, components, links, flow."""
    comps = {}
    for cid, c in tree.components.items():
        if isinstance(c, MonoComponent):
            comps[cid] = ("mono", frozenset(c.members), c.articulation, dict(c.parent_edges))
        else:
            comps[cid] = (
                "bi", frozenset(c.members), c.articulation, frozenset(c.internal_edges),
                c.reach, c.dirty,
            )
    links = (
        tree.root_id, {cid: tree.parent_of(cid) for cid in tree.components},
        dict(tree.vertex_index), frozenset(tree.selected_edges),
    )
    return tree.dump(g), comps, links, tree.expected_flow(g), tree.copy().expected_flow(g)


def hexed(values):
    return tuple(v.hex() for v in values)


def assert_close(est, ref, rel=1e-12):
    """Mean, lb and ub agree within ``rel`` relative; equal worlds used."""
    for a, b in zip((est.mean, est.lb, est.ub), (ref.mean, ref.lb, ref.ub)):
        assert abs(a - b) <= rel * max(abs(a), abs(b)), (est, ref)
    assert est.samples_used == ref.samples_used


def grown_flow(tree, g, e, cfg, worlds=None):
    """The reference a cycle probe of ``e`` must agree with: insert ``e``
    into a copy of ``tree``, give its new ring the table of the ring's
    first ``worlds`` worlds (all of them by default) and evaluate it.
    Returns that estimate, the insert's report and the ring's signature.
    The ring must be one whose table is drawn, not enumerated."""
    ref = tree.copy()
    report = ref.insert_edge(g, e, cfg, defer_sampling=True)
    [ring] = [ref.components[cid] for cid in ref.dirty_components()]
    sampler = IncrementalComponentSampler(g, ring, cfg)
    assert not sampler.exact
    ring.reach = drawn_table(sampler, worlds or cfg.samples)
    return ref.expected_flow(g), report, ring.signature()


class TestRingFormula:
    """Cycle probes are scored from subtree masses without growing a tree;
    they agree with growing a copy and evaluating it."""

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_probes_match_grown_copies(self, use_memo):
        # Random trees grown edge by edge.  Before every commit each cycle
        # candidate is probed (leaves are ``leaf_terms``'s, see
        # ``test_frontier_matches_full_evaluations``) against a floor just
        # above a random round's ub, or below every bound, then plain; every
        # round's estimate (``reference_round_estimates``) and the plain
        # estimate must agree with a copy grown by the edge whose ring
        # carries that round's table or the full one, within 1e-12 relative
        # on mean, lb and ub, with equal worlds used.  The floor-checked
        # probe prunes at the first round ``ci_prune`` drops beside the
        # floor, returning that round's estimate bit for bit, and otherwise
        # returns the last round's.  A memoized table is never pruned, and a
        # pruned table is not kept as the ring's.  The probed tree's dump,
        # tables and evaluation stay as they were.  Every bi component has
        # at least 9 edges (``long_ring_graph``), so every table is drawn
        # (2^9 > 300).
        rng = random.Random(5150)
        cfg = SamplerConfig(samples=300, master_seed=21)
        sizes = [CI_BATCH, 2 * CI_BATCH, 3 * CI_BATCH]
        cases, prunes, rescored = set(), set(), 0
        for trial in range(30):
            g, order = long_ring_graph(rng, rng.randint(2, 8), rng.randint(2, 12))
            tree, after_leaf = new_ftree(0, use_memo), False
            for e in order:
                before = snapshot(tree, g)
                for c in tree.cycle_candidates(g).copy():
                    ref, ref_report, sig = grown_flow(tree, g, c, cfg)
                    ring = tree._rings.get((c, cfg))
                    kept = use_memo and ring is not None
                    rescored += kept and after_leaf
                    hit = kept and ring.scored is not None and ring.comp.signature() == sig
                    rounds = reference_round_estimates(tree, g, c, cfg)
                    for got, worlds in zip(rounds, sizes, strict=True):
                        assert_close(got, grown_flow(tree, g, c, cfg, worlds)[0])
                    stop_at = rng.randint(1, len(sizes) + 1)
                    floor = -math.inf
                    if stop_at <= len(sizes):
                        floor = math.nextafter(rounds[stop_at - 1].ub, math.inf)
                    est, _, pruned = tree.probe_edge(g, c, cfg, floor)
                    at = None if hit else reference_prune_round(rounds, floor)
                    assert pruned == (at is not None)
                    if pruned:
                        assert est == rounds[at] and at < stop_at
                        assert tree._rings[c, cfg].scored is None
                    else:
                        assert est == rounds[-1]
                    prunes.add(at)
                    est, report, _ = tree.probe_edge(g, c, cfg)
                    assert_close(est, ref)
                    assert est.samples_used == cfg.samples
                    assert (report.case_taken, report.edges_sampled_count) == (
                        ref_report.case_taken, ref_report.edges_sampled_count
                    )
                    if not kept:
                        assert report == ref_report
                    cases.add(report.case_taken)
                assert snapshot(tree, g) == before
                after_leaf = tree.is_attached(e[0]) != tree.is_attached(e[1])
                tree.insert_edge(g, e, cfg)
        assert cases == {"IIIa", "IIIb", "IVb", "IVc-composite"}
        assert prunes == {0, 1, 2, None}
        assert rescored > 0 or not use_memo

    def test_worlds_used_count_only_the_tables_the_grown_tree_keeps(self):
        # The triangle {0, 1, 2} is drawn with 4 worlds and the probes'
        # rings with 6, fewer than any of them has (2^3 or 2^5), so all
        # are drawn.  The ring (0, 3) closes takes the triangle in, so the
        # grown tree has 6-world tables only; the ring (0, 5) closes leaves
        # it, so 4 worlds remain the fewest.
        g = ProbabilisticGraph.build(
            6, [(0, 1, 0.6), (1, 2, 0.7), (0, 2, 0.5), (2, 3, 0.8), (0, 3, 0.4),
                (0, 4, 0.9), (4, 5, 0.6), (0, 5, 0.3)],
            weights=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        )
        tree = new_ftree(0)
        for e in [(0, 1), (1, 2), (0, 2), (2, 3), (0, 4), (4, 5)]:
            tree.insert_edge(g, e, replace(CFG, samples=4))
        wide = replace(CFG, samples=6)
        for edge, worlds in [((0, 3), 6), ((0, 5), 4)]:
            est = tree.probe_edge(g, edge, wide)[0]
            assert_close(est, grown_flow(tree, g, edge, wide)[0])
            assert est.samples_used == worlds


class TestKeptEvaluation:
    """A tree's kept evaluation always equals a from-scratch evaluation."""

    CASES = {"IIa", "IIb", "IIIa", "IIIb", "IVb", "IVc-composite"}

    @pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
    @pytest.mark.parametrize("floor", [None, math.inf, -math.inf], ids=["plain", "stops", "never-stops"])
    def test_matches_replay_with_cache_cleared(self, memo, floor):
        # Before each commit, unless plain, the edge is scored on a tree
        # that keeps its evaluation and on a replay evaluated from scratch:
        # a cycle edge by every round's estimate and by a probe against a
        # floor that prunes at the first round it can or never, a leaf by
        # its term.  Both agree bit for bit, as do the evaluations after
        # every commit.
        rng = random.Random(808)
        cfg = SamplerConfig(samples=300, master_seed=4)
        seen = set()
        for trial in range(30):
            n = rng.randint(3, 10)
            g = random_connected_graph(rng, n, rng.randint(0, n * (n - 1) // 2 - (n - 1)))
            kept, replay = new_ftree(0, memo), new_ftree(0, memo)
            for e in insertable_order(g, rng):
                if floor is not None and kept.is_attached(e[0]) and kept.is_attached(e[1]):
                    # A cycle edge is probed first, on the kept state and from scratch.
                    replay._kept = None
                    rounds = reference_round_estimates(kept, g, e, cfg)
                    assert rounds == reference_round_estimates(replay, g, e, cfg)
                    replay._kept = None
                    assert kept.probe_edge(g, e, cfg, floor) == replay.probe_edge(g, e, cfg, floor)
                elif floor is not None:
                    # A leaf's estimate, from the kept terms and from scratch.
                    replay._kept = None
                    (base, terms), (replay_base, replay_terms) = kept.leaf_terms(g), replay.leaf_terms(g)
                    assert kept.leaf_estimate(base, terms[e]) == replay.leaf_estimate(
                        replay_base, replay_terms[e]
                    )
                replay._kept = None  # no kept state: replay evaluates from scratch
                case = kept.insert_edge(g, e, cfg).case_taken
                replay.insert_edge(g, e, cfg)
                seen.add(case)
                assert kept.expected_flow(g) == replay.expected_flow(g)
                assert kept.expected_flow(g) == kept.copy().expected_flow(g)
        assert seen == self.CASES

    def test_kept_state_serves_the_graph_named(self):
        # Two graphs share edges and probabilities but not weights.  One tree
        # is asked about both in turn, switching back to the first, and takes
        # its inserts with either; each entry, asked first after a switch in
        # some visit, answers as a fresh tree fed the same inserts with the
        # graph named does, compared by hex.
        rng = random.Random(1515)
        cfg = SamplerConfig(samples=200, master_seed=6)

        def answers(tree, g, order):
            out = {}
            for ask in order:
                if ask == "flow":
                    est = tree.expected_flow(g)
                    out[ask] = hexed((est.mean, est.lb, est.ub)), est.samples_used
                elif ask == "candidates":
                    out[ask] = list(tree.candidates(g))
                elif ask == "terms":
                    base, terms = tree.leaf_terms(g)
                    out[ask] = hexed((base.mean, base.lb, base.ub)), {
                        e: hexed(t) for e, t in terms.items()
                    }
                else:
                    out[ask] = {}
                    for c in candidate_edges(g, tree.attached_vertices(), tree.selected_edges):
                        if not (tree.is_attached(c[0]) and tree.is_attached(c[1])):
                            continue  # a leaf: the "terms" entry covers it
                        est, report, _ = tree.probe_edge(g, c, cfg)
                        out[ask][c] = (
                            hexed((est.mean, est.lb, est.ub)), est.samples_used,
                            report.case_taken, report.edges_sampled_count,
                        )
            return out

        firsts = set()
        for trial in range(10):
            n = rng.randint(4, 8)
            g = random_connected_graph(rng, n, rng.randint(1, n))
            triples = [(u, v, g.probabilities[i]) for i, (u, v) in enumerate(g.edges)]
            graphs = [
                ProbabilisticGraph.build(n, triples, weights=[rng.uniform(0, 9) for _ in range(n)])
                for _ in range(2)
            ]
            tree, inserted = new_ftree(0, memo=True), []
            for e in insertable_order(g, rng):
                for x in (0, 1, 0):
                    order = ["flow", "candidates", "terms", "probe"]
                    rng.shuffle(order)
                    firsts.add(order[0])
                    fresh = new_ftree(0, memo=True)
                    for d in inserted:
                        fresh.insert_edge(graphs[x], d, cfg)
                    assert answers(tree, graphs[x], order) == answers(fresh, graphs[x], order)
                x = rng.randrange(2)
                tree.insert_edge(graphs[x], e, cfg)
                inserted.append(e)
        assert firsts == {"flow", "candidates", "terms", "probe"}

    def test_leaf_insert_extends_without_evaluating(self, monkeypatch):
        g = running_example_graph()
        tree = build_base_tree(g)
        tree.expected_flow(g)
        monkeypatch.setattr(type(tree), "_evaluate", None)
        report = tree.insert_edge(g, (7, 17), CFG)
        assert report.case_taken == "IIb"
        monkeypatch.undo()
        assert tree.expected_flow(g) == tree.copy().expected_flow(g)


class TestMemo:
    def test_ring_keeps_its_table(self):
        g = running_example_graph()
        tree = build_base_tree(g, memo=True)
        est1 = tree.probe_edge(g, (14, 15), CFG)
        assert tree._rings[(14, 15), CFG].scored is not None
        est2 = tree.probe_edge(g, (14, 15), CFG)
        assert est1 == est2

    def test_ring_tables_serve_one_graph(self):
        # Two graphs with the same edges, whose probabilities differ on the
        # edges not yet inserted.  A memo tree's probes of the cycle
        # candidates on the first graph fill its rings' tables; on the
        # second graph the same probes answer as a fresh tree's do, not from
        # the first graph's tables.
        g1 = netgen.gen_erdos(30, 4, 2)
        prefix = insertable_order(g1)[:20]
        g2 = replace(g1, probabilities=tuple(
            p if e in prefix else p / 2 for e, p in zip(g1.edges, g1.probabilities)
        ))
        tree = replay_tree(g1, prefix, CFG, memo=True)
        cycles = list(tree.cycle_candidates(g1))
        first = [tree.probe_edge(g1, c, CFG) for c in cycles]
        assert cycles and all(tree._rings[c, CFG].scored is not None for c in cycles)
        second = [tree.probe_edge(g2, c, CFG) for c in cycles]
        fresh = replay_tree(g2, prefix, CFG, memo=True)
        assert second == [fresh.probe_edge(g2, c, CFG) for c in cycles]
        assert all(a[0].mean != b[0].mean for a, b in zip(first, second))

    def test_copy_keeps_no_rings(self):
        g = running_example_graph()
        tree = build_base_tree(g, memo=True)
        tree.probe_edge(g, (14, 15), CFG)
        rings = dict(tree._rings)
        copy = tree.copy()
        assert copy._rings == {}
        for c in copy.cycle_candidates(g):
            copy.probe_edge(g, c, CFG)
        assert len(copy._rings) > 1 and tree._rings == rings

    def test_added_edge_changes_signature(self):
        comp = BiComponent({1, 2}, 0, {(0, 1), (0, 2), (1, 2)})
        sig1 = comp.signature()
        comp.internal_edges.add((2, 3))
        assert comp.signature() != sig1

    def test_articulation_is_part_of_identity(self):
        a = BiComponent({1, 2}, 0, {(0, 1), (0, 2), (1, 2)})
        b = BiComponent({1, 2}, 3, {(0, 1), (0, 2), (1, 2)})
        assert a.signature() != b.signature()

    def test_store_keeps_every_table(self):
        memo = MemoStore()
        tables = [
            ReachTable(articulation=0, rows={1: (i / 5000,) * 3}, sample_count=10) for i in range(5000)
        ]
        keys = [(0, ((0, 1), (1, i + 2))) for i in range(5000)]
        for key, t in zip(keys, tables):
            memo.store(CFG, key, t)
        assert all(memo.lookup(CFG, key) is t for key, t in zip(keys, tables))

    @pytest.mark.pinned
    def test_ring_builds_match_pinned_counts(self, monkeypatch):
        # Rings are the only table cache, and a stale ring whose component is
        # unchanged keeps its table, so no variant builds a table more often
        # than when a store kept every table a probe built: the draws and
        # exact builds of each memo variant's greedy run, at 300 samples, on
        # one small graph of each benchmark family.  On each graph a re-probe
        # after a cycle commit that left its ring's component unchanged,
        # which only a kept table serves, happens at least once.
        built = count_builds(monkeypatch)
        graphs = {
            "erdos": (netgen.gen_erdos(300, 6, 1), 60),
            "partitioned": (netgen.gen_partitioned(200, 8, 1), 30),
            "wsn": (netgen.assign_distance_decay(netgen.gen_wsn(200, 0.12, 1), lam=0.001, scale=2000), 30),
        }
        counts = {}
        for name, (g, k) in graphs.items():
            for variant in ("ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"):
                built.clear()
                greedy_select(g, 0, StrategyConfig(variant, k, SamplerConfig(samples=300, master_seed=7)))
                counts[name, variant] = built.count("draw"), built.count("exact")
        assert counts == {
            ("erdos", "ft_m"): (15, 3),
            ("erdos", "ft_m_ci"): (15, 3),
            ("erdos", "ft_m_ds"): (13, 3),
            ("erdos", "ft_m_ci_ds"): (13, 3),
            ("partitioned", "ft_m"): (58, 43),
            ("partitioned", "ft_m_ci"): (58, 43),
            ("partitioned", "ft_m_ds"): (46, 43),
            ("partitioned", "ft_m_ci_ds"): (46, 43),
            ("wsn", "ft_m"): (8, 73),
            ("wsn", "ft_m_ci"): (8, 73),
            ("wsn", "ft_m_ds"): (21, 63),
            ("wsn", "ft_m_ci_ds"): (21, 63),
        }

    @pytest.mark.parametrize("variant", ["ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"])
    def test_tables_are_bounded_by_uncommitted_cycle_candidates(self, monkeypatch, variant):
        # After a greedy run the live tree (the one ``new_ftree`` returned)
        # holds tables only in the rings of cycle candidates it has not
        # committed, one ring per edge under the run's config, and each ring
        # holds at most one table: the one a probe read, or the draw a pruned
        # probe left.  Only memo trees hold any, and no tree creates a
        # ``MemoStore``.  Small erdos, partitioned and wsn graphs, at 1000
        # samples and at 60, where rings are drawn and, under _ci, pruned.
        trees, stores = [], []
        build = selection.new_ftree
        monkeypatch.setattr(selection, "new_ftree", lambda *a, **k: trees.append(build(*a, **k)) or trees[-1])
        monkeypatch.setattr(MemoStore, "__init__", lambda self: stores.append(self))
        held = 0
        for seed in (1, 2):
            graphs = [
                netgen.gen_erdos(40, 4, seed),
                netgen.gen_partitioned(40, 8, seed),
                netgen.assign_distance_decay(netgen.gen_wsn(60, 0.25, seed), lam=0.001, scale=2000),
            ]
            for g in graphs:
                for cfg in (SamplerConfig(master_seed=seed), SamplerConfig(samples=60, master_seed=seed)):
                    greedy_select(g, 0, StrategyConfig(variant, 15, cfg))
                    tree = trees.pop()
                    cycles = set(tree.cycle_candidates(g))
                    for (e, ring_cfg), ring in tree._rings.items():
                        assert e in cycles and e not in tree.selected_edges and ring_cfg == cfg
                        assert ring.scored is None or ring.drawn is None
                        held += ring.scored is not None or ring.drawn is not None
        assert (held > 0) == (variant != "ft") and stores == []

    def test_tables_are_kept_apart_by_config(self):
        # A ring kept under one config serves a probe under another config
        # nothing: the probe, and the commit after it, give what they give
        # in a tree without a memo.  The cycle edge (1, 3) is probed under
        # each config in turn, and keeps one ring with its own table per
        # config, until its commit drops them all.
        g = netgen.gen_partitioned(16, 4, 1)
        # 15 samples are fewer than the 4-cycle's 16 worlds, so its table
        # is drawn and differs between configs.
        first = SamplerConfig(samples=15, master_seed=1)
        cfgs = (first, replace(first, master_seed=2), replace(first, alpha=0.05))

        def tree_before_cycle(memo):
            tree = new_ftree(0, memo)
            for e in [(0, 2), (0, 3), (1, 2)]:
                tree.insert_edge(g, e, first)
            return tree

        tree = tree_before_cycle(memo=True)
        for kept, cfg in enumerate(cfgs):
            assert len(tree._rings) == kept
            est = tree.probe_edge(g, (1, 3), cfg)
            assert est == tree_before_cycle(memo=False).probe_edge(g, (1, 3), cfg)
            assert est[0].samples_used == first.samples
        assert len({id(tree._rings[(1, 3), cfg].scored[0]) for cfg in cfgs}) == len(cfgs)
        plain = tree_before_cycle(memo=False)
        plain.insert_edge(g, (1, 3), cfgs[-1])
        tree.insert_edge(g, (1, 3), cfgs[-1])
        assert tree.expected_flow(g) == plain.expected_flow(g)
        assert tree._rings == {}

    @pytest.mark.parametrize("variant", ["ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"])
    def test_probes_are_the_only_writer(self, monkeypatch, variant):
        # Greedy commits only probed edges, and each probe kept its full
        # table in its ring, which the commit adopts: a commit's refresh
        # neither builds a table nor draws.  Small
        # erdos, partitioned and wsn graphs, at the default 1000 samples and
        # at 60, where rings are drawn and, under _ci, candidates are pruned.
        depth, calls, refreshes = [0], [], []

        def record(owner, name, event):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append((depth[0] > 0, event(result)))
                return result

            monkeypatch.setattr(owner, name, wrapper)

        def refreshing(tree, *args, **kwargs):
            refreshes.append(1)
            depth[0] += 1
            try:
                return refresh(tree, *args, **kwargs)
            finally:
                depth[0] -= 1

        refresh = FTree.refresh
        monkeypatch.setattr(FTree, "refresh", refreshing)
        record(IncrementalComponentSampler, "build", lambda _: "build")
        record(IncrementalComponentSampler, "draw", lambda _: "draw")
        pruned = 0
        for seed in (1, 2):
            graphs = [
                netgen.gen_erdos(40, 4, seed),
                netgen.gen_partitioned(40, 8, seed),
                netgen.assign_distance_decay(netgen.gen_wsn(60, 0.25, seed), lam=0.001, scale=2000),
            ]
            for g in graphs:
                for sampler in (SamplerConfig(master_seed=seed), SamplerConfig(samples=60, master_seed=seed)):
                    solution = greedy_select(g, 0, StrategyConfig(variant, 15, sampler))
                    pruned += sum(rec.candidates_pruned for rec in solution.trace)
        assert refreshes and not any(inside for inside, _ in calls)
        assert {"build", "draw"} <= {event for _, event in calls}
        assert ("_ci" in variant) == (pruned > 0)


class TestIncrementalSampling:
    @pytest.mark.pinned
    @pytest.mark.parametrize("chunk_budget", [None, 40], ids=["one-chunk", "ten-world-chunks"])
    def test_prefix_tables_match_batched_draws(self, monkeypatch, chunk_budget):
        # A full-budget draw holds every world, so rows() gives, element by
        # element, the rows of a fresh sampler that drew n worlds, for each
        # n asked.  The full draw may span many chunks.  The 11-edge ring
        # has 2^11 worlds, more than 1000, so a tree draws its table too.
        # build(sizes) gives those rounds as (member, round) arrays, members
        # ascending, and, as its table, their last round, which is also a
        # plain build()'s table.
        from probflow import sampling

        g = ring_chain_graph(1, ring=11)
        comp = BiComponent(set(range(2, 12)), 1, set(g.edges) - {(0, 1)})
        cfg = SamplerConfig(samples=1000, master_seed=99)
        sizes = range(CI_BATCH, cfg.samples + 1, CI_BATCH)
        expected = [drawn_table(IncrementalComponentSampler(g, comp, cfg), n) for n in sizes]
        if chunk_budget is not None:
            monkeypatch.setattr(sampling, "_CHUNK_BUDGET", chunk_budget)
        full = IncrementalComponentSampler(g, comp, cfg)
        assert not full.exact
        rows = dict(zip(sorted(comp.members), zip(*full.rows(full.draw(cfg.samples), sizes))))
        for j, table in enumerate(expected):
            for v in comp.members:
                assert tuple(a[j] for a in rows[v]) == table.rows[v]
        built, grid = full.build(list(sizes))
        plain, none = IncrementalComponentSampler(g, comp, cfg).build()
        assert none is None and built == plain == expected[-1]
        assert built.sample_count == cfg.samples
        members = sorted(comp.members)
        assert {v: tuple(a[k, -1] for a in grid) for k, v in enumerate(members)} == built.rows
        for k, v in enumerate(members):
            assert [a[k].tolist() for a in grid] == [a.tolist() for a in rows[v]]


class TestRefreshFloor:
    """A floor-checked probe draws what a commit's plain refresh draws."""

    EDGE = (8, 12)

    def test_floor_that_never_prunes_matches_plain_refresh(self, monkeypatch):
        g, plain = long_ring_tree(memo=True)
        (_, batched), (_, refreshed) = long_ring_tree(memo=True), long_ring_tree(memo=True)
        built = []
        build = IncrementalComponentSampler.build
        monkeypatch.setattr(
            IncrementalComponentSampler, "build", lambda s, sizes=(): built.append(sizes) or build(s, sizes)
        )
        est = plain.probe_edge(g, self.EDGE, CFG)
        assert batched.probe_edge(g, self.EDGE, CFG, -math.inf) == est
        assert [list(sizes) for sizes in built] == [[], round_sizes(CFG.samples)]
        assert len(built[-1]) == CFG.samples // CI_BATCH
        assert reference_round_estimates(plain, g, self.EDGE, CFG)[-1] == est[0]
        assert est[0].samples_used == CFG.samples
        kept = plain._rings[self.EDGE, CFG]
        assert kept.scored[0] == batched._rings[self.EDGE, CFG].scored[0]
        # A commit with no probe before it builds the same table.
        refreshed.insert_edge(g, self.EDGE, CFG)
        sig = kept.comp.signature()
        [ring] = [
            c for c in refreshed.components.values() if isinstance(c, BiComponent) and c.signature() == sig
        ]
        assert ring.reach == kept.scored[0]

    def test_floor_that_prunes_returns_its_round_and_stores_nothing(self):
        # A floor just above the third round's ub prunes at that round or
        # an earlier one, whose estimate the probe returns.  The drawn table
        # stays in the ring, not kept as its table.
        g, tree = long_ring_tree(memo=True)
        rounds = reference_round_estimates(tree, g, self.EDGE, CFG)
        floor = math.nextafter(rounds[2].ub, math.inf)
        at = reference_prune_round(rounds, floor)
        est, _, pruned = tree.probe_edge(g, self.EDGE, CFG, floor)
        assert pruned and at <= 2 and est == rounds[at]
        assert est.samples_used == (at + 1) * CI_BATCH
        assert all(ring.scored is None for ring in tree._rings.values())
        assert tree._rings[self.EDGE, CFG].drawn is not None


class TestRoundEstimates:
    """Each round's estimate a floor-checked probe judges agrees with a
    full evaluation of the grown tree carrying that round's table."""

    @staticmethod
    def nesting(tree, held):
        """How each component about to be sampled sits against clean sampled
        ones; a component whose signature is ``held`` has its table already."""
        def clean_bi(cid):
            comp = tree.components[cid]
            return isinstance(comp, BiComponent) and not comp.dirty

        found = set()
        children = {cid: [] for cid in tree.components}
        for cid in tree.components:
            if cid != tree.root_id:
                children[tree.parent_of(cid)].append(cid)
        for cid in tree.dirty_components():
            if tree.components[cid].signature() == held:
                continue
            pid = tree.parent_of(cid)
            while pid is not None:
                if clean_bi(pid):
                    found.add("under")
                pid = tree.parent_of(pid)
            stack = list(children[cid])
            while stack:
                kid = stack.pop()
                if clean_bi(kid):
                    found.add("above")
                stack.extend(children[kid])
        return found

    @pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
    def test_every_round_equals_a_full_evaluation(self, memo):
        # Before each cycle-closing commit every round's estimate
        # (``reference_round_estimates``) agrees with a grown copy whose ring
        # carries that round's table.  The edge is then probed against a
        # floor just above each round's ub in turn: each probe prunes at the
        # first round ``ci_prune`` drops and returns its estimate bit for
        # bit, judging the draw the last prune left.  Then against a floor
        # below every bound, which prunes nothing and gives the last round's
        # estimate, the plain probe's.  A re-probe against an infinite floor
        # is then pruned only without a memo: a memoized table is never
        # pruned, and a memo-less one is drawn again and judged.  Every bi
        # component has at least 9 edges (``long_ring_graph``), so every
        # table is drawn (2^9 > 400).
        rng = random.Random(4242)
        cfg = SamplerConfig(samples=400, master_seed=8)
        cases, nesting = set(), set()
        for _ in range(25):
            g, order = long_ring_graph(rng, rng.randint(2, 8), rng.randint(2, 12))
            tree = new_ftree(0, memo)
            for e in order:
                if tree.is_attached(e[0]) and tree.is_attached(e[1]):
                    base = tree.copy()
                    cases.add(base.insert_edge(g, e, cfg, defer_sampling=True).case_taken)
                    ring = tree._rings.get((e, cfg))
                    held = ring.comp.signature() if ring is not None and ring.scored is not None else None
                    nesting |= self.nesting(base, held)
                    rounds = reference_round_estimates(tree, g, e, cfg)
                    assert len(rounds) == cfg.samples // CI_BATCH
                    for k, est in enumerate(rounds):
                        assert_close(est, grown_flow(tree, g, e, cfg, (k + 1) * CI_BATCH)[0])
                        floor = math.nextafter(est.ub, math.inf)
                        at = reference_prune_round(rounds, floor)
                        got, _, pruned = tree.probe_edge(g, e, cfg, floor)
                        assert pruned and at <= k and got == rounds[at]
                    est = tree.probe_edge(g, e, cfg, -math.inf)
                    assert est[0] == rounds[-1] and not est[2]
                    assert est[0].samples_used == cfg.samples
                    assert est == tree.probe_edge(g, e, cfg)
                    assert tree.probe_edge(g, e, cfg, math.inf)[2] != memo
                tree.insert_edge(g, e, cfg)
                assert tree.expected_flow(g) == tree.copy().expected_flow(g)
        assert {"IIIa", "IIIb", "IVb", "IVc-composite"} <= cases
        assert nesting == {"under", "above"}


class TestFloorRule:
    """A floor-checked probe prunes where ``ci_prune`` would: at the first
    round whose estimate it drops beside a candidate at the floor."""

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_prunes_at_the_first_round_ci_prune_drops(self, monkeypatch, use_memo):
        # Random graphs in random insertion orders, with weights of 0 or 1,
        # so that many ring members carry no outside-ring mass.  Before
        # every cycle commit the edge is probed on fresh copies of the tree
        # against floors just below, at and just above each round's ub (the
        # one estimate of an exact table, drawn tables' rounds from
        # ``reference_round_estimates``), and against none.  Each probe
        # prunes exactly when and where ``ci_prune`` first drops a round,
        # and returns that round's estimate bit for bit, which agrees with
        # a copy grown by the edge with that round's table within 1e-12;
        # an unpruned probe returns the full table's.  A pruned drawn table
        # is not kept as the ring's table but left in the ring, where the
        # next probe judges it again, building nothing, to the same result.
        # Any other table is kept (memo trees) and never
        # pruned again, not even by an infinite floor; without a memo the
        # next probe builds it afresh and judges it the same.
        # Graphs of up to 11 vertices give rings both enumerated (2^m <=
        # 250) and drawn, over rounds of 100, 200 and 250 worlds.
        built = count_builds(monkeypatch)
        rng = random.Random(3131)
        cfg = SamplerConfig(samples=250, master_seed=41)
        sizes = round_sizes(cfg.samples)
        seen = set()
        for trial in range(30):
            n = rng.randint(5, 11)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n), weight_range=(0, 1))
            tree = new_ftree(0, use_memo)
            for e in insertable_order(g, rng):
                if tree.is_attached(e[0]) and tree.is_attached(e[1]):
                    rounds = reference_round_estimates(tree, g, e, cfg)
                    exact = rounds is None
                    full = tree.copy().probe_edge(g, e, cfg)[0]
                    rounds = rounds or [full]
                    assert rounds[-1] == full
                    floors = {None}
                    for est in rounds:
                        floors |= {math.nextafter(est.ub, -math.inf), est.ub, math.nextafter(est.ub, math.inf)}
                    for floor in floors:
                        probe = tree.copy()
                        est, report, pruned = probe.probe_edge(g, e, cfg, floor)
                        at = reference_prune_round(rounds, floor)
                        assert pruned == (at is not None)
                        assert est == (rounds[at] if pruned else full)
                        if pruned and not exact:
                            assert_close(est, grown_flow(tree, g, e, cfg, sizes[at])[0])
                        ring = probe._rings[e, cfg]
                        left = pruned and not exact
                        assert (ring.drawn is not None) == left
                        assert (ring.scored is not None) == (use_memo and not left)
                        before = len(built)
                        again = (est, report, pruned) if left or not use_memo else (full, report, False)
                        assert probe.probe_edge(g, e, cfg, floor) == again
                        assert len(built) == before + (not left and not use_memo)
                        if use_memo:
                            assert probe.probe_edge(g, e, cfg, math.inf)[2] == left
                        seen.add((exact, at))
                tree.insert_edge(g, e, cfg)
        assert {(False, j) for j in range(len(sizes))} | {(True, 0), (False, None), (True, None)} <= seen


    def test_rounds_that_tie_the_bound_are_judged(self):
        # A path 0-1-...-(n-1) closed by (0, n-1) folds every other vertex
        # into one ring hanging off 0.  A member of weight 0 whose only child
        # is the next member carries no outside-ring mass, so its rows move
        # the ring's flows by rounding alone.  Grids whose rounds differ only
        # in such members' rows give rounds whose ubs differ by rounding, and
        # the bound scored from each member's smallest hi can round above
        # some of them.  Against floors just below, at and just above each
        # round's ub, the probe's judge (``FTree._pruned_round``) prunes at
        # the first round ``ci_prune`` drops, returning the estimate that
        # round's rows give as a table of their own, bit for bit.
        rng = random.Random(4447)
        sizes = round_sizes(1000)
        judged = set()
        for trial in range(40):
            n = rng.randint(5, 9)
            weights = [float(rng.choice([0, 0, 1, 3])) for _ in range(n)]
            path = [(v, v + 1, rng.uniform(0.3, 0.95)) for v in range(n - 1)]
            g = ProbabilisticGraph.build(n, path + [(0, n - 1, 0.5)], weights=weights)
            tree = new_ftree(0)
            for u, v, _ in path:
                tree.insert_edge(g, (u, v), CFG)
            tree.expected_flow(g)
            _, comp, _ = tree._plan_cycle(0, n - 1, (0, n - 1))
            members = sorted((tree._kept.rank[x], x) for x in comp.members)
            for _ in range(5):
                rows = {v: [sorted(rng.random() for _ in range(3))] * len(sizes) for v in range(1, n)}
                for v in range(1, n - 1):
                    if weights[v] == 0.0:
                        rows[v] = [sorted(rng.random() for _ in range(3)) for _ in sizes]
                # (p, lo, hi) grids, members ascending; each sorted triple is (lo, p, hi).
                grid = tuple(np.array([[r[c] for r in rows[v]] for v in range(1, n)]) for c in (1, 0, 2))
                tables = [
                    ReachTable(0, {v: (rows[v][j][1], rows[v][j][0], rows[v][j][2]) for v in rows}, worlds)
                    for j, worlds in enumerate(sizes)
                ]
                rounds = [
                    FlowEstimate(*tree._ring_flow(tree._coefficients(members, t.rows), 0), t.sample_count)
                    for t in tables
                ]
                for est in rounds:
                    for floor in (math.nextafter(est.ub, -math.inf), est.ub, math.nextafter(est.ub, math.inf)):
                        at = reference_prune_round(rounds, floor)
                        got = tree._pruned_round(members, 0, tables[-1], grid, floor)
                        assert got == (None if at is None else rounds[at])
                        judged.add(at)
        assert judged >= {None, *range(len(sizes))}


    @pytest.mark.pinned
    @pytest.mark.parametrize("ring, samples", [(5, 20), (9, 300), (11, 1000), (14, 250)])
    def test_round_flows_end_at_the_full_tables_estimate(self, ring, samples):
        # On rings of at least ``ring`` uncertain edges, more worlds than
        # ``samples`` (``long_ring_graph``), so every table is drawn: the
        # flows ``FTree._round_flows`` scores for all rounds of a ring's
        # grid at once are, in hex, each round's rows scored as a table on
        # their own (``reference_round_estimates``), and their last round is
        # the full table's estimate, the plain probe's.
        rng = random.Random(ring * samples)
        cfg = SamplerConfig(samples=samples, master_seed=ring)
        sizes = round_sizes(samples)
        checked = 0
        for trial in range(6):
            g, order = long_ring_graph(rng, rng.randint(2, 6), rng.randint(2, 8), ring=ring)
            tree = new_ftree(0, memo=True)
            for e in order:
                if tree.is_attached(e[0]) and tree.is_attached(e[1]):
                    est = tree.probe_edge(g, e, cfg)[0]
                    kept = tree._rings[e, cfg]
                    _, grid = IncrementalComponentSampler(g, kept.comp, cfg).build(sizes)
                    flows = tree._round_flows(kept.members, kept.comp.articulation, grid)
                    assert hexed(f[-1] for f in flows) == hexed((est.mean, est.lb, est.ub))
                    rounds = reference_round_estimates(tree, g, e, cfg)
                    assert [hexed(f[j] for f in flows) for j in range(len(sizes))] == [
                        hexed((r.mean, r.lb, r.ub)) for r in rounds
                    ]
                    checked += 1
                tree.insert_edge(g, e, cfg)
        assert checked > 10


def cycle_graph(probs):
    """One cycle 0-1-...-0 with these edge probabilities, weights 1..n."""
    n = len(probs)
    return ProbabilisticGraph.build(
        n, [(i, (i + 1) % n, p) for i, p in enumerate(probs)],
        weights=[float(v) for v in range(1, n + 1)],
    )


def closed_cycle(probs, cfg):
    """``cycle_graph`` with every edge inserted, and its one bi component."""
    g = cycle_graph(probs)
    tree = new_ftree(0)
    for e in insertable_order(g):
        tree.insert_edge(g, e, cfg)
    [ring] = [c for c in tree.components.values() if isinstance(c, BiComponent)]
    return g, tree, ring


@pytest.mark.pinned
class TestExactTables:
    """A bi component with m uncertain edges gets an exact table when
    2^m <= samples: enumerated worlds, no stream, zero-width rows."""

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_small_components_match_the_oracle(self, use_memo):
        # Graphs of at most 11 edges, so every bi component has at most
        # 2^11 = samples worlds.  After every insert, under two master
        # seeds: the flow is the oracle's within 1e-12 relative, with zero
        # width and EXACT_SAMPLES worlds, equal under both seeds; and every
        # cycle probe is too, judging its one estimate once against an
        # infinite floor, which prunes it, unless its memo tree's ring held
        # the table already.
        rng = random.Random(1717)
        cfgs = [SamplerConfig(samples=2048, master_seed=seed) for seed in (1, 2)]

        def exact_close(est, flow):
            assert est.lb == est.mean == est.ub
            assert est.samples_used == EXACT_SAMPLES
            assert abs(est.mean - flow) <= 1e-12 * max(abs(est.mean), abs(flow))

        rings = 0
        for _ in range(40):
            n = rng.randint(4, 8)
            g = random_connected_graph(rng, n, rng.randint(1, 11 - (n - 1)))
            order = insertable_order(g, rng)
            trees = [new_ftree(0, use_memo) for _ in cfgs]
            for i, e in enumerate(order, start=1):
                for c in trees[0].candidates(g).copy():
                    if not (trees[0].is_attached(c[0]) and trees[0].is_attached(c[1])):
                        continue
                    ring, sig = trees[0]._rings.get((c, cfgs[0])), trees[0]._plan_cycle(*c, c)[1].signature()
                    held = ring is not None and ring.scored is not None and ring.comp.signature() == sig
                    probes = [t.probe_edge(g, c, cfg, math.inf) for t, cfg in zip(trees, cfgs)]
                    assert probes[0] == probes[1] and probes[0][2] == (not held)
                    exact_close(probes[0][0], expected_flow_of_edges(g, 0, order[: i - 1] + [c]))
                    rings += 1
                ests = []
                for t, cfg in zip(trees, cfgs):
                    t.insert_edge(g, e, cfg)
                    ests.append(t.expected_flow(g))
                assert ests[0] == ests[1]
                exact_close(ests[0], expected_flow_of_edges(g, 0, order[:i]))
        assert rings > 100

    def test_certain_edges_are_not_enumerated(self):
        # A 12-edge cycle with 3 uncertain edges: 2^3 worlds, so its table
        # is exact from 8 samples on, and drawn below.
        probs = [1.0] * 12
        probs[2], probs[5], probs[9] = 0.5, 0.6, 0.7
        g, tree, ring = closed_cycle(probs, SamplerConfig(samples=8))
        assert ring.reach.sample_count == EXACT_SAMPLES
        assert tree.expected_flow(g).mean == pytest.approx(exact_expected_flow(g, 0), rel=1e-12)
        _, _, ring = closed_cycle(probs, SamplerConfig(samples=7))
        assert ring.reach.sample_count == 7

    def test_rule_boundary(self):
        # 4 uncertain edges, 16 worlds: exact at 16 samples, drawn at 8.
        probs = [0.5, 0.6, 0.7, 0.8]
        _, _, ring = closed_cycle(probs, SamplerConfig(samples=16))
        assert ring.reach.sample_count == EXACT_SAMPLES
        assert all(lo == p == hi for p, lo, hi in ring.reach.rows.values())
        _, _, ring = closed_cycle(probs, SamplerConfig(samples=8))
        assert ring.reach.sample_count == 8
        assert all(lo < p < hi for p, lo, hi in ring.reach.rows.values())

    def test_exact_table_draws_nothing_and_ignores_the_seed(self, monkeypatch):
        probs = [0.5, 0.6, 0.7, 0.8]
        monkeypatch.setattr(IncrementalComponentSampler, "draw", None)
        tables = [closed_cycle(probs, SamplerConfig(samples=16, master_seed=s))[2].reach for s in range(3)]
        assert tables[0] == tables[1] == tables[2]


class TestBoundPropagation:
    def test_nested_cycle_bounds_multiply(self):
        # Triangle {3,4} hangs off vertex 2 of the root cycle {1,2}: each
        # nested vertex bound is the product of its own table bound and the
        # anchor vertex's bound from the outer table.  7 worlds are fewer
        # than a triangle's 2^3, so both tables are drawn.
        g = ProbabilisticGraph.build(
            5,
            [(0, 1, 0.6), (1, 2, 0.7), (0, 2, 0.5), (2, 3, 0.6), (3, 4, 0.7), (2, 4, 0.5)],
            weights=[0.0, 0.0, 0.0, 0.0, 1.0],
        )
        cfg = SamplerConfig(samples=7, master_seed=8)
        tree = new_ftree(0)
        for e in g.edges:
            tree.insert_edge(g, e, cfg)
        tree.verify(g)
        outer = next(
            c for c in tree.components.values()
            if isinstance(c, BiComponent) and c.articulation == 0
        )
        inner = next(
            c for c in tree.components.values()
            if isinstance(c, BiComponent) and c.articulation == 2
        )
        assert inner.reach.sample_count == outer.reach.sample_count == cfg.samples
        est = tree.expected_flow(g)
        assert est.lb < est.mean < est.ub
        lo = inner.reach.rows[4][1] * outer.reach.rows[2][1]
        hi = inner.reach.rows[4][2] * outer.reach.rows[2][2]
        mid = inner.reach.rows[4][0] * outer.reach.rows[2][0]
        assert est.mean == pytest.approx(mid, abs=1e-12)
        assert est.lb == pytest.approx(lo, abs=1e-12)
        assert est.ub == pytest.approx(hi, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_insertion_invariants_hold_for_any_seed(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    max_extra = n * (n - 1) // 2 - (n - 1)
    g = random_connected_graph(rng, n, rng.randint(0, max_extra))
    cfg = SamplerConfig(samples=4, master_seed=seed)
    tree = new_ftree(0)
    for e in insertable_order(g, rng):
        tree.insert_edge(g, e, cfg)
        tree.verify(g)
    assert tree.selected_edges == set(g.edges)


STRUCTURE_DIGEST = "59abb3fcfec4e3f665547c30e0b19da1bac2c489f4ebeaab83c605cefbd3dd22"
STRUCTURE_CASE_COUNTS = {
    "IIa": 1050, "IIb": 241, "IIIa": 787, "IIIb": 205, "IVb": 107, "IVc-composite": 355,
}


def structure_digest(graphs: int) -> tuple[str, dict[str, int]]:
    """sha256 over every insert of ``graphs`` seeded random graphs (all edges
    in random insertable order): the case taken, the dump, and each
    component's kind, articulation vertex, members and edges; plus the
    number of inserts per case."""
    import hashlib
    from collections import Counter

    rng = random.Random(2024)
    cfg = SamplerConfig(samples=4, master_seed=1)
    h = hashlib.sha256()
    counts: Counter[str] = Counter()
    for _ in range(graphs):
        n = rng.randint(3, 12)
        g = random_connected_graph(rng, n, rng.randint(0, min(n * (n - 1) // 2 - (n - 1), 2 * n)))
        tree = new_ftree(0)
        for e in insertable_order(g, rng):
            case = tree.insert_edge(g, e, cfg, defer_sampling=True).case_taken
            tree.verify(g)
            counts[case] += 1
            parts = []
            for comp in tree.components.values():
                if isinstance(comp, MonoComponent):
                    edges = sorted((m, a, repr(p)) for m, (a, p) in comp.parent_edges.items())
                else:
                    edges = sorted(comp.internal_edges)
                kind = type(comp).__name__
                parts.append(repr((kind, comp.articulation, sorted(comp.members), edges)))
            h.update(f"{e} {case}\n{tree.dump()}\n{sorted(parts)}\n".encode())
    return h.hexdigest(), dict(counts)


class TestStructuralInvariants:
    def test_randomized_insertions_hold_invariants(self):
        rng = random.Random(1009)
        cfg = SamplerConfig(samples=8, master_seed=5)
        for trial in range(40):
            g = random_connected_graph(rng, rng.randint(4, 14), rng.randint(0, 10))
            tree = new_ftree(0)
            for e in insertable_order(g, rng):
                tree.insert_edge(g, e, cfg)
                tree.verify(g)
            assert len(tree.selected_edges) == g.num_edges

    def test_random_orders_take_only_reachable_cases(self):
        # A linking insert always absorbs the component of an endpoint that
        # is a member, never only the articulation vertex, so it is labelled
        # IVb or IVc-composite; there is no plain IVa outcome.
        rng = random.Random(4242)
        cfg = SamplerConfig(samples=4, master_seed=3)
        allowed = {"IIa", "IIb", "IIIa", "IIIb", "IVb", "IVc-composite"}
        seen = set()
        for trial in range(60):
            n = rng.randint(3, 10)
            g = random_connected_graph(rng, n, rng.randint(0, n * (n - 1) // 2 - (n - 1)))
            tree = new_ftree(0)
            for e in insertable_order(g, rng):
                case = tree.insert_edge(g, e, cfg).case_taken
                assert case in allowed
                seen.add(case)
                tree.verify(g)
        assert seen == allowed

    @pytest.mark.pinned
    def test_structure_digest_is_pinned(self):
        # Every insert's case and resulting structure, hashed over a fixed
        # corpus, so a change to any structural rule shows here.  Component
        # ids are left out: which id a cycle's bi component takes is free.
        digest, counts = structure_digest(200)
        assert counts == STRUCTURE_CASE_COUNTS
        assert digest == STRUCTURE_DIGEST

    def test_selected_edges_grow_by_one(self):
        rng = random.Random(77)
        g = random_connected_graph(rng, 8, 5)
        tree = new_ftree(0)
        cfg = SamplerConfig(samples=8, master_seed=6)
        for i, e in enumerate(insertable_order(g, rng), start=1):
            tree.insert_edge(g, e, cfg)
            assert len(tree.selected_edges) == i


class TestDump:
    def test_running_example_layout(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        assert tree.dump(g) == "\n".join(
            [
                "0 MONO AV=Q V={1,2,3,6} children=[1,2]",
                "1 BI AV=3 V={4,5} children=[]",
                "2 BI AV=6 V={7,8,9} children=[3,5]",
                "3 BI AV=9 V={10,11} children=[4]",
                "4 MONO AV=11 V={12} children=[]",
                "5 MONO AV=9 V={13,14,15,16} children=[]",
            ]
        )
