"""Component-tree structure, insertion cases, and flow evaluation."""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probflow import (
    BiComponent,
    DirtyComponentError,
    FTreeError,
    MemoStore,
    MonoComponent,
    ProbabilisticGraph,
    SamplerConfig,
    candidate_edges,
    exact_expected_flow,
    expected_flow_of_edges,
    new_ftree,
    normal_quantile,
)
from probflow.sampling import CI_BATCH
from util import (
    BASE_ORDER,
    WALKTHROUGH_EDGES,
    insertable_order,
    random_connected_graph,
    random_tree,
    running_example_graph,
)

CFG = SamplerConfig(samples=2000, master_seed=17)


def build_base_tree(graph, cfg=CFG):
    tree = new_ftree(0)
    for e in BASE_ORDER:
        tree.insert_edge(graph, e, cfg)
    return tree


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
        report = tree.insert_edge(g, (6, 8), CFG)
        assert report.case_taken == "IIIa"
        assert len(report.components_resampled) == 1
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
        "links do not form a single tree": lambda t: setattr(owner(t, 10), "articulation", 12),
        "cycle inside a mono component":
            lambda t: owner(t, 15).parent_edges.update({15: (16, 0.5)}),
        "mono path escapes the component":
            lambda t: owner(t, 16).parent_edges.update({16: (7, 0.5)}),
        "bi component smaller than three vertices": lambda t: drop_member(t, 5),
        "cut vertex or is disconnected": lambda t: owner(t, 7).internal_edges.discard((6, 9)),
        "internal edge escapes the component": lambda t: owner(t, 4).internal_edges.add((4, 17)),
        "component edge (7, 9) not in graph": lambda t: owner(t, 7).internal_edges.add((7, 9)),
        "reach table does not cover the members":
            lambda t: setattr(owner(t, 4), "reach", replace(owner(t, 4).reach, probs={4: 0.5})),
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
        g = running_example_graph()
        tree = build_base_tree(g)
        est = tree.expected_flow(g)
        assert est.samples_used == CFG.samples
        assert [type(x) for x in (est.mean, est.lb, est.ub)] == [float] * 3
        _, bis = components_by_kind(tree)
        assert {type(p) for c in bis.values() for p in c.reach.probs.values()} == {float}

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
        rng = random.Random(13)
        cfg = SamplerConfig(samples=10000, master_seed=41)
        z = normal_quantile(1 - cfg.alpha / 2)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(4, 7), rng.randint(1, 4))
            tree = new_ftree(0)
            for e in insertable_order(g, rng):
                tree.insert_edge(g, e, cfg)
            tree.verify(g)
            est = tree.expected_flow(g)
            oracle = exact_expected_flow(g, 0)
            stderr = (est.ub - est.lb) / (2 * z)
            assert abs(est.mean - oracle) <= 4 * max(stderr, 1e-9)

    def test_order_robustness_against_oracle(self):
        rng = random.Random(47)
        cfg = SamplerConfig(samples=20000, master_seed=3)
        z = normal_quantile(1 - cfg.alpha / 2)
        g = random_connected_graph(rng, 7, 4)
        oracle = exact_expected_flow(g, 0)
        for order_seed in range(4):
            order = insertable_order(g, random.Random(order_seed))
            tree = new_ftree(0)
            for e in order:
                tree.insert_edge(g, e, cfg)
            tree.verify(g)
            assert set(tree.selected_edges) == set(g.edges)
            est = tree.expected_flow(g)
            stderr = (est.ub - est.lb) / (2 * z)
            assert abs(est.mean - oracle) <= 4 * max(stderr, 1e-9)


class TestProbe:
    def test_probe_then_insert_identical(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        est, report = tree.probe_edge(g, (14, 15), CFG)
        tree.insert_edge(g, (14, 15), CFG)
        assert tree.expected_flow(g) == est

    def test_probe_does_not_mutate(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        before_dump = tree.dump(g)
        before_est = tree.expected_flow(g)
        tree.probe_edge(g, (11, 15), CFG)
        assert tree.dump(g) == before_dump
        assert tree.expected_flow(g) == before_est

    def test_probes_of_every_candidate_do_not_mutate(self):
        # A leaf probe reads the base tree's kept evaluation and a cycle
        # probe works on a copy; either way each probe, plain and stop-
        # checked, gives what an insert into a copy gives and leaves the
        # base tree's structure, tables and evaluation exactly as they were.
        rng = random.Random(2024)
        cfg = SamplerConfig(samples=300, master_seed=12)
        cases = set()
        for trial in range(12):
            n = rng.randint(5, 11)
            g = random_connected_graph(rng, n, rng.randint(2, n))
            order = insertable_order(g, rng)
            memo = MemoStore() if trial % 2 else None
            tree = new_ftree(0)
            for e in order[: rng.randint(1, len(order) - 1)]:
                tree.insert_edge(g, e, cfg, memo)
            before = snapshot(tree, g)
            for e in sorted(set(g.edges) - tree.selected_edges):
                if not (tree.is_attached(e[0]) or tree.is_attached(e[1])):
                    continue
                probe = tree.copy()
                report = probe.insert_edge(g, e, cfg, memo)
                assert tree.probe_edge(g, e, cfg, memo) == (probe.expected_flow(g), report)
                stopped = tree.copy()
                report = stopped.insert_edge(g, e, cfg, memo, defer_sampling=True)
                est = stopped.refresh(g, cfg, memo, stop=lambda est: True)
                est = stopped.expected_flow(g) if est is None else est
                assert tree.probe_edge(g, e, cfg, memo, stop=lambda est: True) == (est, report)
                cases.add(report.case_taken)
            assert snapshot(tree, g) == before
        assert {"IIa", "IIb", "IIIa", "IIIb", "IVb"} <= cases

    @pytest.mark.parametrize("capacity", [4096, 2], ids=["default-memo", "evicting-memo"])
    def test_kept_probes_match_fresh_probes(self, capacity):
        # Before every commit each candidate is probed plain and stop-checked,
        # on the tree (which keeps cycle probes and replays leaves on them)
        # and on a copy of a twin tree fed the same calls with its own memo.
        # Estimates agree bit for bit, reports up to the trial's component
        # ids, and after every probe both memos hold the same keys in the
        # same LRU order.
        rng = random.Random(77)
        cfg = SamplerConfig(samples=300, master_seed=9)

        def stop(est):
            return int(est.mean * 1e6) % 3 == 0

        def same_report(a, b):
            assert (a.case_taken, a.edges_sampled_count, len(a.components_resampled)) == (
                b.case_taken, b.edges_sampled_count, len(b.components_resampled)
            )

        replays = 0
        for trial in range(25):
            n = rng.randint(5, 11)
            g = random_connected_graph(rng, n, rng.randint(2, 2 * n))
            memo, twin_memo = MemoStore(capacity), MemoStore(capacity)
            tree, twin = new_ftree(0), new_ftree(0)
            for e in insertable_order(g, rng):
                for c in candidate_edges(g, tree.attached_vertices(), tree.selected_edges):
                    for check in (None, stop):
                        kept = tree._trials.get(c)
                        replays += kept is not None and kept[2] < len(tree._leaves)
                        est, report = tree.probe_edge(g, c, cfg, memo, check)
                        twin_est, twin_report = twin.copy().probe_edge(g, c, cfg, twin_memo, check)
                        assert est == twin_est
                        same_report(report, twin_report)
                        assert list(memo._entries) == list(twin_memo._entries)
                same_report(tree.insert_edge(g, e, cfg, memo), twin.insert_edge(g, e, cfg, twin_memo))
                assert list(memo._entries) == list(twin_memo._entries)
                assert tree.expected_flow(g) == twin.expected_flow(g)
        assert replays > 100

    @pytest.mark.parametrize("use_memo, copies", [(True, 0), (False, 1)], ids=["memo", "no-memo"])
    def test_cycle_reprobe_after_leaf_commit_copies(self, monkeypatch, use_memo, copies):
        # A memoized re-probe of a cycle candidate after a leaf commit
        # replays the leaf on the kept trial instead of copying the tree.
        g = running_example_graph()
        tree = build_base_tree(g)
        memo = MemoStore() if use_memo else None
        first, _ = tree.probe_edge(g, (14, 15), CFG, memo)
        assert tree.insert_edge(g, (7, 17), CFG, memo).case_taken == "IIb"
        calls = []
        copy = type(tree).copy
        monkeypatch.setattr(type(tree), "copy", lambda self: calls.append(1) or copy(self))
        est, _ = tree.probe_edge(g, (14, 15), CFG, memo)
        assert len(calls) == copies
        assert est != first
        assert est == tree.copy().probe_edge(g, (14, 15), CFG, memo)[0]

    def test_leaf_probe_costs_nothing(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        _, report = tree.probe_edge(g, (7, 17), CFG)
        assert report.edges_sampled_count == 0
        assert report.components_resampled == ()


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
    return tree.dump(g), comps, links, tree.expected_flow(g), fresh_estimate(tree.copy(), g)


def fresh_estimate(tree, g):
    """The tree's flow evaluated from scratch, ignoring any kept evaluation."""
    tree._eval = None
    return tree.expected_flow(g)


class TestKeptEvaluation:
    """A tree's kept evaluation always equals a from-scratch evaluation."""

    CASES = {"IIa", "IIb", "IIIa", "IIIb", "IVb", "IVc-composite"}

    @staticmethod
    def stop_at(rounds):
        offered = []

        def stop(est):
            offered.append(est)
            return len(offered) == rounds

        return stop, offered

    @pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
    @pytest.mark.parametrize("stop_round", [None, 2, 99], ids=["plain", "stops", "never-stops"])
    def test_matches_replay_with_cache_cleared(self, memo, stop_round):
        rng = random.Random(808)
        cfg = SamplerConfig(samples=300, master_seed=4)
        seen = set()
        for trial in range(30):
            n = rng.randint(3, 10)
            g = random_connected_graph(rng, n, rng.randint(0, n * (n - 1) // 2 - (n - 1)))
            kept, replay = new_ftree(0), new_ftree(0)
            kept_memo, replay_memo = (MemoStore(), MemoStore()) if memo else (None, None)
            for e in insertable_order(g, rng):
                replay._eval = None
                if stop_round is None:
                    case = kept.insert_edge(g, e, cfg, kept_memo).case_taken
                    replay.insert_edge(g, e, cfg, replay_memo)
                else:
                    case = kept.insert_edge(g, e, cfg, kept_memo, defer_sampling=True).case_taken
                    replay.insert_edge(g, e, cfg, replay_memo, defer_sampling=True)
                    kept_stop, kept_offered = self.stop_at(stop_round)
                    replay_stop, replay_offered = self.stop_at(stop_round)
                    replay._eval = None
                    assert kept.refresh(g, cfg, kept_memo, kept_stop) == replay.refresh(
                        g, cfg, replay_memo, replay_stop
                    )
                    assert kept_offered == replay_offered
                seen.add(case)
                assert kept.expected_flow(g) == fresh_estimate(replay, g)
                assert kept.expected_flow(g) == fresh_estimate(kept.copy(), g)
        assert seen == self.CASES

    def test_leaf_insert_extends_without_evaluating(self, monkeypatch):
        g = running_example_graph()
        tree = build_base_tree(g)
        monkeypatch.setattr(type(tree), "_evaluate", None)
        trial = tree.copy()
        report = trial.insert_edge(g, (7, 17), CFG)
        assert report.case_taken == "IIb"
        monkeypatch.undo()
        assert trial.expected_flow(g) == fresh_estimate(trial.copy(), g)


class TestMemo:
    def test_store_then_lookup(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        memo = MemoStore()
        est1, _ = tree.probe_edge(g, (14, 15), CFG, memo=memo)
        assert len(memo) > 0
        est2, _ = tree.probe_edge(g, (14, 15), CFG, memo=memo)
        assert est1 == est2

    def test_added_edge_changes_signature(self):
        comp = BiComponent({1, 2}, 0, {(0, 1), (0, 2), (1, 2)})
        sig1 = comp.signature()
        comp.internal_edges.add((2, 3))
        assert comp.signature() != sig1

    def test_articulation_is_part_of_identity(self):
        a = BiComponent({1, 2}, 0, {(0, 1), (0, 2), (1, 2)})
        b = BiComponent({1, 2}, 3, {(0, 1), (0, 2), (1, 2)})
        assert a.signature() != b.signature()

    def test_lru_eviction(self):
        memo = MemoStore(capacity=2)
        from probflow import ReachTable

        t = ReachTable(articulation=0, probs={1: 0.5}, sample_count=10)
        memo.store("a", t)
        memo.store("b", t)
        memo.store("c", t)
        assert memo.lookup("a") is None
        assert memo.lookup("c") is t


class TestIncrementalSampling:
    @pytest.mark.parametrize("chunk_budget", [None, 40], ids=["one-chunk", "ten-world-chunks"])
    def test_prefix_tables_match_batched_draws(self, monkeypatch, chunk_budget):
        # A full-budget draw keeps every world, so the table of its first n
        # worlds is the table of a fresh sampler that drew n worlds, and
        # rows() gives each such table's rows element by element.  The full
        # draw may span many chunks.
        from probflow import sampling
        from probflow.ftree import IncrementalComponentSampler

        g = running_example_graph()
        comp = BiComponent({7, 8, 9}, 6, {(6, 7), (7, 8), (8, 9), (6, 9)})
        cfg = SamplerConfig(samples=1000, master_seed=99)
        sizes = range(CI_BATCH, cfg.samples + 1, CI_BATCH)
        expected = []
        for n in sizes:
            fresh = IncrementalComponentSampler(g, comp, cfg)
            fresh.draw(n)
            expected.append(fresh.table())
        if chunk_budget is not None:
            monkeypatch.setattr(sampling, "_CHUNK_BUDGET", chunk_budget)
        full = IncrementalComponentSampler(g, comp, cfg)
        full.draw(cfg.samples)
        rows = full.rows(sizes)
        for j, n in enumerate(sizes):
            table = full.table(n)
            assert table == expected[j]
            for v in comp.members:
                assert tuple(a[j] for a in rows[v]) == table.rows[v]
        with pytest.raises(FTreeError):
            full.table(cfg.samples + 1)


class TestRefreshStop:
    def trial(self, g):
        tree = build_base_tree(g)
        tree.insert_edge(g, (11, 15), CFG, defer_sampling=True)
        assert tree.dirty_components()
        return tree

    def test_stop_that_never_fires_matches_plain_refresh(self):
        g = running_example_graph()
        plain, batched = self.trial(g), self.trial(g)
        plain_memo, batched_memo = MemoStore(), MemoStore()
        offered = []
        assert plain.refresh(g, CFG, plain_memo) is None
        assert batched.refresh(g, CFG, batched_memo, stop=lambda est: offered.append(est) or False) is None
        assert len(offered) == CFG.samples // CI_BATCH
        assert offered[-1] == plain.expected_flow(g) == batched.expected_flow(g)
        _, plain_bis = components_by_kind(plain)
        _, batched_bis = components_by_kind(batched)
        assert {k: c.reach for k, c in plain_bis.items()} == {
            k: c.reach for k, c in batched_bis.items()
        }
        assert len(plain_memo) == len(batched_memo) > 0
        for comp in plain_bis.values():
            sig = comp.signature()
            assert batched_memo.lookup(sig) == plain_memo.lookup(sig)

    def test_stop_that_fires_returns_its_estimate_and_stores_nothing(self):
        g = running_example_graph()
        tree = self.trial(g)
        memo = MemoStore()
        offered = []

        def stop(est):
            offered.append(est)
            return len(offered) == 3

        est = tree.refresh(g, CFG, memo, stop)
        assert est is offered[-1]
        assert est.samples_used == 3 * CI_BATCH
        assert len(memo) == 0


class TestRoundEstimates:
    """Each estimate a stop-checked refresh offers equals a full evaluation
    of the tree carrying that round's tables."""

    @staticmethod
    def nesting(tree, memo, cfg):
        """How each component about to be sampled sits against clean sampled ones."""
        def clean_bi(cid):
            comp = tree.components[cid]
            return isinstance(comp, BiComponent) and not comp.dirty

        found = set()
        children = tree._children()
        for cid in tree.dirty_components():
            table = memo._entries.get(tree.components[cid].signature()) if memo else None
            if table is not None and table.sample_count >= cfg.samples:
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
        rng = random.Random(4242)
        cfg = SamplerConfig(samples=400, master_seed=8)
        rounds = cfg.samples // CI_BATCH
        cases, nesting = set(), set()
        for _ in range(25):
            n = rng.randint(5, 11)
            g = random_connected_graph(rng, n, rng.randint(n // 2, 2 * n))
            tree = new_ftree(0)
            store = MemoStore() if memo else None
            for e in insertable_order(g, rng):
                base = tree.copy()
                case = base.insert_edge(g, e, cfg, defer_sampling=True).case_taken
                if base.dirty_components():
                    cases.add(case)
                    nesting |= self.nesting(base, store, cfg)
                stopped_at = []
                for stop_round in range(1, rounds + 1):
                    stopped = base.copy()
                    offered = []
                    est = stopped.refresh(
                        g, cfg, store, lambda est: offered.append(est) or len(offered) == stop_round
                    )
                    if est is None:
                        assert offered == []  # nothing left to sample
                        continue
                    assert est is offered[-1] and len(offered) == stop_round
                    assert est.samples_used == stop_round * CI_BATCH
                    assert est == fresh_estimate(stopped.copy(), g)
                    stopped_at.append(est)
                offered = []
                report = tree.insert_edge(g, e, cfg, store, defer_sampling=True)
                assert report.case_taken == case
                assert tree.refresh(g, cfg, store, lambda est: offered.append(est) or False) is None
                assert offered == stopped_at
                assert tree.expected_flow(g) == fresh_estimate(tree.copy(), g)
        assert {"IIIa", "IIIb", "IVb", "IVc-composite"} <= cases
        assert nesting == {"under", "above"}


class TestBoundPropagation:
    def test_nested_cycle_bounds_multiply(self):
        # Triangle {3,4} hangs off vertex 2 of the root cycle {1,2}: each
        # nested vertex bound is the product of its own table bound and the
        # anchor vertex's bound from the outer table.
        g = ProbabilisticGraph.build(
            5,
            [(0, 1, 0.6), (1, 2, 0.7), (0, 2, 0.5), (2, 3, 0.6), (3, 4, 0.7), (2, 4, 0.5)],
            weights=[0.0, 0.0, 0.0, 0.0, 1.0],
        )
        cfg = SamplerConfig(samples=5000, master_seed=8)
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
        est = tree.expected_flow(g)
        lo = inner.reach.rows[4][1] * outer.reach.rows[2][1]
        hi = inner.reach.rows[4][2] * outer.reach.rows[2][2]
        mid = inner.reach.probs[4] * outer.reach.probs[2]
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
