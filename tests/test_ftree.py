"""Component-tree structure, insertion cases, and flow evaluation."""

from __future__ import annotations

import math
import random
import re
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probflow import (
    EXACT_SAMPLES,
    BiComponent,
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
from probflow.sampling import WorldStore
from util import (
    BASE_ORDER,
    WALKTHROUGH_EDGES,
    comp_key,
    drawn_table,
    insertable_order,
    long_cycle_graph,
    long_ring_graph,
    planned_ring,
    random_connected_graph,
    random_tree,
    reference_ring_estimate,
    replay_tree,
    ring_chain_graph,
    running_example_graph,
)

CFG = SamplerConfig(samples=2000, master_seed=17)


def build_base_tree(graph, cfg=CFG, memo=False):
    """The running example's base tree, evaluated, so its tables are built."""
    tree = new_ftree(0, memo)
    for e in BASE_ORDER:
        tree.insert_edge(graph, e, cfg)
    tree.expected_flow(graph)
    return tree


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

    @pytest.mark.parametrize("memo", ["no", 1, None], ids=["text", "int", "none"])
    def test_a_memo_that_is_not_a_bool_is_refused(self, memo):
        # Any truthy value would build a memo tree.
        for build in (FTree, new_ftree):
            with pytest.raises(FTreeError, match=re.escape(f"memo must be a bool, not {memo!r}")):
                build(0, memo)

    @pytest.mark.parametrize("q", [-1, -7])
    def test_a_negative_query_vertex_is_refused(self, q):
        # No graph has a vertex -1, so the tree refuses it when it is built,
        # not at the first graph it is given.
        for build in (FTree, new_ftree):
            with pytest.raises(FTreeError, match=re.escape(f"q must be non-negative, got {q}")):
                build(q)

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
        cfg = SamplerConfig(samples=100000, master_seed=3)
        tree = new_ftree(0)
        tree.insert_edge(g, (0, 1), cfg)
        tree.insert_edge(g, (1, 2), cfg)
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

    @pytest.mark.parametrize("cfg", [None, {"samples": 2000}, 2000], ids=["none", "dict", "int"])
    def test_a_config_that_is_not_a_sampler_config_is_refused(self, cfg):
        # As a first insert's config, or after one: refused, naming ``cfg``,
        # before the tree changes, so the tree goes on under ``CFG``.
        g = running_example_graph()
        tree = new_ftree(0)
        with pytest.raises(FTreeError, match="cfg must be a SamplerConfig"):
            tree.insert_edge(g, BASE_ORDER[0], cfg)
        assert (tree._graph, tree._store, tree.selected_edges) == (None, None, set())
        for e in BASE_ORDER:
            tree.insert_edge(g, e, CFG)
        before = snapshot(tree, g)
        with pytest.raises(FTreeError, match="cfg must be a SamplerConfig"):
            tree.insert_edge(g, (14, 15), cfg)
        assert snapshot(tree, g) == before
        plain = build_base_tree(g)
        assert tree.insert_edge(g, (14, 15), CFG) == plain.insert_edge(g, (14, 15), CFG)
        assert tree.expected_flow(g) == plain.expected_flow(g)

    @pytest.mark.parametrize(
        "edge", [None, 5, (), (0, 1, 2), (0, "x"), (True, 2)],
        ids=["none", "int", "empty", "triple", "text", "bool"],
    )
    def test_a_malformed_edge_is_refused(self, edge):
        # Inserts and probes take a pair of integers only: anything else is
        # refused, naming it, by a fresh tree and by a grown one, which
        # stays as it was.
        g = running_example_graph()
        message = re.escape(f"edge {edge!r} is not a pair of vertex ids")
        fresh, tree = new_ftree(0), build_base_tree(g)
        before = snapshot(tree, g)
        for target in (fresh, tree):
            with pytest.raises(FTreeError, match=message):
                target.insert_edge(g, edge, CFG)
            with pytest.raises(FTreeError, match=message):
                target.probe_edge(g, edge)
        assert fresh.selected_edges == set() and snapshot(tree, g) == before


def complete_graph(n):
    return ProbabilisticGraph.build(n, [(u, v, 0.5) for u in range(n) for v in range(u + 1, n)])


class TestCycleCases:
    """A cycle's case is read where its two climbs meet: several parts are
    IVc-composite only if a mono part lies below the meeting component."""

    @pytest.mark.parametrize(
        "n, inserts, cases, dump",
        [
            # (1,3) meets at the query vertex; the climbs end in the bi
            # component {1,2} and in the root, so they meet in the root,
            # which owns the query vertex: its mono part is not below.
            (6, [(0, 3), (0, 1), (1, 2), (0, 2), (1, 3)],
             ["IIa", "IIa", "IIa", "IIIb", "IVb"],
             "0 BI AV=0 V={1,2,3} children=[]"),
            # (1,5): both climbs end in the bi component {1,2}, and the
            # mono component {5} hangs below it.
            (6, [(0, 3), (0, 1), (1, 2), (0, 2), (2, 5), (1, 5)],
             ["IIa", "IIa", "IIa", "IIIb", "IIb", "IVc-composite"],
             "0 MONO AV=0 V={3} children=[1]\n1 BI AV=0 V={1,2,5} children=[]"),
            # (0,3) closes a mono path (IIIb), (1,3) a chord of its ring (IIIa).
            (6, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)],
             ["IIa", "IIa", "IIa", "IIIb", "IIIa"],
             "0 BI AV=0 V={1,2,3} children=[]"),
            # (4,6) meets at 2, the articulation vertex of the mono component
            # {3,4} that both climbs end in; 2 itself is owned by the bi
            # component {1,2}.  The meeting component is {3,4}, so taking
            # the component owning the meeting vertex would count {3,4} as
            # below it and label this IVb insert IVc-composite.
            (7, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (5, 6), (3, 6), (0, 2), (4, 6)],
             ["IIa"] * 6 + ["IIIb", "IIIb", "IVb"],
             "0 BI AV=0 V={1,2} children=[1]\n1 BI AV=2 V={3,4,5,6} children=[]"),
        ],
        ids=["IVb-root-meets", "IVc-mono-below", "IIIb-IIIa", "IVb-articulation-meets"],
    )
    def test_case_is_read_at_the_meeting_component(self, n, inserts, cases, dump):
        g, tree = complete_graph(n), new_ftree(0)
        assert [tree.insert_edge(g, e, CFG).case_taken for e in inserts] == cases
        assert tree.dump() == dump
        tree.verify(g)

    def test_mono_grouping_follows_insert_order(self):
        # The same edges in two orders: leaves hung off a bi member form
        # one mono component each (IIb), while leaves a cycle split off
        # together stay in one.  So mono components are not a function of
        # where each vertex hangs.
        g = complete_graph(5)
        dumps = []
        for order in ([(0, 1), (1, 2), (0, 2), (2, 3), (2, 4)], [(0, 1), (1, 2), (2, 3), (2, 4), (0, 2)]):
            tree = new_ftree(0)
            for e in order:
                tree.insert_edge(g, e, CFG)
            dumps.append(tree.dump())
        assert dumps == [
            "0 BI AV=0 V={1,2} children=[1,2]\n1 MONO AV=2 V={3} children=[]\n2 MONO AV=2 V={4} children=[]",
            "0 BI AV=0 V={1,2} children=[1]\n1 MONO AV=2 V={3,4} children=[]",
        ]


class TestFoldInPlace:
    """A cycle commit folds into the bi part that drains through the
    vertex where its climbs meet, if there is one: that component stays
    the same object under the same id, and only the vertices it gains are
    re-pointed to it."""

    def test_chord_grows_its_component_in_place(self):
        # (6, 8) is a chord of the four-cycle {7, 8, 9} hanging off 6 (IIIa).
        g = running_example_graph()
        tree = build_base_tree(g)
        cid = tree.vertex_index[7]
        comp = tree.components[cid]
        members, edges, index = set(comp.members), set(comp.internal_edges), dict(tree.vertex_index)
        assert tree.insert_edge(g, (6, 8), CFG).case_taken == "IIIa"
        assert tree.components[cid] is comp
        assert comp.members == members and comp.articulation == 6
        assert comp.internal_edges == edges | {(6, 8)}
        assert comp.reach is None  # the next evaluation builds the grown table
        assert list(tree.vertex_index.items()) == list(index.items())
        tree.verify(g)

    def test_cross_component_cycle_grows_the_bi_part_at_its_meeting_vertex(self):
        # (11, 15) climbs from 11 through the triangle {10, 11} and from 15
        # through the mono path 15, 13; both meet at 9, which the triangle
        # drains through.  The triangle gains 13 and 15, and the mono
        # members the path cut off, 14 and 16, regroup into new components.
        g = running_example_graph()
        tree = build_base_tree(g)
        cid = tree.vertex_index[10]
        comp, before = tree.components[cid], dict(tree.vertex_index)
        assert tree.insert_edge(g, (11, 15), CFG).case_taken in ("IVb", "IVc-composite")
        assert tree.components[cid] is comp
        assert comp.members == {10, 11, 13, 15} and comp.articulation == 9
        moved = {v: c for v, c in tree.vertex_index.items() if before[v] != c}
        assert {v for v, c in moved.items() if c == cid} == {13, 15}
        assert set(moved) == {13, 14, 15, 16}
        assert all(c not in before.values() for v, c in moved.items() if v in (14, 16))
        tree.verify(g)

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_commits_repoint_only_what_changes_component(self, use_memo):
        # Random graphs in random insertion orders, some cycle candidates
        # probed before each insert.  At every cycle commit, the committed
        # component is the bi part draining through the plan's meeting
        # vertex, the same object under the same id, if there is one, and
        # a new component otherwise.  The index entries that change are
        # exactly its gained members' and those of the mono members the
        # commit regroups into new components.  The tree's dump equals a
        # fresh replay's after every insert.
        rng = random.Random(8081)
        cfg = SamplerConfig(samples=40, master_seed=5)
        grown = {"IIIa": 0, "IVb": 0, "IVc-composite": 0}
        for _ in range(40):
            n = rng.randint(6, 14)
            g = random_connected_graph(rng, n, rng.randint(2, 2 * n))
            tree, inserted = new_ftree(0, use_memo), []
            for e in insertable_order(g, rng):
                for c in tree.cycle_candidates(g)[:3]:
                    tree.probe_edge(g, c)
                cycle = tree.is_attached(e[0]) and tree.is_attached(e[1])
                if cycle:
                    parts, _, w, _ = tree._plan_cycle(*e)
                    comps, index = dict(tree.components), dict(tree.vertex_index)
                    drains = [c for c in parts if isinstance(comps[c], BiComponent) and comps[c].articulation == w]
                    old = set(comps[drains[0]].members) if drains else set()
                case = tree.insert_edge(g, e, cfg).case_taken
                inserted.append(e)
                assert tree.dump() == replay_tree(g, inserted, cfg, use_memo).dump()
                if not cycle:
                    continue
                [cid] = [c for c, comp in tree.components.items() if e in getattr(comp, "internal_edges", ())]
                comp = tree.components[cid]
                if drains:
                    assert cid == drains[0] and comp is comps[cid]
                    grown[case] = grown.get(case, 0) + 1
                else:
                    assert cid not in comps
                moved = {v: c for v, c in tree.vertex_index.items() if index[v] != c}
                assert old <= comp.members
                assert {v for v, c in moved.items() if c == cid} == comp.members - old
                assert all(c not in comps for c in moved.values() if c != cid)
                tree.verify(g)
        assert min(grown.values()) > 5


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
        assert report.edges_sampled_count == 5  # the four-cycle plus the chord
        _, bis = components_by_kind(tree)
        assert [len(c.internal_edges) for c in bis.values() if c.reach is None] == [5]
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
        report = tree.insert_edge(g, (14, 15), CFG)
        assert report.case_taken == "IIIb"
        _, bis = components_by_kind(tree)
        bi = bis[frozenset({14, 15})]
        assert bi.articulation == 13
        assert bi.internal_edges == {(13, 14), (13, 15), (14, 15)}
        assert bi.reach is None
        tree.refresh()
        assert bi.reach is not None
        tree.verify(g)


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
        # 4 and 7 trade attach positions: evaluation would meet 7 before 6.
        "attach positions disagree with the vertex index order":
            lambda t: t._pos.update({4: t._pos[7], 7: t._pos[4]}),
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

    def test_evaluation_builds_the_table_a_cycle_insert_left_out(self):
        g = ProbabilisticGraph.build(
            3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)]
        )
        tree = new_ftree(0)
        tree.insert_edge(g, (0, 1), CFG)
        tree.insert_edge(g, (1, 2), CFG)
        tree.insert_edge(g, (0, 2), CFG)
        [bi] = components_by_kind(tree)[1].values()
        assert bi.reach is None
        est = tree.expected_flow(g)
        assert bi.reach is not None and bi.reach.sample_count == EXACT_SAMPLES
        assert est.mean == est.lb == est.ub == pytest.approx(exact_expected_flow(g, 0), abs=1e-12)

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
        # grown tree.  They agree up to rounding, and the insert reports the
        # cost the probe gave.
        g = running_example_graph()
        tree = build_base_tree(g)
        est, cost = tree.probe_edge(g, (14, 15))
        assert tree.insert_edge(g, (14, 15), CFG) == InsertReport("IIIb", cost)
        assert_close(est, tree.expected_flow(g))

    def test_probe_does_not_mutate(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        before_dump = tree.dump(g)
        before_est = tree.expected_flow(g)
        tree.probe_edge(g, (11, 15))
        assert tree.dump(g) == before_dump
        assert tree.expected_flow(g) == before_est

    def test_probes_of_every_candidate_do_not_mutate(self):
        # Each probe, first or repeated, leaves the tree's structure, tables
        # and evaluation exactly as they were.  A leaf probe raises:
        # ``leaf_terms`` scores leaves, and test_frontier_matches_full_evaluations
        # checks them against grown copies.  A cycle probe
        # agrees with an insert into a copy up to rounding and gives the cost
        # that insert reports, and a repeated probe returns what the first
        # returned.  Every bi component has at least 9 edges
        # (``long_ring_graph``), so every table is drawn (2^9 > 300).
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
                        tree.probe_edge(g, e)
                    cases.add(tree.copy().insert_edge(g, e, cfg).case_taken)
                    continue
                first = tree.probe_edge(g, e)
                probe = tree.copy()
                report = probe.insert_edge(g, e, cfg)
                est, cost = tree.probe_edge(g, e)
                assert report.edges_sampled_count == cost
                assert_close(est, probe.expected_flow(g))
                assert est.samples_used == cfg.samples
                assert first == (est, cost)
                cases.add(report.case_taken)
            assert snapshot(tree, g) == before
        assert {"IIa", "IIb", "IIIa", "IIIb", "IVb"} <= cases

    def test_kept_probes_match_fresh_probes(self):
        self.check_kept_probes_match_fresh_probes(use_memo=True)

    def test_memo_less_kept_probes_match_fresh_probes(self):
        self.check_kept_probes_match_fresh_probes(use_memo=False)

    @staticmethod
    def check_kept_probes_match_fresh_probes(use_memo):
        # Before every commit each cycle candidate is probed twice, on the
        # tree (which keeps cycle probes and scores them again over the
        # current masses) and on a fresh copy of a twin tree fed the same
        # inserts and no probes.  Estimates and reports agree bit for bit.
        # After every probe a memo tree's ring holds the table the copy's
        # fresh ring holds.  Each leaf's estimate from ``leaf_terms`` agrees
        # too.  Every commit, which on the tree drops its probe's ring (and
        # in a memo tree adopts its table), reports and evaluates as the
        # twin's unprobed commit does.
        # Without a memo each candidate is probed twice more, so a drawn
        # ring's kept sampler builds its table again many times.
        rng = random.Random(77)
        cfg = SamplerConfig(samples=300, master_seed=9)
        probes = 2 if use_memo else 4
        rescored = redrawn = 0
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
                    for probe in range(probes):
                        ring = tree._rings.get(c)
                        # Kept before the last commit, which was a leaf.
                        rescored += probe % 2 == 0 and after_leaf and ring is not None
                        sampler = ring and ring.sampler  # prepared at its first build
                        redrawn += not use_memo and sampler is not None and not sampler.exact
                        got = tree.probe_edge(g, c)
                        copy = twin.copy()
                        assert got == copy.probe_edge(g, c)
                        if use_memo:
                            assert tree._rings[c].scored[0] == copy._rings[c].scored[0]
                after_leaf = not (tree.is_attached(e[0]) and tree.is_attached(e[1]))
                assert tree.insert_edge(g, e, cfg) == twin.insert_edge(g, e, cfg)
                assert e not in tree._rings
                assert tree.expected_flow(g) == twin.expected_flow(g)
        assert rescored > 100
        assert use_memo or redrawn > 100

    @pytest.mark.parametrize("use_memo", [True, False], ids=["memo", "no-memo"])
    def test_cycle_reprobe_after_leaf_commit_copies(self, monkeypatch, use_memo):
        # No probe copies the tree: a re-probe of a cycle candidate after a
        # leaf commit scores the ring over the new masses, memoized or not,
        # and gives what a fresh probe of a copy gives, bit for bit.
        g = running_example_graph()
        tree = build_base_tree(g, memo=use_memo)
        first = tree.probe_edge(g, (14, 15))[0]
        assert tree.insert_edge(g, (7, 17), CFG).case_taken == "IIb"
        calls = []
        copy = type(tree).copy
        monkeypatch.setattr(type(tree), "copy", lambda self: calls.append(1) or copy(self))
        est = tree.probe_edge(g, (14, 15))[0]
        assert calls == []
        assert est != first
        assert est == tree.copy().probe_edge(g, (14, 15))[0]

    @pytest.mark.pinned
    def test_memo_less_reprobes_match_fresh_probes(self, monkeypatch):
        # Random graphs in random insertion orders, no memo.  Before every
        # commit each cycle candidate is probed, and the tree keeps its ring.
        # After every leaf commit each kept candidate is probed again (after
        # a cycle commit, see test_kept_rings_are_those_the_commit_misses),
        # twice: each returns what a fresh probe of a copy returns, bit for
        # bit.  Every memo-less cycle probe, first, kept, fresh or after a
        # re-probe, builds its table exactly once (one draw or one
        # enumeration); a kept ring keeps no full table.  Graphs of up to
        # 14 vertices give rings both enumerated (2^m <= 300) and drawn.
        built = count_builds(monkeypatch)

        def probe(tree, c):
            tree.expected_flow(g)  # builds the table the last cycle commit left out
            before = len(built)
            result = tree.probe_edge(g, c)
            assert len(built) == before + 1
            return result

        rng = random.Random(2718)
        cfg = SamplerConfig(samples=300, master_seed=31)
        reprobed = after_reprobe = 0
        for trial in range(25):
            n = rng.randint(6, 14)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n))
            tree, again = new_ftree(0), set()  # again: the rings re-probed after the last commit
            for e in insertable_order(g, rng):
                cycles = [c for c in tree.candidates(g) if tree.is_attached(c[0]) and tree.is_attached(c[1])]
                for c in cycles:
                    after_reprobe += c in again
                    probe(tree, c)
                again.clear()
                leaf = not (tree.is_attached(e[0]) and tree.is_attached(e[1]))
                tree.insert_edge(g, e, cfg)
                if not leaf:
                    continue
                for c in cycles:
                    if c == e:
                        continue
                    assert tree._rings[c].scored is None
                    for _ in range(2):
                        assert probe(tree, c) == probe(tree.copy(), c)
                    again.add(c)
                    reprobed += 1
        assert reprobed > 200 and after_reprobe > 50
        assert {"draw", "exact"} <= set(built)

    @pytest.mark.pinned
    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_kept_rings_are_those_the_commit_misses(self, monkeypatch, use_memo):
        # Random graphs in random insertion orders: sparse ones, whose long
        # mono paths a commit often shares with a ring without taking any
        # of its members, and geometric ones, whose cycles are local.
        # Before every commit each cycle candidate is probed.  After every
        # cycle commit the kept rings are exactly the probed rings whose
        # members the new component misses, each the same ring as before,
        # and every dropped ring's component has changed.  Each kept ring's
        # members (in attach order), articulation and edges are what a fresh
        # plan of its edge gives, and its re-probe equals a probe of a tree
        # rebuilt by replaying the inserts, bit for bit; in a memo tree it
        # builds nothing, and its table and coefficients are those the
        # replay's probe makes.  Some kept rings shared a mono part with the
        # commit, which took some of that part's vertices.  Rings are both
        # enumerated (2^m <= 30) and drawn.
        built = count_builds(monkeypatch)
        rng = random.Random(4711)
        cfg = SamplerConfig(samples=30, master_seed=19)
        kept_count = shared = dropped = 0
        exact = set()  # whether kept rings' tables were exact
        for trial in range(60):
            n = rng.randint(10, 18)
            if trial % 2:
                g = netgen.gen_wsn(n, 0.4, rng.randrange(1000))
            else:
                g = random_connected_graph(rng, n, rng.randint(2, n))
            tree, inserted = new_ftree(0, use_memo), []
            for e in insertable_order(g, rng):
                for c in tree.cycle_candidates(g):
                    tree.probe_edge(g, c)
                cycle = tree.is_attached(e[0]) and tree.is_attached(e[1])
                if cycle:
                    monos = {cid for cid, c in tree.components.items() if isinstance(c, MonoComponent)}
                    taken = set(planned_ring(tree, e)[0])
                    parts = {c: set(planned_ring(tree, c)[0]) for c in tree._rings}
                    rings = dict(tree._rings)
                tree.insert_edge(g, e, cfg)
                inserted.append(e)
                if not cycle:
                    continue
                [new] = [
                    c for c in tree.components.values() if isinstance(c, BiComponent) and e in c.internal_edges
                ]
                missed = {c for c, r in rings.items() if r.comp.members.isdisjoint(new.members)}
                assert set(tree._rings) == missed
                tree.expected_flow(g)  # the kept evaluation gives attach positions
                replay = replay_tree(g, inserted, cfg, use_memo)
                for c, ring in rings.items():
                    if c == e:
                        continue
                    _, comp, members = planned_ring(tree, c)
                    if c not in tree._rings:
                        assert (comp.articulation, comp.internal_edges) != (
                            ring.comp.articulation, ring.comp.internal_edges
                        )
                        dropped += 1
                        continue
                    assert tree._rings[c] is ring
                    assert (ring.comp.members, ring.comp.articulation, ring.comp.internal_edges) == (
                        comp.members, comp.articulation, comp.internal_edges
                    )
                    assert ring.members == members
                    before = len(built)
                    got = tree.probe_edge(g, c)
                    assert len(built) == before + (not use_memo)
                    assert got == replay.probe_edge(g, c)
                    if use_memo:
                        table, coeffs = ring.scored
                        assert table == replay._rings[c].scored[0]
                        assert coeffs == tree._coefficients(ring.members, table.rows)
                        exact.add(table.sample_count == EXACT_SAMPLES)
                    else:
                        exact.add(ring.sampler.exact)
                    common = parts[c] & taken  # a bi part is taken whole, with its members
                    assert common <= monos
                    shared += bool(common)
                    kept_count += 1
        assert kept_count > 400 and shared > 50 and dropped > 2000
        assert exact == {True, False}

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_probed_commit_reuses_its_probes_ring(self, monkeypatch, use_memo):
        # Random graphs in random insertion orders.  Before most commits
        # every cycle candidate is probed.  Every cycle commit plans its
        # cycle once, and in a memo tree the new component adopts the table
        # its edge's ring holds, if the edge was probed.  No ring of the
        # committed edge stays.  Either way the tree then equals a fresh
        # replay of the same inserts bit for bit: its dump, each bi
        # component's table rows and world count, its estimate and the
        # commit's report.  Graphs of up to 12 vertices give rings both
        # enumerated (2^m <= 300) and drawn.
        calls = []
        plan = FTree._plan_cycle
        monkeypatch.setattr(FTree, "_plan_cycle", lambda *a: calls.append("plan") or plan(*a))

        def tables(tree):
            return {
                comp_key(c): ({v: hexed(r) for v, r in c.reach.rows.items()}, c.reach.sample_count)
                for c in tree.components.values() if isinstance(c, BiComponent)
            }

        rng = random.Random(9091)
        cfg = SamplerConfig(samples=300, master_seed=13)
        commits = {True: 0, False: 0}  # cycle commits, by whether the edge's ring was kept
        for trial in range(25):
            n = rng.randint(5, 12)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n))
            tree, inserted = new_ftree(0, use_memo), []
            for e in insertable_order(g, rng):
                if rng.random() < 0.7:
                    for c in tree.cycle_candidates(g):
                        tree.probe_edge(g, c)
                cycle = tree.is_attached(e[0]) and tree.is_attached(e[1])
                ring = tree._rings.get(e)
                calls.clear()
                report = tree.insert_edge(g, e, cfg)
                assert e not in tree._rings
                if cycle:
                    assert calls == ["plan"]
                    commits[ring is not None] += 1
                    if use_memo and ring is not None:
                        [comp] = [
                            c for c in tree.components.values()
                            if isinstance(c, BiComponent) and e in c.internal_edges
                        ]
                        assert comp.reach is ring.scored[0]
                replay = replay_tree(g, inserted, cfg, use_memo)
                assert replay.insert_edge(g, e, cfg) == report
                inserted.append(e)
                assert tree.dump(g) == replay.dump(g)
                est, ref = tree.expected_flow(g), replay.expected_flow(g)
                assert tables(tree) == tables(replay)
                assert hexed((est.mean, est.lb, est.ub)) == hexed((ref.mean, ref.lb, ref.ub))
                assert est.samples_used == ref.samples_used
        assert commits[True] > 100 and commits[False] > 20

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_probe_after_a_prune_draws_nothing(self, monkeypatch, use_memo):
        # Random trees grown edge by edge, every table drawn
        # (``long_ring_graph``).  Before every commit the cycle candidates
        # are probed and judged as ``_ci`` judges them: ``ci_prune`` over
        # their estimates and the best leaf's (``selection._probe_with_ci``).
        # After a leaf commit, which changes the masses, each ring pruned
        # there is probed again and returns the estimate and cost a probe
        # of a fresh copy returns, bit for bit.  A memo tree's ring keeps
        # the table its pruned probe built, so the next probe draws nothing.
        # A memo-less tree builds the table again, as for any probe.
        built = count_builds(monkeypatch)
        rng = random.Random(8118)
        cfg = SamplerConfig(samples=300, master_seed=5)
        resumed = 0
        for trial in range(20):
            g, order = long_ring_graph(rng, rng.randint(2, 8), rng.randint(2, 12))
            tree = new_ftree(0, use_memo)
            for e in order:
                leaf = tree.best_leaf(g)
                leaves = [] if leaf is None else [leaf]
                _, cut = selection._probe_with_ci(tree, g, tree.cycle_candidates(g), leaves)
                leaf_commit = tree.is_attached(e[0]) != tree.is_attached(e[1])
                tree.insert_edge(g, e, cfg)
                if not leaf_commit:
                    continue
                for c in sorted(cut):
                    assert (tree._rings[c].scored is not None) == use_memo
                    fresh = tree.copy().probe_edge(g, c)
                    before = len(built)
                    assert tree.probe_edge(g, c) == fresh
                    assert len(built) == before + (not use_memo)
                    resumed += 1
        assert resumed > 20

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_probed_commit_builds_nothing(self, monkeypatch, use_memo):
        # A commit of a probed cycle edge builds no table: a memo tree's new
        # component takes its ring's, any other has none until the next
        # evaluation builds it.  The commit reports, dumps and evaluates as
        # a commit of an unprobed edge does.
        g = running_example_graph()
        tree, plain = build_base_tree(g, memo=use_memo), build_base_tree(g, memo=use_memo)
        tree.probe_edge(g, (14, 15))
        built = count_builds(monkeypatch)
        report = tree.insert_edge(g, (14, 15), CFG)
        assert built == [] and report == plain.insert_edge(g, (14, 15), CFG)
        assert report.case_taken == "IIIb"
        _, bis = components_by_kind(tree)
        assert (bis[frozenset({14, 15})].reach is not None) == use_memo
        assert tree.dump(g) == plain.dump(g)
        est = tree.expected_flow(g)
        assert len(built) == (0 if use_memo else 1)
        assert est == plain.expected_flow(g)

    @pytest.mark.parametrize("variant", ["ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"])
    def test_each_edge_is_drawn_once_per_tree(self, monkeypatch, variant):
        # A selection's tree draws each edge's worlds once, from the edge's
        # own stream, and only the edges of the rings it draws: a draw
        # reads its edges from the tree's store and draws nothing itself.
        from probflow import sampling

        keys, wanted = [], set()
        stream, draw = sampling.substream, IncrementalComponentSampler.draw
        monkeypatch.setattr(sampling, "substream", lambda *key: keys.append(key) or stream(*key))

        def recording_draw(sampler, batch):
            wanted.update(sampler._graph_edges)
            return draw(sampler, batch)

        monkeypatch.setattr(IncrementalComponentSampler, "draw", recording_draw)
        for seed in (1, 2):
            keys.clear()
            wanted.clear()
            g = netgen.gen_partitioned(40, 8, seed)
            greedy_select(g, 0, StrategyConfig(variant, 12, SamplerConfig(samples=60, master_seed=seed)))
            assert all(key[:2] == (seed, "edge") for key in keys)
            drawn = [key[2:] for key in keys]
            assert len(drawn) == len(set(drawn)) and set(drawn) == wanted and wanted

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
            tree.probe_edge(g, (1, 2))
        assert tree._rings == {} and snapshot(tree, g) == before
        assert (1, 2) in tree.leaf_terms(g)[1]
        assert tree.insert_edge(g, (0, 2), CFG).edges_sampled_count == 0
        assert (1, 2) in tree.candidates(g) and (1, 2) not in tree.leaf_terms(g)[1]
        est, cost = tree.probe_edge(g, (1, 2))
        assert cost == 3  # the triangle's edges
        assert (est, cost) == tree.copy().probe_edge(g, (1, 2))

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_frontier_matches_full_evaluations(self, use_memo):
        # The tree keeps its candidates and leaf terms across inserts, on
        # random graphs and insertion orders.  Before every commit the kept
        # candidates are exactly ``candidate_edges``, the leaf terms cover
        # exactly the candidates with one endpoint attached, and each leaf's
        # estimate plus term equals inserting it into an evaluated copy, bit
        # for bit, both as the copy's extended estimate and evaluated from
        # scratch.  Some cycle commits are not evaluated after, so the terms
        # are read with no kept evaluation, as the empty tree's are.
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
                        tree.probe_edge(g, c)
                assert snapshot(tree, g) == before
                seen.add(last if leaves else None)
                case = tree.insert_edge(g, e, cfg).case_taken
                if rng.random() < 0.7:
                    tree.expected_flow(g)
                last = case if tree._kept is not None else "unevaluated"
            assert tree.candidates(g) == []
        assert {"empty", "unevaluated", "IIa", "IIb", "IIIa", "IIIb", "IVb"} <= seen

    def test_frontier_terms_cover_only_leaves(self):
        g = running_example_graph()
        tree = build_base_tree(g)
        _, terms = tree.leaf_terms(g)
        assert [e for e in [(7, 17), (14, 15), (11, 15), (6, 8)] if e in terms] == [(7, 17)]

    def test_a_copy_has_its_own_frontier(self):
        # A copy's candidates and cycle candidates equal the source's but
        # sit in lists of its own: a leaf and a cycle insert into the copy
        # leave the source's lists as they were.  The copy keeps no
        # evaluation.
        g = running_example_graph()
        tree = build_base_tree(g)
        tree.leaf_terms(g)
        cands, cycles = list(tree.candidates(g)), list(tree.cycle_candidates(g))
        other = tree.copy()
        assert other._kept is None
        assert (other.candidates(g), other.cycle_candidates(g)) == (cands, cycles)
        assert (7, 17) in cands and (14, 15) in cycles
        for e in [(7, 17), (14, 15)]:
            other.insert_edge(g, e, CFG)
            assert other.candidates(g) == candidate_edges(g, other.attached_vertices(), other.selected_edges)
            assert (tree.candidates(g), tree.cycle_candidates(g)) == (cands, cycles)

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_frontier_follows_inserts_never_asked_for(self, use_memo):
        # A tree that takes inserts without asking for candidates, as
        # ``dump-ftree --insert`` and a replay use it, keeps them up to date
        # from its first insert: after every insert, the candidates are
        # ``candidate_edges`` and the cycle candidates those with both
        # endpoints attached, whether or not the tree was evaluated.
        rng = random.Random(6464)
        cfg = SamplerConfig(samples=300, master_seed=5)
        for trial in range(20):
            n = rng.randint(4, 14)
            g = random_connected_graph(rng, n, rng.randint(1, 2 * n))
            tree = new_ftree(0, use_memo)
            for e in insertable_order(g, rng):
                tree.insert_edge(g, e, cfg)
                if rng.random() < 0.5:
                    tree.expected_flow(g)
                cands = candidate_edges(g, tree.attached_vertices(), tree.selected_edges)
                assert tree.candidates(g) == cands
                cycles = [c for c in cands if tree.is_attached(c[0]) and tree.is_attached(c[1])]
                assert tree.cycle_candidates(g) == cycles
            assert tree.candidates(g) == tree.cycle_candidates(g) == []

    def test_a_refused_insert_binds_no_config(self):
        # The graph binds at the first entry that reads it, the config and
        # the world store at the first insert that goes through.
        g = ProbabilisticGraph.build(4, [(0, 1, 0.5), (2, 3, 0.5)])
        tree = new_ftree(0)
        with pytest.raises(FTreeError, match="neither endpoint"):
            tree.insert_edge(g, (2, 3), CFG)
        assert (tree._graph, tree._store, tree.candidates(g)) == (g, None, [(0, 1)])
        tree.insert_edge(g, (0, 1), CFG)
        assert tree._store.cfg is CFG and tree._store.graph is g


def snapshot(tree, g):
    """Deep, comparable picture of a tree, evaluated first so that every
    table is built: layout, components, links, flow."""
    flow = tree.expected_flow(g)
    comps = {}
    for cid, c in tree.components.items():
        if isinstance(c, MonoComponent):
            comps[cid] = ("mono", frozenset(c.members), c.articulation, dict(c.parent_edges))
        else:
            comps[cid] = (
                "bi", frozenset(c.members), c.articulation, frozenset(c.internal_edges),
                c.reach,
            )
    links = (
        tree.root_id, {cid: tree.parent_of(cid) for cid in tree.components},
        dict(tree.vertex_index), frozenset(tree.selected_edges),
    )
    return tree.dump(g), comps, links, flow, tree.copy().expected_flow(g)


def hexed(values):
    return tuple(v.hex() for v in values)


def assert_close(est, ref, rel=1e-12):
    """Mean, lb and ub agree within ``rel`` relative; equal worlds used."""
    for a, b in zip((est.mean, est.lb, est.ub), (ref.mean, ref.lb, ref.ub)):
        assert abs(a - b) <= rel * max(abs(a), abs(b)), (est, ref)
    assert est.samples_used == ref.samples_used


def grown_flow(tree, g, e, cfg):
    """The reference a cycle probe of ``e`` must agree with: insert ``e``
    into a copy of ``tree``, give its new ring the table of all the ring's
    worlds and evaluate it.
    Returns that estimate, the insert's report and the ring's identity
    (``comp_key``).
    The ring must be one whose table is drawn, not enumerated."""
    ref = tree.copy()
    report = ref.insert_edge(g, e, cfg)
    [ring] = [c for c in ref.components.values() if isinstance(c, BiComponent) and c.reach is None]
    sampler = IncrementalComponentSampler(WorldStore(g, cfg), ring)
    assert not sampler.exact
    ring.reach = drawn_table(sampler, cfg.samples)
    return ref.expected_flow(g), report, comp_key(ring)


class TestRingFormula:
    """Cycle probes are scored from subtree masses without growing a tree;
    they agree with growing a copy and evaluating it."""

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_probes_match_grown_copies(self, use_memo):
        # Random trees grown edge by edge.  Before every commit each cycle
        # candidate is probed twice (leaves are ``leaf_terms``'s, see
        # ``test_frontier_matches_full_evaluations``); the full table's
        # estimate (``reference_ring_estimate``) and the second probe's
        # estimate must agree with a copy grown by the edge, within 1e-12
        # relative on mean, lb and ub, with equal worlds used, and the
        # probe's cost must be the grown copy's insert's.  The first
        # probe returns the full table's estimate bit for bit, whether or
        # not its memo tree's ring already kept the table.  A memo tree's
        # ring keeps the table its probe built.  The probed tree's dump,
        # tables and evaluation stay as they were.  Every bi component has
        # at least 9 edges (``long_ring_graph``), so every table is drawn
        # (2^9 > 300).
        rng = random.Random(5150)
        cfg = SamplerConfig(samples=300, master_seed=21)
        cases, rescored, hits = set(), 0, 0
        for trial in range(30):
            g, order = long_ring_graph(rng, rng.randint(2, 8), rng.randint(2, 12))
            tree, after_leaf = new_ftree(0, use_memo), False
            for e in order:
                before = snapshot(tree, g)
                for c in tree.cycle_candidates(g).copy():
                    ref, ref_report, sig = grown_flow(tree, g, c, cfg)
                    ring = tree._rings.get(c)
                    kept = use_memo and ring is not None
                    rescored += kept and after_leaf
                    hit = kept and ring.scored is not None and comp_key(ring.comp) == sig
                    full = reference_ring_estimate(tree, g, c, cfg)
                    assert_close(full, ref)
                    est, _ = tree.probe_edge(g, c)
                    assert est == full
                    assert (tree._rings[c].scored is not None) == use_memo
                    hits += hit
                    est, cost = tree.probe_edge(g, c)
                    assert_close(est, ref)
                    assert est.samples_used == cfg.samples
                    assert cost == ref_report.edges_sampled_count
                    cases.add(ref_report.case_taken)
                assert snapshot(tree, g) == before
                after_leaf = tree.is_attached(e[0]) != tree.is_attached(e[1])
                tree.insert_edge(g, e, cfg)
        assert cases == {"IIIa", "IIIb", "IVb", "IVc-composite"}
        assert rescored > 0 or not use_memo
        assert hits > 0 or not use_memo

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_worlds_used_match_grown_copies_when_tables_mix(self, use_memo):
        # Random graphs in random insertion orders at 30 samples, so trees
        # hold both exact tables (2^m <= 30) and drawn ones.  Before every
        # commit each cycle candidate is probed: its estimate agrees with a
        # copy grown by the edge within 1e-12 relative, with equal worlds
        # used, and a ring whose table is exact takes no drawn table.  Exact
        # rings are probed on trees holding drawn tables, and drawn rings
        # take drawn tables and leave others.
        rng = random.Random(6262)
        cfg = SamplerConfig(samples=30, master_seed=11)
        seen = set()
        for trial in range(40):
            n = rng.randint(8, 16)
            g = random_connected_graph(rng, n, rng.randint(n // 2, 2 * n))
            tree = new_ftree(0, use_memo)
            for e in insertable_order(g, rng):
                for c in tree.cycle_candidates(g):
                    est, _ = tree.probe_edge(g, c)
                    grown = tree.copy()
                    grown.insert_edge(g, c, cfg)
                    assert_close(est, grown.expected_flow(g))
                    ring = tree._rings[c].comp
                    drawn = [
                        not ring.members.isdisjoint(comp.members)
                        for comp in tree.components.values()
                        if isinstance(comp, BiComponent) and comp.reach.sample_count != EXACT_SAMPLES
                    ]
                    exact = IncrementalComponentSampler(WorldStore(g, cfg), ring).exact
                    assert not (exact and any(drawn))
                    seen.update((exact, taken) for taken in drawn)
                tree.insert_edge(g, e, cfg)
        assert seen == {(True, False), (False, True), (False, False)}


class TestKeptEvaluation:
    """A tree's kept evaluation always equals a from-scratch evaluation."""

    CASES = {"IIa", "IIb", "IIIa", "IIIb", "IVb", "IVc-composite"}

    @pytest.mark.pinned
    @pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
    def test_one_evaluation_at_the_end_equals_one_per_insert(self, memo):
        # Random graphs in random insertion orders.  One tree is evaluated
        # after every insert, and before about half of them its cycle
        # candidates are probed, so a memo tree's commit adopts its probe's
        # table; the other takes the whole order and is evaluated once, so
        # every table is built at the end.  Both give the same estimate, bit
        # for bit, and the same dump.  Both report every cycle insert's cost
        # as its new component's edge count, and every leaf insert's as 0.
        # Graphs of up to 14 vertices give tables both enumerated (2^m <=
        # 300) and drawn.
        rng = random.Random(3131)
        cfg = SamplerConfig(samples=300, master_seed=29)
        cases = set()
        for trial in range(30):
            n = rng.randint(4, 14)
            g = random_connected_graph(rng, n, rng.randint(1, 2 * n))
            eager, lazy = new_ftree(0, memo), new_ftree(0, memo)
            for e in insertable_order(g, rng):
                if rng.random() < 0.5:
                    for c in eager.cycle_candidates(g):
                        eager.probe_edge(g, c)
                cycle = eager.is_attached(e[0]) and eager.is_attached(e[1])
                report = eager.insert_edge(g, e, cfg)
                assert lazy.insert_edge(g, e, cfg) == report
                rings = [c for c in eager.components.values() if isinstance(c, BiComponent) and e in c.internal_edges]
                assert report.edges_sampled_count == sum(len(c.internal_edges) for c in rings)
                assert len(rings) == cycle
                eager.expected_flow(g)
                cases.add(report.case_taken)
            est, ref = lazy.expected_flow(g), eager.expected_flow(g)
            assert hexed((est.mean, est.lb, est.ub)) == hexed((ref.mean, ref.lb, ref.ub))
            assert est.samples_used == ref.samples_used
            assert lazy.dump(g) == eager.dump(g)
        assert cases == self.CASES

    @pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
    @pytest.mark.parametrize("probes", [0, 1, 2], ids=["plain", "scored", "rescored"])
    def test_matches_replay_with_cache_cleared(self, memo, probes):
        # Before each commit, unless plain, the edge is scored on a tree
        # that keeps its evaluation and on a replay evaluated from scratch:
        # a cycle edge by its full drawn table's estimate
        # (``reference_ring_estimate``) and by a probe, a leaf by its term.
        # Rescored, the cycle edge is probed twice, so that a memo tree's
        # second probe scores the table its first one kept.  Both agree bit
        # for bit, as do the evaluations after every commit.
        rng = random.Random(808)
        cfg = SamplerConfig(samples=300, master_seed=4)
        seen = set()
        for trial in range(30):
            n = rng.randint(3, 10)
            g = random_connected_graph(rng, n, rng.randint(0, n * (n - 1) // 2 - (n - 1)))
            kept, replay = new_ftree(0, memo), new_ftree(0, memo)
            for e in insertable_order(g, rng):
                if probes and kept.is_attached(e[0]) and kept.is_attached(e[1]):
                    # A cycle edge is probed first, on the kept state and from scratch.
                    replay._kept = None
                    full = reference_ring_estimate(kept, g, e, cfg)
                    assert full == reference_ring_estimate(replay, g, e, cfg)
                    for _ in range(probes):
                        replay._kept = None
                        assert kept.probe_edge(g, e) == replay.probe_edge(g, e)
                elif probes:
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
        # A tree serves the first graph it is given, or one equal to it.  Of
        # three graphs, the second is the first built again and the third
        # has the same edges and probabilities but other weights.  One tree
        # is asked about the first two in turn, switching back to the first,
        # and takes its inserts with either; each entry, asked first after a
        # switch in some visit, answers as a fresh tree fed the same inserts
        # does, compared by hex, and a switch keeps the kept evaluation.
        # Every entry, of the tree or of a copy, refuses the third graph and
        # changes nothing.
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
                        est, cost = tree.probe_edge(g, c)
                        out[ask][c] = hexed((est.mean, est.lb, est.ub)), est.samples_used, cost
            return out

        def refusals(tree, g, e):
            return {
                "flow": lambda: tree.expected_flow(g),
                "candidates": lambda: tree.candidates(g),
                "cycles": lambda: tree.cycle_candidates(g),
                "terms": lambda: tree.leaf_terms(g),
                "best": lambda: tree.best_leaf(g),
                "probe": lambda: tree.probe_edge(g, e),
                "insert": lambda: tree.insert_edge(g, e, cfg),
                "verify": lambda: tree.verify(g),
                "copy": lambda: tree.copy().expected_flow(g),
                "dump": lambda: tree.dump(g),
            }

        firsts = set()
        for trial in range(10):
            n = rng.randint(4, 8)
            g = random_connected_graph(rng, n, rng.randint(1, n))
            triples = [(u, v, g.probabilities[i]) for i, (u, v) in enumerate(g.edges)]
            weights = [rng.uniform(0, 9) for _ in range(n)]
            graphs = [ProbabilisticGraph.build(n, triples, weights=weights) for _ in range(2)]
            other = ProbabilisticGraph.build(n, triples, weights=[w + 1 for w in weights])
            assert graphs[0] == graphs[1] != other and graphs[0] is not graphs[1]
            tree, inserted = new_ftree(0, memo=True), []
            for e in insertable_order(g, rng):
                for x in (0, 1, 0):
                    order = ["flow", "candidates", "terms", "probe"]
                    rng.shuffle(order)
                    firsts.add(order[0])
                    held = tree._kept
                    fresh = new_ftree(0, memo=True)
                    for d in inserted:
                        fresh.insert_edge(graphs[0], d, cfg)
                    assert answers(tree, graphs[x], order) == answers(fresh, graphs[0], order)
                    assert held is None or tree._kept is held
                held, before = tree._kept, answers(tree, graphs[0], ["flow", "terms", "probe"])
                for name, call in refusals(tree, other, e).items():
                    with pytest.raises(FTreeError, match="another graph"):
                        call()
                    assert tree._kept is held and e not in tree.selected_edges, name
                assert answers(tree, graphs[0], ["flow", "terms", "probe"]) == before
                x = rng.randrange(2)
                tree.insert_edge(graphs[x], e, cfg)
                inserted.append(e)
        assert firsts == {"flow", "candidates", "terms", "probe"}

    def test_a_graph_with_other_probabilities_is_refused(self):
        # Twelve inserts on gen_erdos(30, 4, 1), then the same graph with
        # every probability p replaced by p/2 + 0.01.  The tree's components
        # carry the first graph's probabilities: asked about the second
        # graph, it would give the first graph's flow, where a tree fed the
        # same inserts on the second gives less.  Every entry, verify and a
        # copy's included, refuses it, and the tree still serves the first.
        cfg = SamplerConfig(samples=200, master_seed=3)
        a = netgen.gen_erdos(30, 4, 1)
        b = replace(a, probabilities=tuple(p * 0.5 + 0.01 for p in a.probabilities))
        prefix = insertable_order(a)[:12]
        tree = replay_tree(a, prefix, cfg)
        flow = tree.expected_flow(a)
        assert replay_tree(b, prefix, cfg).expected_flow(b).mean < flow.mean - 5
        for call in (tree.expected_flow, tree.verify, tree.copy().expected_flow, tree.candidates):
            with pytest.raises(FTreeError, match="another graph"):
                call(b)
        tree.verify(a)
        assert tree.expected_flow(replace(a)) == flow == tree.copy().expected_flow(a)

    @pytest.mark.parametrize("graph", [None, "x", 0], ids=repr)
    def test_a_graph_argument_that_is_not_a_graph_is_refused(self, graph):
        # An unbound tree would take None as the graph it already serves
        # (none), and any other value would die on an attribute.  Bound or
        # not, every entry that reads a graph refuses it, naming it, and
        # changes nothing; a dump with no graph names vertices by their ids.
        g = running_example_graph()
        for tree in (new_ftree(0), build_base_tree(g)):
            held, dumped = (tree._graph, tree._store, tree._kept), tree.dump()
            calls = {
                "flow": lambda: tree.expected_flow(graph),
                "candidates": lambda: tree.candidates(graph),
                "cycles": lambda: tree.cycle_candidates(graph),
                "terms": lambda: tree.leaf_terms(graph),
                "best": lambda: tree.best_leaf(graph),
                "probe": lambda: tree.probe_edge(graph, (14, 15)),
                "insert": lambda: tree.insert_edge(graph, BASE_ORDER[0], CFG),
                "verify": lambda: tree.verify(graph),
                "dump": lambda: tree.dump(graph),
            }
            if graph is None:
                assert calls.pop("dump")() == dumped
            for name, call in calls.items():
                with pytest.raises(FTreeError, match=re.escape(f"graph must be a ProbabilisticGraph, not {graph!r}")):
                    call()
                assert (tree._graph, tree._store, tree._kept) == held and tree.dump() == dumped, name
        assert new_ftree(0).dump(None) == "0 MONO AV=0 V={} children=[]"

    def test_kept_evaluation_is_whole_and_equals_a_fresh_one(self):
        # Random graphs in random insertion orders.  Before about half the
        # inserts the leaf terms are asked for and every cycle candidate is
        # probed, so the kept evaluation is extended when a leaf commits.
        # After every insert and probe the tree keeps no evaluation or a
        # whole one, every field set, and each field equals, by hex, what
        # ``_evaluate`` gives the same tree from scratch.
        rng = random.Random(5757)
        cfg = SamplerConfig(samples=300, master_seed=13)

        def hexdeep(x):
            if isinstance(x, float):
                return x.hex()
            if isinstance(x, FlowEstimate):
                return hexdeep(astuple(x))
            if isinstance(x, dict):
                return {k: hexdeep(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return type(x)(hexdeep(v) for v in x)
            return x

        def check_whole(tree):
            kept = tree._kept
            if kept is None:
                return False
            names = [f.name for f in fields(kept)]
            assert all(getattr(kept, name) is not None for name in names)
            tree._kept = None
            try:
                fresh = tree._evaluate(g)
            finally:
                tree._kept = kept
            for name in names:
                assert hexdeep(getattr(kept, name)) == hexdeep(getattr(fresh, name)), name
            return True

        extended = 0
        for trial in range(40):
            n = rng.randint(5, 20)
            g = random_connected_graph(rng, n, rng.randint(1, n))
            tree = new_ftree(0)
            for e in insertable_order(g, rng):
                if rng.random() < 0.5:
                    tree.leaf_terms(g)
                    check_whole(tree)
                    for c in tree.cycle_candidates(g):
                        tree.probe_edge(g, c)
                        check_whole(tree)
                leaf = tree._kept is not None and tree.is_attached(e[0]) != tree.is_attached(e[1])
                tree.insert_edge(g, e, cfg)
                if check_whole(tree):
                    extended += leaf
        assert extended > 300

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
        est1 = tree.probe_edge(g, (14, 15))
        assert tree._rings[(14, 15)].scored is not None
        est2 = tree.probe_edge(g, (14, 15))
        assert est1 == est2

    def test_ring_tables_serve_one_graph(self, monkeypatch):
        # Two graphs with the same edges, whose probabilities differ on the
        # edges not yet inserted.  A memo tree's probes of the cycle
        # candidates on the first graph fill its rings' tables.  Probes
        # naming the second graph are refused and leave the rings as they
        # were; a tree fed the same inserts on the second graph answers
        # otherwise.  Probes naming a graph equal to the first answer from
        # the rings, building nothing.
        g1 = netgen.gen_erdos(30, 4, 2)
        prefix = insertable_order(g1)[:20]
        g2 = replace(g1, probabilities=tuple(
            p if e in prefix else p / 2 for e, p in zip(g1.edges, g1.probabilities)
        ))
        tree = replay_tree(g1, prefix, CFG, memo=True)
        cycles = list(tree.cycle_candidates(g1))
        first = [tree.probe_edge(g1, c) for c in cycles]
        assert cycles and all(tree._rings[c].scored is not None for c in cycles)
        rings = dict(tree._rings)
        for c in cycles:
            with pytest.raises(FTreeError, match="another graph"):
                tree.probe_edge(g2, c)
        assert tree._rings == rings
        fresh = replay_tree(g2, prefix, CFG, memo=True)
        assert all(a[0].mean != fresh.probe_edge(g2, c)[0].mean for a, c in zip(first, cycles))
        built = count_builds(monkeypatch)
        assert [tree.probe_edge(replace(g1), c) for c in cycles] == first
        assert built == [] and tree._rings == rings

    def test_copy_keeps_no_rings(self):
        g = running_example_graph()
        tree = build_base_tree(g, memo=True)
        tree.probe_edge(g, (14, 15))
        rings = dict(tree._rings)
        copy = tree.copy()
        assert copy._rings == {}
        for c in copy.cycle_candidates(g):
            copy.probe_edge(g, c)
        assert len(copy._rings) > 1 and tree._rings == rings

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
        # Rings are the only table cache, and a cycle commit keeps every ring
        # whose members it misses, with its table, so no variant builds a
        # table more often than when a store kept every table a probe built:
        # the draws and exact builds of each memo variant's greedy run, at 300
        # samples, on one small graph of each benchmark family.  On each graph
        # a re-probe after a cycle commit that missed its ring's members,
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
            ("erdos", "ft_m_ds"): (16, 3),
            ("erdos", "ft_m_ci_ds"): (16, 3),
            ("partitioned", "ft_m"): (57, 43),
            ("partitioned", "ft_m_ci"): (57, 43),
            ("partitioned", "ft_m_ds"): (46, 43),
            ("partitioned", "ft_m_ci_ds"): (46, 43),
            ("wsn", "ft_m"): (20, 70),
            ("wsn", "ft_m_ci"): (20, 70),
            ("wsn", "ft_m_ds"): (21, 63),
            ("wsn", "ft_m_ci_ds"): (21, 63),
        }

    @pytest.mark.parametrize("variant", ["ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"])
    def test_tables_are_bounded_by_uncommitted_cycle_candidates(self, monkeypatch, variant):
        # After a greedy run the live tree (the one ``new_ftree`` returned)
        # holds tables only in the rings of cycle candidates it has not
        # committed, one ring per edge, and each ring holds at most one
        # table, the one its first probe built, pruned or not, and then no
        # sampler.  Only memo trees hold any, and no tree creates a
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
                    for e, ring in tree._rings.items():
                        assert e in cycles and e not in tree.selected_edges
                        assert ring.scored is None or ring.sampler is None
                        held += ring.scored is not None
        assert (held > 0) == (variant != "ft") and stores == []

    @pytest.mark.parametrize("use_memo", [False, True], ids=["no-memo", "memo"])
    def test_a_second_config_is_refused(self, use_memo):
        # A tree samples under the config of its first insert, or one equal
        # to it.  The cycle edge (1, 3) is probed, so its ring holds a
        # table (memo tree) or a sampler.  Inserting any candidate under
        # another seed, alpha or sample count is refused, by the tree and
        # by its copy, and leaves the selection, the rings, the kept
        # evaluation and the tables as they were.  An equal config is taken,
        # and the commit gives what it gives in a tree without a memo.
        g = netgen.gen_partitioned(16, 4, 1)
        # 15 samples are fewer than the 4-cycle's 16 worlds, so its table
        # is drawn.
        first = SamplerConfig(samples=15, master_seed=1)

        def tree_before_cycle(memo):
            tree = new_ftree(0, memo)
            for e in [(0, 2), (0, 3), (1, 2)]:
                tree.insert_edge(g, e, first)
            return tree

        tree = tree_before_cycle(use_memo)
        est = tree.probe_edge(g, (1, 3))
        before, kept = snapshot(tree, g), tree._kept
        ring = tree._rings[(1, 3)]
        rings, held = dict(tree._rings), (ring.sampler, ring.scored)
        assert (ring.scored is not None) == use_memo
        cands = list(tree.candidates(g))
        assert (1, 3) in cands and set(cands) - set(tree.cycle_candidates(g))
        others = (replace(first, master_seed=2), replace(first, alpha=0.05), replace(first, samples=16))
        for other in others:
            for e in cands:
                for target in (tree, tree.copy()):
                    with pytest.raises(FTreeError, match="another config"):
                        target.insert_edge(g, e, other)
        assert tree._rings == rings and tree._kept is kept
        assert (ring.sampler, ring.scored) == held
        assert snapshot(tree, g) == before and tree.probe_edge(g, (1, 3)) == est
        plain = tree_before_cycle(memo=False)
        assert tree.insert_edge(g, (1, 3), replace(first)) == plain.insert_edge(g, (1, 3), first)
        assert tree.expected_flow(g) == plain.expected_flow(g)
        assert tree._rings == {}

    @pytest.mark.parametrize("variant", ["ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"])
    def test_probes_are_the_only_writer(self, monkeypatch, variant):
        # Greedy commits only probed edges, and each probe kept its full
        # table in its ring, which the commit adopts: the refresh of the
        # evaluation after a commit neither builds a table nor draws.  Small
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
    @pytest.mark.parametrize("batch", [0, -1, 1, 999, 1001])
    def test_draw_takes_the_whole_budget(self, batch):
        # A table counts all of the config's worlds (``rows``), so a draw
        # reads all of them: any other batch raises ValueError naming it,
        # and a full one gives every local vertex's worlds.
        g = ring_chain_graph(1, ring=11)
        comp = BiComponent(set(range(2, 12)), 1, set(g.edges) - {(0, 1)})
        cfg = SamplerConfig(samples=1000, master_seed=99)
        sampler = IncrementalComponentSampler(WorldStore(g, cfg), comp)
        with pytest.raises(ValueError, match="^batch must be"):
            sampler.draw(batch)
        bits = sampler.draw(np.int64(cfg.samples))
        assert len(bits) == len(comp.members) + 1 and max(bits).bit_length() <= cfg.samples


class TestWorldStore:
    """A tree's drawn tables read its world store, which draws each edge
    once from the edge's own stream: a table's worlds depend only on its
    component and the config, whatever asks first."""

    @staticmethod
    def record_drawn(monkeypatch):
        """A dict that gains, at every drawn build, the table's rows in hex
        form under its component's ``comp_key``, and the tags (see
        ``tag``) of the runs that built it; it asserts every build of one
        component gives one table."""
        drawn, tag = {}, []
        build = IncrementalComponentSampler.build

        def recording(sampler):
            table = build(sampler)
            if not sampler.exact:
                key = (sampler.articulation, tuple(sampler._graph_edges))
                rows = {v: hexed(r) for v, r in table.rows.items()}
                seen = drawn.setdefault(key, (rows, set()))
                assert seen[0] == rows, key
                seen[1].add(tag[-1])
            return table

        monkeypatch.setattr(IncrementalComponentSampler, "build", recording)
        return drawn, tag

    @staticmethod
    def swapped(order):
        """``order`` with each pair of edges 2i, 2i + 1 swapped where the
        later one touches a vertex attached before them both."""
        out, attached = list(order), {0}
        for i in range(0, len(out) - 1, 2):
            if attached & set(out[i + 1]):
                out[i], out[i + 1] = out[i + 1], out[i]
            attached.update(out[i] + out[i + 1])
        return out

    @pytest.mark.pinned
    def test_tables_do_not_depend_on_insert_or_probe_order(self, monkeypatch):
        # Two trees of one graph and config, a memo tree and a plain one,
        # take the same edges in two orders (``swapped``) and probe every
        # cycle candidate before each insert, one in canonical order and
        # one in reverse.  The store draws an edge when a ring first asks
        # for it, so the two trees draw their edges in different orders.
        # Every drawn table of one component, probed or built at an
        # evaluation, in either tree, has the same rows bit for bit, and so
        # do the two trees' final tables.
        drawn, tag = self.record_drawn(monkeypatch)
        cfg = SamplerConfig(samples=300, master_seed=23)
        rng = random.Random(2024)
        shared = 0
        for trial in range(6):
            g, order = long_ring_graph(rng, pendants=4, extra_edges=8)
            finals = []
            for memo, edges, step in ((True, order, 1), (False, self.swapped(order), -1)):
                tag.append((trial, memo))
                tree = new_ftree(0, memo)
                for e in edges:
                    if tree.selected_edges:
                        for c in tree.cycle_candidates(g)[::step]:
                            tree.probe_edge(g, c)
                    tree.insert_edge(g, e, cfg)
                tree.expected_flow(g)
                finals.append({
                    comp_key(c): {v: hexed(r) for v, r in c.reach.rows.items()}
                    for c in tree.components.values() if isinstance(c, BiComponent)
                })
            assert finals[0] == finals[1]
            shared += sum(len(tags) == 2 for _, tags in drawn.values())
            drawn.clear()
        assert shared > 100

    @pytest.mark.pinned
    @pytest.mark.parametrize("variant", ["ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds"])
    def test_selection_replays_to_its_last_flow(self, variant):
        # The selected edges, inserted into a fresh plain tree, give the
        # flow the selection last reported, bit for bit: each table the
        # selection's tree adopted from a probe or built at an evaluation
        # is the one a fresh tree builds from its own store.
        drawn = 0
        for seed in (1, 2, 3):
            graphs = (
                netgen.gen_partitioned(40, 8, seed),
                netgen.assign_distance_decay(netgen.gen_wsn(60, 0.25, seed), lam=0.001, scale=2000),
            )
            for g in graphs:
                cfg = StrategyConfig(variant, 15, SamplerConfig(samples=100, master_seed=seed))
                solution = greedy_select(g, 0, cfg)
                flow = replay_tree(g, solution.selected, cfg.sampler).expected_flow(g)
                assert hexed(astuple(flow)[:3]) == hexed(astuple(solution.trace[-1].flow)[:3])
                assert flow.samples_used == solution.trace[-1].flow.samples_used
                drawn += flow.samples_used == cfg.sampler.samples
        assert drawn >= 3

    def test_drawn_means_converge_to_exact_reach(self):
        # Over 200 master seeds, each its own store, the mean of a drawn
        # table's rows is within 3 standard errors of the exact reach of
        # every member of four random rings: a cycle of 7-9 uncertain edges
        # with two chords, 2^9 worlds or more, drawn at 64 samples.
        rng = random.Random(77)
        seeds, samples, checked = 200, 64, 0
        for _ in range(4):
            n = rng.randint(7, 9)
            triples = [(i, (i + 1) % n, rng.uniform(0.2, 0.9)) for i in range(n)]
            chords = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
            triples += [(u, v, rng.uniform(0.2, 0.9)) for u, v in rng.sample(chords, 2)]
            g = ProbabilisticGraph.build(n, triples)
            ring = BiComponent(set(range(1, n)), 0, set(g.edges))
            whole = SamplerConfig(1 << g.num_edges)  # a budget of every world: exact
            sampler = IncrementalComponentSampler(WorldStore(g, whole), ring)
            assert sampler.exact
            exact = sampler.build().rows
            sums = dict.fromkeys(ring.members, 0.0)
            for seed in range(seeds):
                cfg = SamplerConfig(samples, master_seed=seed)
                sampler = IncrementalComponentSampler(WorldStore(g, cfg), ring)
                assert not sampler.exact
                for v, (p, _, _) in sampler.build().rows.items():
                    sums[v] += p
            for v, total in sums.items():
                p = exact[v][0]
                se = math.sqrt(p * (1.0 - p) / (seeds * samples))
                assert abs(total / seeds - p) <= 3.0 * se, (v, total / seeds, p)
                checked += 1
        assert checked >= 24

    def test_a_store_of_an_equal_graph_and_config_builds_the_same_table(self):
        # A sampler reads its graph and config from its store alone, so its
        # table has the store's worlds, and a store of an equal graph and
        # config builds the same table.
        g = ring_chain_graph(1, ring=11)
        comp = BiComponent(set(range(2, 12)), 1, set(g.edges) - {(0, 1)})
        cfg = SamplerConfig(samples=1000, master_seed=99)
        own = IncrementalComponentSampler(WorldStore(g, cfg), comp).build()
        assert IncrementalComponentSampler(WorldStore(replace(g), replace(cfg)), comp).build() == own
        assert IncrementalComponentSampler(WorldStore(g, replace(cfg, samples=200)), comp).build().sample_count == 200

    def test_naive_and_whole_graph_estimates_build_no_store(self, monkeypatch):
        # ``naive`` and ``mc_expected_flow`` draw from their own streams
        # (their seeded pins in test_selection.py and test_cli.py are
        # unchanged by the store); an F-tree selection builds one store.
        from probflow import mc_expected_flow, run_strategy, sampling

        built = []
        init = sampling.WorldStore.__init__
        monkeypatch.setattr(
            sampling.WorldStore, "__init__", lambda s, *a: built.append(a) or init(s, *a)
        )
        g = netgen.gen_partitioned(40, 8, 1)
        cfg = SamplerConfig(samples=100, master_seed=5)
        run_strategy(g, 0, StrategyConfig("naive", 8, cfg))
        mc_expected_flow(g, 0, cfg)
        assert built == []
        run_strategy(g, 0, StrategyConfig("ft", 8, cfg))
        assert len(built) == 1


def cycle_graph(probs):
    """One cycle 0-1-...-0 with these edge probabilities, weights 1..n."""
    n = len(probs)
    return ProbabilisticGraph.build(
        n, [(i, (i + 1) % n, p) for i, p in enumerate(probs)],
        weights=[float(v) for v in range(1, n + 1)],
    )


def closed_cycle(probs, cfg):
    """``cycle_graph`` with every edge inserted, the tree evaluated, and its
    one bi component."""
    g = cycle_graph(probs)
    tree = new_ftree(0)
    for e in insertable_order(g):
        tree.insert_edge(g, e, cfg)
    tree.expected_flow(g)
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
        # cycle probe is too, whether or not its memo tree's ring held the
        # table already.
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
                    probes = [t.probe_edge(g, c) for t in trees]
                    assert probes[0] == probes[1]
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
        est = tree.expected_flow(g)
        outer = next(
            c for c in tree.components.values()
            if isinstance(c, BiComponent) and c.articulation == 0
        )
        inner = next(
            c for c in tree.components.values()
            if isinstance(c, BiComponent) and c.articulation == 2
        )
        assert inner.reach.sample_count == outer.reach.sample_count == cfg.samples
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
            case = tree.insert_edge(g, e, cfg).case_taken
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
    def test_a_graph_the_tree_does_not_serve_is_refused(self):
        # Labels are read from the graph given, so another graph's would
        # name the tree's vertices wrongly, as verify would refuse it.
        g = ProbabilisticGraph.build(3, [(0, 1, 0.5), (1, 2, 0.5)], labels="abc")
        h = ProbabilisticGraph.build(3, [(0, 1, 0.5), (1, 2, 0.5)], labels="xyz")
        tree = new_ftree(0)
        tree.insert_edge(g, (0, 1), CFG)
        for call in (tree.verify, tree.dump):
            with pytest.raises(FTreeError, match="another graph"):
                call(h)
        assert tree.dump(g) == "0 MONO AV=a V={b} children=[]"

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
