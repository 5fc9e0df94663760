"""Acceptance suite: one test per release criterion.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces its runtime budget.  Tolerances are fixed here, not
configurable.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from probflow import (
    EXACT_SAMPLES,
    BiComponent,
    FlowEstimate,
    ProbabilisticGraph,
    SamplerConfig,
    StrategyConfig,
    candidate_edges,
    ci_prune,
    confidence_interval,
    ds_delay,
    exact_expected_flow,
    exhaustive_maxflow,
    expected_flow_of_edges,
    gen_erdos,
    gen_partitioned,
    induced_subgraph,
    mc_expected_flow,
    new_ftree,
    normal_quantile,
    run_strategy,
)
from probflow.cli import main as cli_main
from probflow.ftree import IncrementalComponentSampler
from util import (
    BASE_ORDER,
    WALKTHROUGH_EDGES,
    DeterministicWorld,
    comp_key,
    enumerate_worlds,
    insertable_order,
    long_cycle_graph,
    random_connected_graph,
    random_tree,
    running_example_graph,
    ring_chain_graph,
    world_probability,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num: int, title: str, budget_s: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num:2d} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[ACCEPTANCE] criterion {num:2d} ({title}): PASS [{elapsed:.1f}s]")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget"


def flow_stderr(est: FlowEstimate, alpha: float) -> float:
    return (est.ub - est.lb) / (2.0 * normal_quantile(1.0 - alpha / 2.0))


def reference_flow(graph, q, edges, ref_cfg) -> FlowEstimate:
    verts = {q}
    for e in edges:
        verts.update(e)
    sub = induced_subgraph(graph, verts, edges)
    return mc_expected_flow(sub, sub.label_index[graph.labels[q]], ref_cfg)


# ----------------------------------------------------------------------
# shared corpora
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def greedy_corpus():
    """Fifty small cyclic instances with budgets 2..4 (criteria 7 and 10)."""
    items = []
    for i in range(50):
        rng = random.Random(7000 + i)
        n = rng.randint(5, 9)
        extra = rng.randint(1, min(4, 12 - (n - 1)))
        g = random_connected_graph(rng, n, extra, p_range=(0.3, 0.95))
        items.append((g, 2 + i % 3))
    return items


@pytest.fixture(scope="module")
def trend_runs():
    """Criterion-8 instances with solutions per variant and a shared
    reference evaluation (criteria 8 and 9)."""
    instances = {
        "erdos": gen_erdos(100, 6, seed=1),
        "partitioned": gen_partitioned(96, 6, seed=1),
    }
    ref_cfg = SamplerConfig(samples=100000, alpha=0.01, master_seed=777)
    runs = {}
    for name, graph in instances.items():
        per_variant = {}
        for variant in ("ft", "ft_m", "ft_m_ds", "ft_m_ci", "ft_m_ci_ds", "dijkstra", "naive"):
            cfg = StrategyConfig(
                variant=variant,
                budget=20,
                sampler=SamplerConfig(samples=1000, alpha=0.01, master_seed=1),
            )
            solution = run_strategy(graph, 0, cfg)
            per_variant[variant] = (
                solution,
                reference_flow(graph, 0, solution.selected, ref_cfg),
            )
        runs[name] = (graph, per_variant)
    return runs


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_01_world_probability_exactness():
    with criterion(1, "world-probability exactness", 5.0):
        present_p = [0.6, 0.5, 0.8, 0.4, 0.4, 0.5]
        absent_p = [0.1, 0.3, 0.4, 0.1]
        g = ProbabilisticGraph.build(
            11, [(i, i + 1, p) for i, p in enumerate(present_p + absent_p)]
        )
        world = DeterministicWorld(g, frozenset(g.edges[:6]))
        assert abs(world_probability(g, world) - 0.00653184) < 1e-12

        for i in range(30):
            rng = random.Random(1000 + i)
            n = rng.randint(4, 7)
            extra = rng.randint(0, 12 - (n - 1)) if i % 5 else 12 - (n - 1)
            g = random_connected_graph(rng, n, extra)
            assert g.num_edges <= 12
            total = sum(
                world_probability(g, DeterministicWorld(g, present))
                for present in enumerate_worlds(g)
            )
            assert abs(total - 1.0) < 1e-9


def test_criterion_02_analytic_tree_exactness():
    with criterion(2, "analytic flow on trees", 10.0):
        cfg = SamplerConfig(samples=1000, master_seed=2)
        sizes = [2 + i % 16 for i in range(96)] + [18, 19, 20, 20]
        assert len(sizes) == 100
        for i, n in enumerate(sizes):
            rng = random.Random(2000 + i)
            g = random_tree(rng, n)
            tree = new_ftree(0)
            sampled = 0
            for e in insertable_order(g, rng):
                sampled += tree.insert_edge(g, e, cfg).edges_sampled_count
            assert sampled == 0
            est = tree.expected_flow(g)
            assert est.lb == est.mean == est.ub
            assert abs(est.mean - exact_expected_flow(g, 0)) < 1e-9


def test_criterion_03_estimator_convergence():
    with criterion(3, "sampled flow converges to the oracle", 120.0):
        cfg = SamplerConfig(samples=100000, alpha=0.01, master_seed=3)
        hits = 0
        for i in range(50):
            rng = random.Random(3000 + i)
            g = long_cycle_graph(rng)
            tree = new_ftree(0)
            for e in insertable_order(g, rng):
                tree.insert_edge(g, e, cfg)
            est = tree.expected_flow(g)
            assert est.samples_used == cfg.samples
            oracle = exact_expected_flow(g, 0)
            se = flow_stderr(est, cfg.alpha)
            hits += abs(est.mean - oracle) <= 4.0 * se + 1e-12
        assert hits >= 48, f"only {hits}/50 within four standard errors"


def test_criterion_04_variance_reduction():
    with criterion(4, "component sampling reduces variance", 60.0):
        # Rings of 11 edges: 2^11 worlds exceed the 1000 samples, so every
        # component table is drawn.
        g = ring_chain_graph(4, ring=11)
        edges = list(g.edges)
        decomposed, whole = [], []
        for s in range(200):
            cfg = SamplerConfig(samples=1000, master_seed=40_000 + s)
            tree = new_ftree(0)
            for e in edges:
                tree.insert_edge(g, e, cfg)
            est = tree.expected_flow(g)
            assert est.samples_used == cfg.samples
            decomposed.append(est.mean)
            whole.append(mc_expected_flow(g, 0, cfg).mean)

        def var(xs):
            mu = sum(xs) / len(xs)
            return sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)

        assert var(decomposed) <= var(whole)


def test_criterion_05_structural_invariants():
    with criterion(5, "structural invariants under random insertion", 120.0):
        cfg = SamplerConfig(samples=4, master_seed=5)
        steps = 0
        for i in range(200):
            rng = random.Random(5000 + i)
            n = rng.randint(6, 16)
            g = random_connected_graph(rng, n, rng.randint(0, 8))
            target = 500  # insertion steps still owed by this graph
            while target > 0:
                tree = new_ftree(0)
                for e in insertable_order(g, rng):
                    tree.insert_edge(g, e, cfg)
                    tree.verify(g)
                    steps += 1
                    target -= 1
        assert steps >= 100_000


@pytest.mark.pinned
def test_criterion_06_walkthrough_cases(monkeypatch):
    with criterion(6, "running-example insertion walkthrough", None):
        g = running_example_graph()
        cfg = SamplerConfig(samples=2000, master_seed=17)
        tree = new_ftree(0)
        for e in BASE_ORDER:
            tree.insert_edge(g, e, cfg)
        assert tree.dump(g) + "\n" == (GOLDEN / "running_example_base.txt").read_text()

        expected = {
            (7, 17): ("IIb", "case_iib.txt"),
            (6, 8): ("IIIa", "case_iiia.txt"),
            (14, 15): ("IIIb", "case_iiib.txt"),
            (11, 15): ("IV", "case_iv.txt"),
        }
        for edge in WALKTHROUGH_EDGES:
            case, golden_name = expected[edge]
            trial = tree.copy()
            report = trial.insert_edge(g, edge, cfg)
            assert report.case_taken.startswith(case)
            trial.verify(g)
            assert trial.dump(g) + "\n" == (GOLDEN / golden_name).read_text()
        # the IIIa insertion builds no table, and the next evaluation
        # re-samples exactly the one component it made
        tree.expected_flow(g)
        trial = tree.copy()
        builds = []
        build = IncrementalComponentSampler.build
        monkeypatch.setattr(
            IncrementalComponentSampler, "build", lambda s, *a: builds.append(s) or build(s, *a)
        )
        trial.insert_edge(g, (6, 8), cfg)
        pending = [c for c in trial.components.values() if isinstance(c, BiComponent) and c.reach is None]
        assert builds == [] and len(pending) == 1
        trial.expected_flow(g)
        assert [(s.articulation, tuple(s._graph_edges)) for s in builds] == [comp_key(c) for c in pending]


def test_criterion_07_greedy_quality(greedy_corpus):
    with criterion(7, "greedy flow within 90% of exhaustive", 300.0):
        optima = [exhaustive_maxflow(g, 0, k)[1] for g, k in greedy_corpus]
        for variant in ("ft", "ft_m_ci", "ft_m_ci_ds"):
            good = 0
            for i, ((g, k), best) in enumerate(zip(greedy_corpus, optima)):
                cfg = StrategyConfig(
                    variant=variant, budget=k,
                    sampler=SamplerConfig(samples=1000, master_seed=700 + i),
                )
                solution = run_strategy(g, 0, cfg)
                achieved = expected_flow_of_edges(g, 0, solution.selected)
                if best <= 1e-12 or achieved / best >= 0.9:
                    good += 1
            print(f"[ACCEPTANCE] criterion  7: {variant} {good}/50")
            assert good >= 45, f"{variant}: only {good}/50 instances reached 90% of the optimum"


def test_criterion_08_baseline_ordering(trend_runs):
    with criterion(8, "decomposed greedy beats the baselines", 120.0):
        for name, (graph, per_variant) in trend_runs.items():
            ft_ref = per_variant["ft"][1]
            dijkstra_ref = per_variant["dijkstra"][1]
            naive_ref = per_variant["naive"][1]
            assert ft_ref.mean >= dijkstra_ref.mean, name
            sigma = flow_stderr(naive_ref, 0.01)
            assert ft_ref.mean >= naive_ref.mean - 2.0 * sigma, name


def test_criterion_09_heuristic_invariance(trend_runs):
    with criterion(9, "memoization exact, delays and pruning nearly free", None):
        for name, (graph, per_variant) in trend_runs.items():
            ft_sol, ft_ref = per_variant["ft"]
            m_sol, _ = per_variant["ft_m"]
            assert m_sol.selected == ft_sol.selected, name
            # A pruned candidate could not be the argmax: _ci selects _m's edges.
            assert per_variant["ft_m_ci"][0].selected == m_sol.selected, name
            for variant in ("ft_m_ds", "ft_m_ci", "ft_m_ci_ds"):
                ratio = per_variant[variant][1].mean / ft_ref.mean
                print(f"[ACCEPTANCE] criterion  9: {name} {variant} {ratio:.4f}")
                assert ratio >= 0.95, (name, variant)
        assert ds_delay(0.01, 10, 2.0) == 9


def test_criterion_10_ci_mechanics(greedy_corpus):
    with criterion(10, "confidence intervals and pruning soundness", None):
        lb, ub = confidence_interval(50, 100, 0.01)
        assert abs(lb - 0.3712) < 1e-3
        assert abs(ub - 0.6288) < 1e-3

        # Oracle-exact zero-width intervals: pruning may never drop the argmax.
        for g, k in greedy_corpus:
            selected: list = []
            attached = {0}
            for _ in range(k):
                cands = candidate_edges(g, attached, set(selected))
                if not cands:
                    break
                scored = []
                for e in cands:
                    flow = expected_flow_of_edges(g, 0, selected + [e])
                    scored.append((e, FlowEstimate(flow, flow, flow, EXACT_SAMPLES)))
                best = min(scored, key=lambda c: (-c[1].mean, c[0]))[0]
                assert best in ci_prune(scored)
                selected.append(best)
                attached.update(best)


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "CLI byte-determinism", None):
        edges = tmp_path / "g.edges"
        weights = tmp_path / "g.weights"
        edges.write_text("Q a 0.9\nQ b 0.5\na b 0.4\nb c 0.7\n", encoding="utf-8")
        weights.write_text("Q 0\na 2\nb 3\nc 1\n", encoding="utf-8")
        sel = tmp_path / "sel.txt"
        sel.write_text("Q a\na b\n", encoding="utf-8")

        def run_twice(argv_of):
            blobs = []
            for tag in ("one", "two"):
                out = tmp_path / tag
                out.mkdir(exist_ok=True)
                argv, artifacts = argv_of(out)
                assert cli_main(argv) == 0
                blobs.append(b"".join(Path(a).read_bytes() for a in artifacts))
            assert blobs[0] == blobs[1]

        run_twice(lambda out: (
            ["generate", "erdos", "--n", "40", "--deg", "4", "--seed", "11",
             "--out", str(out / "er")],
            [f"{out}/er.edges", f"{out}/er.weights"],
        ))
        run_twice(lambda out: (
            ["maxflow", "--edges", str(edges), "--weights", str(weights),
             "--query", "Q", "--variant", "ft_m_ci_ds", "--k", "3",
             "--seed", "4", "--out", str(out / "mf.csv")],
            [out / "mf.csv"],
        ))
        run_twice(lambda out: (
            ["evaluate", "--edges", str(edges), "--weights", str(weights),
             "--query", "Q", "--edge-set", str(sel), "--mode", "mc",
             "--samples", "5000", "--seed", "2", "--out", str(out / "ev.csv")],
            [out / "ev.csv"],
        ))
        run_twice(lambda out: (
            ["bench", "--family", "partitioned", "--n", "24", "--deg", "4",
             "--variants", "ft,dijkstra,naive", "--sweep", "k=2,4",
             "--samples", "200", "--ref-samples", "2000", "--seed", "3",
             "--out", str(out / "bench.csv")],
            [out / "bench.csv"],
        ))
        run_twice(lambda out: (
            ["dump-ftree", "--edges", str(edges), "--weights", str(weights),
             "--query", "Q", "--out", str(out / "tree.txt")],
            [out / "tree.txt"],
        ))
