"""Tests of the benchmark itself: determinism of what it counts, wrapper
removal, and the output checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run  # puts the checkout's src directory on sys.path
import tracer
from probflow import ftree, sampling, selection
from workloads import WORKLOADS


def tiny(name: str):
    """A seconds-long version of a workload with the same code paths."""
    return dataclasses.replace(WORKLOADS[name], k=6, graphs=1, traced_graphs=1)


def _traced_counts(name: str, seed: int):
    wl = tiny(name)
    t, counters, _, _, flows, _ = run.traced_pass(wl, seed, wl.traced_graphs)
    counts = {k: v for k, (v, unit) in tracer.layer_metrics(t).items() if unit == "count"}
    counts.update(counters)
    return counts, flows


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_and_reference_flows_repeat(name):
    counts, flows = _traced_counts(name, seed=5)
    assert counts["selection.probes"] > 0
    assert counts["ftree.probe.calls"] > 0
    assert counts["sampling.mc_flow.calls"] > 0
    assert flows
    assert _traced_counts(name, seed=5) == (counts, flows)


def test_wrappers_are_removed_after_the_traced_pass():
    before = (
        ftree.FTree.copy,
        ftree.IncrementalComponentSampler.draw,
        selection.mc_expected_flow,
        sampling.confidence_interval,
    )
    _traced_counts("partitioned-dense", seed=5)
    after = (
        ftree.FTree.copy,
        ftree.IncrementalComponentSampler.draw,
        selection.mc_expected_flow,
        sampling.confidence_interval,
    )
    assert after == before


def test_checks_reject_bad_selections():
    wl = tiny("partitioned-dense")
    graph_seed, master_seed = wl.instances(5, 1)[0]
    graph = run.setup_instance(wl, graph_seed)
    cfg = run.strategy(wl, "ft_m", master_seed)
    sol = run.run_strategy(graph, run.QUERY, cfg)
    assert run.check_selection(graph, sol, cfg) == []

    last = sol.trace[-1]
    off = dataclasses.replace(last.flow, mean=last.flow.mean + 1.0, ub=last.flow.ub + 1.0)
    wrong_flow = dataclasses.replace(sol, trace=sol.trace[:-1] + (dataclasses.replace(last, flow=off),))
    assert run.check_selection(graph, wrong_flow, cfg)

    over = dataclasses.replace(cfg, budget=len(sol.selected) - 1)
    assert run.check_selection(graph, sol, over)

    detached = next(e for e in graph.edges if run.QUERY not in e and e not in sol.selected)
    foreign = dataclasses.replace(sol, selected=(detached,) + sol.selected[1:])
    assert run.check_selection(graph, foreign, cfg)


def test_metric_names_match_benchmark_json(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = tiny("wsn-decay")
    m = run.measure(wl, seed=5, passes=2)
    assert m.failed == 0
    assert set(run.end_to_end(m)) == run.E2E_METRICS == {e["name"] for e in spec["end_to_end"]}
    layers, problems, _ = run.per_layer(wl, 5, m)
    assert problems == []
    assert set(layers) | {"fail_frac"} == {p["name"] for p in spec["per_layer"]}


def test_every_cell_is_repeated_once_per_pass():
    wl = dataclasses.replace(tiny("erdos-sparse"), graphs=2)
    m = run.measure(wl, seed=5, passes=2)
    assert m.failed == 0
    assert len(m.select) == 2 * len(run.VARIANTS)
    assert {len(reps) for reps in m.select.values()} == {2}
    assert {len(reps) for reps in m.evaluate.values()} == {2}
    assert {len(reps) for reps in m.setup.values()} == {2 * run.SETUP_REPEATS}
