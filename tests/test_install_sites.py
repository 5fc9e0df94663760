"""The benchmark's install sites: every library name that perfbench/run.py
imports and every attribute that perfbench/tracer.py wraps exists, takes
the arguments the tracer reads where it reads them and returns what it
reads, so a change that drops, moves or reshapes one fails here, and not
only in a traced benchmark run."""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_install_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("run")  # fails on any name its `from probflow import` lacks
    tracer = importlib.import_module("tracer")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer._patches(tracer.Tracer())
        if attr not in vars(owner)
    ]
    assert missing == []


def test_wrapped_arguments_sit_where_the_tracer_reads_them():
    # The tracer reads some arguments by position, counting self, when a
    # caller passes them positionally.
    from probflow import ftree, sampling, selection

    def param(fn, pos):
        return list(inspect.signature(fn).parameters)[pos]

    assert param(ftree.IncrementalComponentSampler.__init__, 2) == "comp"
    assert param(ftree.IncrementalComponentSampler.draw, 1) == "batch"
    for fn in (sampling.mc_expected_flow, selection.mc_expected_flow):
        assert (param(fn, 0), param(fn, 2)) == ("graph", "cfg")


def test_commits_run_on_the_tree_new_ftree_returns(monkeypatch):
    # The tracer takes the tree selection's new_ftree returns as the live
    # tree, and names each insert's span by its report's case_taken.
    from probflow import FTree, SamplerConfig, StrategyConfig, greedy_select, netgen, selection

    monkeypatch.syspath_prepend(str(PERFBENCH))
    cases = importlib.import_module("tracer").INSERT_CASES
    built, inserted = [], []
    build, insert = selection.new_ftree, FTree.insert_edge

    def building(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def inserting(tree, *args, **kwargs):
        report = insert(tree, *args, **kwargs)
        inserted.append((tree, report.case_taken))
        return report

    monkeypatch.setattr(selection, "new_ftree", building)
    monkeypatch.setattr(FTree, "insert_edge", inserting)
    g = netgen.gen_partitioned(16, 4, 1)
    for variant in ("ft", "ft_m"):
        greedy_select(g, 0, StrategyConfig(variant, 8, SamplerConfig(samples=60)))
    assert len(built) == 2 and all(isinstance(tree, FTree) for tree in built)
    assert {id(tree) for tree, _ in inserted} == {id(tree) for tree in built}
    assert {case.split("-")[0] for _, case in inserted} <= set(cases)
    assert any(case not in ("IIa", "IIb") for _, case in inserted)


def test_interval_probes_run_inside_the_spanned_probe_loop(monkeypatch):
    # The tracer spans selection._probe_with_ci as probing.  Under _ci it is
    # called once in every iteration that has eligible cycle candidates,
    # before that iteration's commit, and every cycle probe runs inside it;
    # ft_m probes outside it and never calls it.
    from probflow import FTree, SamplerConfig, StrategyConfig, greedy_select, netgen, selection

    events, depth = [], [0]
    probe_with_ci, probe, insert = selection._probe_with_ci, FTree.probe_edge, FTree.insert_edge

    def probing_with_ci(*args, **kwargs):
        events.append("ci")
        depth[0] += 1
        try:
            return probe_with_ci(*args, **kwargs)
        finally:
            depth[0] -= 1

    def probing(*args, **kwargs):
        events.append("probe in ci" if depth[0] else "probe")
        return probe(*args, **kwargs)

    def inserting(*args, **kwargs):
        events.append("commit")
        return insert(*args, **kwargs)

    monkeypatch.setattr(selection, "_probe_with_ci", probing_with_ci)
    monkeypatch.setattr(FTree, "probe_edge", probing)
    monkeypatch.setattr(FTree, "insert_edge", inserting)
    g = netgen.gen_partitioned(16, 4, 1)
    for variant in ("ft_m", "ft_m_ci", "ft_m_ci_ds"):
        events.clear()
        sol = greedy_select(g, 0, StrategyConfig(variant, 12, SamplerConfig(samples=60)))
        iterations = [[]]
        for event in events:
            if event == "commit":
                iterations.append([])
            else:
                iterations[-1].append(event)
        assert len(iterations) == len(sol.trace) + 1 and iterations[-1] == []
        if "_ci" in variant:
            assert "probe in ci" in events and "probe" not in events
            for it in iterations:
                assert it.count("ci") == 1 or "probe in ci" not in it
                assert it.count("ci") <= 1 and it[:1] in ([], ["ci"])
        else:
            assert "probe" in events and "ci" not in events
