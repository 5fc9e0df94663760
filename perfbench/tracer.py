"""In-memory span tracer for the traced run, and the wrappers that feed it.

Wrappers are installed where each caller looks a name up (a module global
such as ``probflow.selection.mc_expected_flow``, or a method on its class)
only for the traced run, and the originals are put back afterwards, so the
untraced run executes unmodified library code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

from probflow import ftree, graphs, netgen, sampling, selection

INSERT_CASES = ("IIa", "IIb", "IIIa", "IIIb", "IVa", "IVb", "IVc")

# Spans whose durations make up probing: the plain probe and the interval-
# pruned probe loop both copy the tree, insert and evaluate.
PROBE_SPAN = "ftree.probe"
# The benchmark's own span around each run_strategy call.
SELECTION_SPAN = "selection.run_strategy"


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.commit_spans: list[int] = []
        self.live_tree: Optional[ftree.FTree] = None
        self.sampler_edges: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` inside a span; returns (result, span index)."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs), idx
        finally:
            self.close(idx)

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total time, self time (minus child spans), calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        return total, own, calls

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


def _spanned(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable] = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, idx = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(idx, args, kwargs, result)
        return result

    return wrapper


def _counted(fn: Callable, after: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, result)
        return result

    return wrapper


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _patches(t: Tracer) -> list[tuple[object, str, Callable[[Callable], Callable]]]:
    """(owner, attribute, wrapper factory) for every install site."""
    c = t.counts

    def on_insert(idx, args, kwargs, report):
        case = report.case_taken.split("-")[0]
        t.spans[idx][0] = f"ftree.insert.{case}"
        if args[0] is t.live_tree:
            t.commit_spans.append(idx)
        else:
            c["ftree.probe.calls"] += 1

    def on_sampler_init(args, kwargs, _):
        t.sampler_edges[args[0]] = len(_arg(args, kwargs, 2, "comp").internal_edges)

    def on_draw(idx, args, kwargs, _):
        batch = max(0, _arg(args, kwargs, 1, "batch"))
        c["ftree.sampler.draws"] += 1
        c["ftree.sampler.worlds"] += batch
        c["ftree.sampler.edge_worlds"] += batch * t.sampler_edges[args[0]]

    def on_mc_flow(idx, args, kwargs, _):
        graph = _arg(args, kwargs, 0, "graph")
        cfg = _arg(args, kwargs, 2, "cfg")
        c["sampling.mc_flow.calls"] += 1
        c["sampling.mc_flow.edge_worlds"] += cfg.samples * graph.num_edges

    def on_ci(args, kwargs, _):
        c["sampling.ci.calls"] += 1

    def on_lookup(args, kwargs, table):
        c["ftree.memo.hits" if table is not None else "ftree.memo.misses"] += 1

    def on_store(args, kwargs, _):
        c["ftree.memo.stores"] += 1

    def on_new_tree(args, kwargs, tree):
        t.live_tree = tree

    def spanned(name, after=None):
        return lambda fn: _spanned(t, name, fn, after)

    def counted(after):
        return lambda fn: _counted(fn, after)

    gen = spanned("netgen.generate")
    return [
        (netgen, "gen_erdos", gen),
        (netgen, "gen_partitioned", gen),
        (netgen, "gen_wsn", gen),
        (netgen, "assign_distance_decay", gen),
        (graphs, "induced_subgraph", spanned("graphs.induced_subgraph")),
        (selection, "induced_subgraph", spanned("graphs.induced_subgraph")),
        (sampling, "mc_expected_flow", spanned("sampling.mc_flow", on_mc_flow)),
        (selection, "mc_expected_flow", spanned("sampling.mc_flow", on_mc_flow)),
        (sampling, "confidence_interval", counted(on_ci)),
        (selection, "new_ftree", counted(on_new_tree)),
        (selection, "_probe_with_ci", spanned(PROBE_SPAN)),
        (ftree.FTree, "probe_edge", spanned(PROBE_SPAN)),
        (ftree.FTree, "insert_edge", spanned("ftree.insert", on_insert)),
        (ftree.FTree, "refresh", spanned("ftree.refresh")),
        (ftree.FTree, "copy", spanned("ftree.copy")),
        (ftree.FTree, "expected_flow", spanned("ftree.expected_flow")),
        (ftree.IncrementalComponentSampler, "__init__", counted(on_sampler_init)),
        (ftree.IncrementalComponentSampler, "draw", spanned("ftree.sampler.draw", on_draw)),
        (ftree.MemoStore, "lookup", counted(on_lookup)),
        (ftree.MemoStore, "store", counted(on_store)),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrappers in place inside the block, originals back on leaving it.

    A missing install site is an error, so a refactor cannot quietly change
    what a span measures.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, factory in _patches(tracer):
            if attr not in vars(owner):
                raise AttributeError(f"{getattr(owner, '__name__', owner)}.{attr} is gone")
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    total, own, calls = t.totals()
    c = t.counts
    out: dict[str, tuple[float, str]] = {}

    def rate(work: float, secs: float) -> float:
        return work / secs if secs > 0 else 0.0

    draw_s = total["ftree.sampler.draw"]
    out["ftree.sampler.draws"] = (c["ftree.sampler.draws"], "count")
    out["ftree.sampler.worlds"] = (c["ftree.sampler.worlds"], "count")
    out["ftree.sampler.edge_worlds"] = (c["ftree.sampler.edge_worlds"], "count")
    out["ftree.sampler.s"] = (draw_s, "s")
    out["ftree.sampler.edge_worlds_per_s"] = (rate(c["ftree.sampler.edge_worlds"], draw_s), "1/s")

    mc_s = total["sampling.mc_flow"]
    out["sampling.mc_flow.calls"] = (c["sampling.mc_flow.calls"], "count")
    out["sampling.mc_flow.edge_worlds"] = (c["sampling.mc_flow.edge_worlds"], "count")
    out["sampling.mc_flow.s"] = (mc_s, "s")
    out["sampling.mc_flow.edge_worlds_per_s"] = (rate(c["sampling.mc_flow.edge_worlds"], mc_s), "1/s")
    out["sampling.ci.calls"] = (c["sampling.ci.calls"], "count")

    for name in ("expected_flow", "copy", "refresh"):
        out[f"ftree.{name}.calls"] = (calls[f"ftree.{name}"], "count")
        out[f"ftree.{name}.s"] = (total[f"ftree.{name}"], "s")
    for case in INSERT_CASES:
        out[f"ftree.insert.{case}.calls"] = (calls[f"ftree.insert.{case}"], "count")
        out[f"ftree.insert.{case}.self_s"] = (own[f"ftree.insert.{case}"], "s")
    out["ftree.probe.calls"] = (c["ftree.probe.calls"], "count")
    out["ftree.probe.s"] = (total[PROBE_SPAN], "s")
    out["ftree.commit.calls"] = (len(t.commit_spans), "count")
    out["ftree.commit.s"] = (sum(t.duration(i) for i in t.commit_spans), "s")

    hits, misses = c["ftree.memo.hits"], c["ftree.memo.misses"]
    out["ftree.memo.hits"] = (hits, "count")
    out["ftree.memo.misses"] = (misses, "count")
    out["ftree.memo.stores"] = (c["ftree.memo.stores"], "count")
    out["ftree.memo.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")

    out["selection.self_s"] = (own[SELECTION_SPAN], "s")
    out["graphs.induced_subgraph.calls"] = (calls["graphs.induced_subgraph"], "count")
    out["graphs.induced_subgraph.s"] = (total["graphs.induced_subgraph"], "s")
    out["netgen.generate_s"] = (total["netgen.generate"], "s")
    return out

