"""probflow benchmark: per-variant selection time on three graph families.

Run from the root of a checkout:

    python3 perfbench/run.py --workload erdos-sparse --seed 1 --seconds 35 --trace 0

The benchmark imports the library from the checkout's ``src`` directory and
drives it from this single process, with no worker threads or pools.  A run
does a fixed amount of work, PASSES passes over its workload's graphs, sized
to take about 35 s on the VM it was built on; ``--seconds`` is that nominal
length and does not change the work, so what a run measures does not
depend on how fast the host happens to be.

``--trace 0`` measures the end-to-end metrics with unmodified library code.
``--trace 1`` makes the same untraced measurement, then runs the first
graphs once more with span-recording wrappers installed, writes the spans under
``.bench_out/`` and reports the per-layer metrics.  Both modes check every
output they time, print every metric by name with its unit, and end with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "probflow"
if not (LIBRARY / "__init__.py").is_file():
    sys.exit(f"perfbench: no probflow sources at {LIBRARY}; run from a full checkout")
sys.path.insert(0, str(LIBRARY.parent))

import probflow  # noqa: E402
from probflow import (  # noqa: E402
    ProbabilisticGraph,
    SamplerConfig,
    Solution,
    StrategyConfig,
    graphs,
    new_ftree,
    run_strategy,
    sampling,
    selection,
)

import tracer as tr  # noqa: E402
from workloads import QUERY, REF_SAMPLES, SAMPLES, VARIANTS, WORKLOADS, Workload  # noqa: E402

# Selections whose reference flow is reported: the memoized baseline and the
# variant with every heuristic on.
FLOW_REF_VARIANTS = ("ft_m", "ft_m_ci_ds")
ITER_VARIANT = "ft_m"  # the variant whose iteration times are reported
E2E_METRICS = {
    "setup_s", "iter_ms_p50", "iter_ms_p90", "evaluate_s", "peak_rss_mb",
    *(f"select_s.{v}" for v in VARIANTS),
    *(f"flow_ref.{v}" for v in FLOW_REF_VARIANTS),
}
OUT_DIR = ROOT / ".bench_out"


class _ClockLog:
    """Stands in for the ``time`` module inside ``probflow.selection`` during
    a timed selection, recording the perf_counter reads the selectors
    already make at the start and end of each iteration."""

    def __init__(self) -> None:
        self.reads: list[float] = []

    def perf_counter(self) -> float:
        t = time.perf_counter()
        self.reads.append(t)
        return t


def iteration_seconds(reads: list[float], solution: Solution) -> list[float]:
    """Per-iteration durations, cross-checked against the trace's elapsed_ms."""
    out = []
    for i, rec in enumerate(solution.trace):
        start, end = reads[2 * i], reads[2 * i + 1]
        if int((end - start) * 1000) != rec.elapsed_ms:
            raise ValueError("iteration clock reads do not match the selection trace")
        out.append(end - start)
    return out


def setup_instance(wl: Workload, graph_seed: int) -> ProbabilisticGraph:
    """Generate one graph and build the graph caches selection reads."""
    graph = wl.generate(graph_seed)
    graph.edge_index, graph.adjacency, graph.label_index  # noqa: B018
    return graph


def strategy(wl: Workload, variant: str, master_seed: int) -> StrategyConfig:
    return StrategyConfig(
        variant=variant,
        budget=wl.budget(variant),
        sampler=SamplerConfig(samples=SAMPLES, master_seed=master_seed),
    )


def evaluate(wl: Workload, graph: ProbabilisticGraph, edges, master_seed: int) -> float:
    """Reference flow of an edge set: the `evaluate --mode mc` path, with the
    `bench` reference estimator's seeding shared by every variant."""
    verts = {QUERY, *(v for e in edges for v in e)}
    sub = graphs.induced_subgraph(graph, verts, edges)
    cfg = SamplerConfig(samples=REF_SAMPLES, master_seed=master_seed)
    return sampling.mc_expected_flow(sub, sub.label_index[graph.labels[QUERY]], cfg).mean


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

# The 2-vCPU VM this benchmark was built on shares its cores with other
# tenants.  Its throughput drifts by up to 2x over minutes, and the time
# the host takes from this process does not show up as steal time, so CPU
# time drifts with wall time.  Every timing is therefore scaled by the
# host's speed during the run, measured with a fixed reference kernel
# timed before each graph's setup, each selection and each evaluation: a
# metric reads as the seconds the work would take on a host where the
# kernel takes REFERENCE_KERNEL_S.  The kernel uses no library code, so a
# change to the library moves the metrics by its full effect.
REFERENCE_KERNEL_S = 0.004


def reference_kernel() -> float:
    """Fixed work of the kind the library's inner loops do: small seeded
    numpy batches of sampled worlds and dict bookkeeping."""
    rng = np.random.default_rng(2017)
    total = 0.0
    table: dict[tuple[int, int], int] = {}
    for i in range(80):
        worlds = rng.random((100, 16)) < 0.6
        total += float(worlds.sum(axis=1).mean())
        for j in range(40):
            table[(i, j)] = table.get((i, j - 1), 0) + j
        table = dict(table)
    return total


def time_reference_kernel() -> float:
    """Seconds the reference kernel takes, with the collector off so the
    library's heap cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_scale(kernel_seconds: list[float]) -> float:
    """Factor from this run's wall seconds to reference seconds."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_seconds)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def check_edges(graph: ProbabilisticGraph, sol: Solution, budget: int) -> list[str]:
    """At most ``budget`` distinct graph edges, each touching the part
    already connected to the query vertex when it was chosen."""
    problems = []
    if len(set(sol.selected)) != len(sol.selected):
        problems.append("repeated edge in selection")
    if len(sol.selected) > budget:
        problems.append(f"{len(sol.selected)} edges over budget {budget}")
    attached = {QUERY}
    for e in sol.selected:
        if e not in graph.edge_index:
            problems.append(f"edge {e} not in graph")
        elif e[0] not in attached and e[1] not in attached:
            problems.append(f"edge {e} not connected to the query vertex")
        attached.update(e)
    return problems


def check_tree_selection(graph: ProbabilisticGraph, sol: Solution, cfg: StrategyConfig) -> list[str]:
    """Replay into a fresh tree: invariants hold and the replayed flow is
    the flow the run reported for its last commit."""
    problems = check_edges(graph, sol, cfg.budget)
    if problems or not sol.selected:
        return problems or ["empty selection"]
    tree = new_ftree(QUERY)
    for e in sol.selected:
        tree.insert_edge(graph, e, cfg.sampler)
    tree.verify(graph)
    replayed = tree.expected_flow(graph).mean
    reported = sol.trace[-1].flow.mean
    if not math.isclose(replayed, reported, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"replayed flow {replayed!r} != reported {reported!r}")
    return problems


def check_selection(graph: ProbabilisticGraph, sol: Solution, cfg: StrategyConfig) -> list[str]:
    if cfg.variant == "naive":
        return check_edges(graph, sol, cfg.budget) or ([] if sol.selected else ["empty selection"])
    return check_tree_selection(graph, sol, cfg)


# ----------------------------------------------------------------------
# untraced measurement
# ----------------------------------------------------------------------

# Every cell is repeated exactly PASSES times in a run, whatever the host's
# speed, so no cell's median depends on how fast the host or another step
# ran.
PASSES = 3
# A setup takes a few milliseconds, so each pass repeats it: its cell median
# rests on PASSES * SETUP_REPEATS samples.
SETUP_REPEATS = 3


@dataclass
class Instance:
    graph_seed: int
    master_seed: int
    graph: ProbabilisticGraph | None = None
    solutions: dict[str, Solution] = field(default_factory=dict)


@dataclass
class Measurement:
    """Raw samples of one run.  A cell is one (graph index, step) pair; its
    repeats, one per pass, do identical work."""

    instances: list[Instance]
    setup: dict[int, list[float]] = field(default_factory=dict)
    # per repeat: total seconds and each iteration's seconds
    select: dict[tuple[int, str], list[tuple[float, list[float]]]] = field(default_factory=dict)
    evaluate: dict[tuple[int, str], list[float]] = field(default_factory=dict)
    flow_ref: dict[tuple[int, str], float] = field(default_factory=dict)
    kernel: list[float] = field(default_factory=list)  # reference kernel seconds
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def _guarded(m: Measurement, what: str, fn) -> None:
    """Run one operation; an exception counts it failed and the run goes on."""
    m.attempted += 1
    try:
        problems = fn()
    except Exception:  # the benchmark reports failures instead of stopping
        traceback.print_exc()
        problems = ["raised"]
    if problems:
        m.fail(what, problems)


def _setup(m: Measurement, wl: Workload, idx: int) -> list[str]:
    inst = m.instances[idx]
    start = time.perf_counter()
    graph = setup_instance(wl, inst.graph_seed)
    m.setup.setdefault(idx, []).append(time.perf_counter() - start)
    if inst.graph is None:
        inst.graph = graph
    return [] if graph == inst.graph else ["regenerated graph differs"]


def _run_selection(m: Measurement, wl: Workload, idx: int, variant: str) -> list[str]:
    inst = m.instances[idx]
    cfg = strategy(wl, variant, inst.master_seed)
    clock = _ClockLog()
    selection.time = clock
    try:
        start = time.perf_counter()
        sol = run_strategy(inst.graph, QUERY, cfg)
        elapsed = time.perf_counter() - start
    finally:
        selection.time = time
    m.select.setdefault((idx, variant), []).append((elapsed, iteration_seconds(clock.reads, sol)))
    first = inst.solutions.setdefault(variant, sol)
    if first is not sol:
        return [] if sol == first else ["repeat gave a different selection"]
    problems = check_selection(inst.graph, sol, cfg)
    if variant == "ft_m" and sol.selected != inst.solutions["ft"].selected:
        problems.append("ft and ft_m selections differ")
    return problems


def _run_evaluations(m: Measurement, wl: Workload, idx: int) -> list[str]:
    inst = m.instances[idx]
    problems = []
    for variant in FLOW_REF_VARIANTS:
        start = time.perf_counter()
        flow = evaluate(wl, inst.graph, inst.solutions[variant].selected, inst.master_seed)
        m.evaluate.setdefault((idx, variant), []).append(time.perf_counter() - start)
        if m.flow_ref.setdefault((idx, variant), flow) != flow:
            problems.append(f"{variant} reference flow not repeatable")
        if not (inst.graph.weights[QUERY] <= flow <= sum(inst.graph.weights)):
            problems.append(f"{variant} reference flow {flow} outside its range")
    return problems


def measure(wl: Workload, seed: int, passes: int = PASSES) -> Measurement:
    """``passes`` full passes over every graph: set up, select with each
    variant, evaluate."""
    m = Measurement([Instance(g, s) for g, s in wl.instances(seed)])
    for _ in range(passes):
        for idx in range(len(m.instances)):
            m.kernel.append(time_reference_kernel())
            for _ in range(SETUP_REPEATS):
                _guarded(m, f"setup #{idx}", lambda: _setup(m, wl, idx))
            for variant in VARIANTS:
                m.kernel.append(time_reference_kernel())
                _guarded(m, f"{variant} #{idx}", lambda: _run_selection(m, wl, idx, variant))
            m.kernel.append(time_reference_kernel())
            _guarded(m, f"evaluate #{idx}", lambda: _run_evaluations(m, wl, idx))
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def _median_iterations(repeats: list[tuple[float, list[float]]]) -> list[float]:
    """Each iteration's median over the repeats of its cell."""
    return [statistics.median(col) for col in zip(*(iters for _, iters in repeats))]


def end_to_end(m: Measurement) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count); absent when nothing succeeded.

    Each cell's time is the median of its repeats; a metric is the mean
    over graphs, in reference seconds (see ``host_scale``)."""
    out: dict[str, tuple[float, str, int]] = {}
    scale = host_scale(m.kernel)

    def timing(name: str, cells: list[list[float]]) -> None:
        if cells:
            value = scale * statistics.fmean(map(statistics.median, cells))
            out[name] = (value, "s", sum(map(len, cells)))

    timing("setup_s", list(m.setup.values()))
    for variant in VARIANTS:
        timing(f"select_s.{variant}", [[t for t, _ in reps] for (_, v), reps in m.select.items() if v == variant])
    iter_cells = [reps for (_, v), reps in m.select.items() if v == ITER_VARIANT]
    iters = [t for reps in iter_cells for t in _median_iterations(reps)]
    if len(iters) >= 2:
        n = sum(len(its) for reps in iter_cells for _, its in reps)
        p90 = statistics.quantiles(iters, n=10, method="inclusive")[8]
        out["iter_ms_p50"] = (1000 * scale * statistics.median(iters), "ms", n)
        out["iter_ms_p90"] = (1000 * scale * p90, "ms", n)
    timing("evaluate_s", list(m.evaluate.values()))
    for variant in FLOW_REF_VARIANTS:
        flows = [f for (_, v), f in m.flow_ref.items() if v == variant]
        if flows:
            out[f"flow_ref.{variant}"] = (statistics.fmean(flows), "flow", len(flows))
    out["peak_rss_mb"] = (m.peak_rss_mb, "MB", 1)
    return out


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def traced_pass(wl: Workload, seed: int, count: int):
    """Run the first ``count`` graphs once under the tracer.

    Returns the tracer, selection counters, per-cell traced selection
    seconds, solutions and reference flows, and the reference kernel's
    times, taken before each selection.
    """
    t = tr.Tracer()
    kernel: list[float] = []
    seconds: dict[tuple[int, str], float] = {}
    solutions: dict[tuple[int, str], Solution] = {}
    flows: dict[tuple[int, str], float] = {}
    with tr.installed(t):
        for idx, (graph_seed, master_seed) in enumerate(wl.instances(seed, count)):
            graph, _ = t.call("bench.setup", setup_instance, wl, graph_seed)
            for variant in VARIANTS:
                kernel.append(time_reference_kernel())
                t.live_tree = None
                cfg = strategy(wl, variant, master_seed)
                sol, span = t.call(tr.SELECTION_SPAN, run_strategy, graph, QUERY, cfg)
                seconds[(idx, variant)] = t.duration(span)
                solutions[(idx, variant)] = sol
            for variant in FLOW_REF_VARIANTS:
                edges = solutions[(idx, variant)].selected
                flows[(idx, variant)], _ = t.call(
                    "bench.evaluate", evaluate, wl, graph, edges, master_seed
                )
    records = [r for sol in solutions.values() for r in sol.trace]
    counters = {
        "selection.iterations": len(records),
        "selection.probes": sum(r.candidates_probed for r in records),
        "selection.pruned": sum(r.candidates_pruned for r in records),
        "selection.delayed": sum(r.candidates_delayed for r in records),
    }
    return t, counters, seconds, solutions, flows, kernel


def per_layer(
    wl: Workload, seed: int, m: Measurement
) -> tuple[dict[str, tuple[float, str]], list[str], tr.Tracer]:
    """Traced pass over the first graphs; returns the per-layer metrics, the
    ways its outputs differ from the untraced run's, and the tracer."""
    t, counters, traced_s, solutions, flows, kernel = traced_pass(wl, seed, wl.traced_graphs)
    problems = [
        f"traced {v} #{idx} selected differently"
        for (idx, v), sol in solutions.items()
        if m.instances[idx].solutions.get(v) != sol
    ] + [
        f"traced {v} #{idx} reference flow differs"
        for (idx, v), flow in flows.items()
        if m.flow_ref.get((idx, v)) != flow
    ]
    out = tr.layer_metrics(t)
    for name, value in counters.items():
        out[name] = (value, "count")
    probed = counters["selection.probes"]
    out["selection.prune_ratio"] = (counters["selection.pruned"] / probed if probed else 0.0, "ratio")
    # Overhead against the same cells' median untraced wall time, with the
    # traced time carried over to the host speed of the untraced run.
    untraced = sum(
        statistics.median(total for total, _ in m.select[cell]) for cell in traced_s if cell in m.select
    )
    traced = sum(traced_s.values()) * host_scale(kernel) / host_scale(m.kernel)
    overhead = traced - untraced
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_frac"] = (overhead / untraced if untraced > 0 else 0.0, "ratio")
    out["host.kernel_ms"] = (1000 * statistics.median(m.kernel), "ms")
    return out, problems, t


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="nominal run length; the work is fixed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not Path(probflow.__file__).resolve().is_relative_to(LIBRARY):
        print(f"perfbench: imported probflow from {probflow.__file__}, not {LIBRARY}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    m = measure(wl, args.seed)
    e2e = end_to_end(m)
    missing = sorted(E2E_METRICS - set(e2e))
    if missing:
        print(f"perfbench: no successful samples for {', '.join(missing)}", file=sys.stderr)
        return 1

    kernel_ms = 1000 * statistics.median(m.kernel)
    print(f"# {wl.name} seed={args.seed} graphs={wl.graphs} passes={PASSES}"
          f" reference kernel {kernel_ms:.4g} ms (wall seconds x {host_scale(m.kernel):.4g})")
    for name, (value, unit, n) in e2e.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} n={n}")
    print(f"{'fail_frac':40s} {m.failed / m.attempted:14.6g} {'ratio':6s} n={m.attempted}")
    metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}

    if args.trace:
        layers, problems, t = per_layer(wl, args.seed, m)
        t.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json")
        m.attempted += 1
        if problems:
            m.fail("traced pass", problems)
        layers["fail_frac"] = (m.failed / m.attempted, "ratio")
        print(f"# per layer, one traced pass over {wl.traced_graphs} graph(s)")
        for name, (value, unit) in layers.items():
            print(f"{name:40s} {value:14.6g} {unit:6s}")
        metrics = layers

    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
