"""Command-line front end: generate graphs, select edges, evaluate flows,
and sweep benchmark grids into CSV.

Every command is deterministic for a fixed seed; wall-clock columns stay 0
unless --timings is given so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import IO, Optional, Sequence

from .ftree import FTreeError, new_ftree
from .graphs import (
    Edge,
    GraphError,
    ProbabilisticGraph,
    _records,
    canonical_edge,
    load_graph,
    save_graph,
)
from .netgen import (
    FAMILIES,
    GenSpec,
    assign_close_friends,
    assign_distance_decay,
    generate,
)
from .oracle import OracleLimitError, expected_flow_of_edges
from .sampling import FlowEstimate, SamplerConfig, check_alpha
from .selection import (
    Solution,
    StrategyConfig,
    VARIANTS,
    mc_flow_of_edges,
    run_strategy,
)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _sampler_config(args: argparse.Namespace) -> SamplerConfig:
    """The sampler flags as a config; a bad ``--samples``, ``--alpha`` or
    ``--seed`` is named by its flag, in every command."""
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    check_alpha("--alpha", args.alpha)
    return SamplerConfig(samples=args.samples, alpha=args.alpha, master_seed=args.seed)


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=1000, help="Monte-Carlo sample budget")
    p.add_argument("--alpha", type=float, default=0.01, help="confidence-interval significance")
    p.add_argument("--seed", type=int, default=0, help="master random seed")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", required=True, help="edge-list file")
    p.add_argument("--weights", help="vertex-weight file")
    p.add_argument("--coords", help="vertex-coordinate file")
    p.add_argument("--query", required=True, help="query vertex label")


def _output(path: Optional[str]) -> contextlib.AbstractContextManager[IO[str]]:
    """The ``--out`` file to write, or stdout (left open) without one."""
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _load_inputs(args: argparse.Namespace) -> tuple[ProbabilisticGraph, int]:
    with contextlib.ExitStack() as files:
        streams = [
            files.enter_context(open(path, encoding="utf-8")) if path else None
            for path in (args.edges, args.weights, args.coords)
        ]
        graph = load_graph(*streams)
    q = graph.label_index.get(args.query)
    if q is None:
        raise GraphError(f"query vertex {args.query!r} not in graph")
    return graph, q


def _read_edge_set(path: str, graph: ProbabilisticGraph) -> list[Edge]:
    out: list[Edge] = []
    seen: set[Edge] = set()
    with open(path, encoding="utf-8") as fh:
        for at, (lu, lv, *_) in _records(fh, "edge-set line", "<u> <v>", (2, 3)):
            for lab in (lu, lv):
                if lab not in graph.label_index:
                    raise GraphError(f"{at}: unknown vertex {lab!r}")
            e = canonical_edge(graph.label_index[lu], graph.label_index[lv])
            if e not in graph.edge_index:
                raise GraphError(f"{at}: no such edge {lu} {lv}")
            if e in seen:
                raise GraphError(f"{at}: duplicate edge {lu} {lv}")
            seen.add(e)
            out.append(e)
    return out


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------

# The generator parameter each family never reads (``netgen._check``):
# ``generate`` refuses its flag, and ``bench`` a sweep of it, since either
# would write the same instance as without it.
UNREAD_AXIS = {"erdos": "eps", "partitioned": "eps", "wsn": "deg"}


def _cmd_generate(args: argparse.Namespace) -> int:
    unread = UNREAD_AXIS[args.family]
    if getattr(args, unread) is not None:
        raise ValueError(f"--{unread} is not read by family {args.family!r}")
    if args.no_wrap and args.family != "partitioned":
        raise ValueError(f"--no-wrap is not read by family {args.family!r}")
    if args.decay and args.close_friends is not None:
        raise ValueError("--decay and --close-friends cannot be combined: "
                         "--close-friends overwrites every decayed probability")
    if args.decay and not (math.isfinite(args.decay_lambda) and args.decay_lambda >= 0.0):
        raise ValueError("--decay-lambda must be finite and >= 0")
    if args.decay and not (math.isfinite(args.world_size_m) and args.world_size_m > 0.0):
        raise ValueError("--world-size-m must be finite and > 0")
    spec = GenSpec(
        family=args.family,
        n=args.n,
        degree=args.deg or 0,
        epsilon=args.eps or 0.0,
        seed=args.seed,
        wrap=not args.no_wrap,
        unit_weights=args.unit_weights,
    )
    graph = generate(spec)
    if args.decay:
        try:
            graph = assign_distance_decay(graph, lam=args.decay_lambda, scale=args.world_size_m)
        except ValueError as exc:
            raise ValueError(f"--decay with --decay-lambda {args.decay_lambda!r} and "
                             f"--world-size-m {args.world_size_m!r}: {exc}") from None
    if args.close_friends is not None:
        graph = assign_close_friends(graph, f=args.close_friends, seed=args.seed)
    prefix = Path(args.out)
    kinds = ("edges", "weights") + (("coords",) if graph.coordinates is not None else ())
    with contextlib.ExitStack() as files:
        streams = [files.enter_context(open(f"{prefix}.{kind}", "w", encoding="utf-8"))
                   for kind in kinds]
        save_graph(graph, *streams)
    print(f"wrote {graph.num_vertices} vertices, {graph.num_edges} edges to {prefix}.*")
    return 0


# ----------------------------------------------------------------------
# maxflow
# ----------------------------------------------------------------------

MAXFLOW_HEADER = "iter,edge_u,edge_v,flow_mean,flow_lb,flow_ub,edges_sampled,probes,pruned,delayed,elapsed_ms"


def _write_solution_csv(
    out: IO[str], solution: Solution, graph: ProbabilisticGraph, timings: bool
) -> None:
    out.write(MAXFLOW_HEADER + "\n")
    for rec in solution.trace:
        u, v = rec.edge
        row = [rec.iteration, graph.labels[u], graph.labels[v],
               _fmt(rec.flow.mean), _fmt(rec.flow.lb), _fmt(rec.flow.ub),
               rec.edges_sampled, rec.candidates_probed, rec.candidates_pruned,
               rec.candidates_delayed, rec.elapsed_ms if timings else 0]
        out.write(",".join(map(str, row)) + "\n")


def _check_ds_read(name: str, variants: Sequence[str]) -> None:
    """Refuse ``name``, ``--ds-c`` or a sweep of it, unless one of
    ``variants`` reads it: only the ``_ds`` variants do."""
    if not any("_ds" in v for v in variants):
        raise ValueError(f"{name} is read only by the _ds variants, not by {', '.join(variants)}")


def _ds_c(args: argparse.Namespace, variants: Sequence[str]) -> float:
    """``--ds-c``, checked against ``variants``, or ``StrategyConfig``'s
    default without it."""
    if args.ds_c is None:
        return StrategyConfig.ds_c
    _check_ds_read("--ds-c", variants)
    return args.ds_c


def _cmd_maxflow(args: argparse.Namespace) -> int:
    ds_c = _ds_c(args, [args.variant])
    sampler = _sampler_config(args)
    graph, q = _load_inputs(args)
    cfg = StrategyConfig(variant=args.variant, budget=args.k, sampler=sampler, ds_c=ds_c)
    solution = run_strategy(graph, q, cfg)
    with _output(args.out) as fh:
        _write_solution_csv(fh, solution, graph, args.timings)
    final = solution.final_flow(graph.weights[q])
    print(
        f"selected {len(solution.selected)} edges; final flow {_fmt(final)} "
        f"(includes the query vertex's own weight {_fmt(graph.weights[q])})",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------

def _cmd_evaluate(args: argparse.Namespace) -> int:
    sampler = _sampler_config(args)  # checked in every mode, though exact draws nothing
    graph, q = _load_inputs(args)
    edges = _read_edge_set(args.edge_set, graph) if args.edge_set else []
    if args.mode == "exact":
        flow = expected_flow_of_edges(graph, q, edges)
        lb = ub = flow
        samples = "exact"
    else:
        est = mc_flow_of_edges(graph, q, edges, sampler)
        flow, lb, ub = est.mean, est.lb, est.ub
        samples = str(est.samples_used)
    line = (
        f"mode={args.mode} flow={_fmt(flow)} lb={_fmt(lb)} ub={_fmt(ub)} samples={samples} "
        f"(includes the query vertex's own weight {_fmt(graph.weights[q])})"
    )
    print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("mode,flow_mean,flow_lb,flow_ub,samples\n")
            fh.write(f"{args.mode},{_fmt(flow)},{_fmt(lb)},{_fmt(ub)},{samples}\n")
    return 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------

# The generator flags' values when not given; ``--edges`` input reads none
# of them, so it refuses each one given.  Generated input reads none of the
# input-file flags (``--weights``, ``--coords``, ``--query``), so it refuses
# those, and ``--query`` defaults to "0" only for ``--edges`` input.
BENCH_GENERATOR_DEFAULTS = {"family": "erdos", "n": 100, "deg": 6, "eps": 0.1}

BENCH_HEADER = (
    "axis,value,variant,repeat,flow_ref,ref_lb,ref_ub,flow_self,selected,elapsed_ms,"
    "flow_ref_mean,flow_ref_var"
)


def _bench_point(
    graph: ProbabilisticGraph,
    q: int,
    cfg: StrategyConfig,
    repeat: int,
    seed: int,
    ref_sampler: SamplerConfig,
    refs: dict[tuple[Edge, ...], FlowEstimate],
    timings: bool,
) -> list[str]:
    cfg = replace(cfg, sampler=replace(cfg.sampler, master_seed=seed + repeat))
    start = time.perf_counter()
    solution = run_strategy(graph, q, cfg)
    ms = int((time.perf_counter() - start) * 1000) if timings else 0
    # Reference evaluation: one sampler config shared by every variant at
    # this sweep point, so achieved flows are compared on equal footing.
    # ``refs`` holds this repeat's estimates by selection, so variants that
    # select the same edges (ft, ft_m and ft_m_ci do) share one.
    key = tuple(solution.selected)
    if key not in refs:
        ref_cfg = replace(ref_sampler, master_seed=seed + repeat)
        refs[key] = mc_flow_of_edges(graph, q, solution.selected, ref_cfg)
    ref = refs[key]
    self_flow = solution.final_flow(graph.weights[q])
    return [
        cfg.variant,
        str(repeat),
        _fmt(ref.mean),
        _fmt(ref.lb),
        _fmt(ref.ub),
        _fmt(self_flow),
        str(len(solution.selected)),
        str(ms),
    ]


def _cmd_bench(args: argparse.Namespace) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError("--variants names no variant")
    for i, v in enumerate(variants):
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
        if v in variants[:i]:
            raise ValueError(f"variant {v!r} listed twice in --variants")
    if args.repeat < 1:
        raise ValueError("--repeat must be >= 1")
    # Checked here, so a bad flag is named before any selection runs.
    sampler = _sampler_config(args)
    if args.ref_samples < 1:
        raise ValueError("--ref-samples must be >= 1")
    ds_c = _ds_c(args, variants)
    ref_sampler = replace(sampler, samples=args.ref_samples)
    instance = None
    if args.edges:
        generator_flags = (
            ("--family", args.family), ("--n", args.n), ("--deg", args.deg), ("--eps", args.eps),
            ("--unit-weights", args.unit_weights or None),
        )
        for flag, value in generator_flags:
            if value is not None:
                raise ValueError(f"{flag} is not read with --edges input")
        if args.query is None:
            args.query = "0"
        graph, q = _load_inputs(args)
        instance = (graph, q)
    else:
        for flag, value in (("--weights", args.weights), ("--coords", args.coords), ("--query", args.query)):
            if value is not None:
                raise ValueError(f"{flag} is read only with --edges input")
        for name, default in BENCH_GENERATOR_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
    # The five sweep axes' values; a sweep point replaces its axis's value.
    axes = {"n": args.n, "deg": args.deg, "k": args.k, "eps": args.eps, "c": ds_c}
    axis = "k"
    values: list[float] = [args.k]
    if args.sweep:
        axis, _, raw = args.sweep.partition("=")
        axis = axis.strip()
        if axis not in axes:
            raise ValueError(f"unknown sweep axis {axis!r}")
        if instance is not None and axis in ("n", "deg", "eps"):
            raise ValueError(f"axis {axis!r} requires generated instances, not --edges input")
        if instance is None and axis == UNREAD_AXIS[args.family]:
            raise ValueError(f"sweep axis {axis!r} is not read by family {args.family!r}")
        if axis == "c":
            _check_ds_read("sweep axis 'c'", variants)
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
        if not values:
            raise ValueError("empty sweep value list")
        if axis in ("n", "deg", "k") and not all(x.is_integer() for x in values):
            raise ValueError(f"sweep axis {axis!r} takes whole numbers, got {raw!r}")
        # A point's rows carry its formatted value, so "2" and "2.0" would
        # write the same point twice.
        labels = [_fmt(x) for x in values]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"sweep value {label} listed twice in --sweep")

    # Every point's instance spec and configs are built, and so checked,
    # before any selection runs.
    points = []
    for value in values:
        point = {**axes, axis: int(value) if axis in ("n", "deg", "k") else value}
        source = instance or GenSpec(
            family=args.family, n=point["n"], degree=point["deg"], epsilon=point["eps"],
            seed=args.seed, unit_weights=args.unit_weights,
        )
        cfgs = [StrategyConfig(variant, point["k"], sampler, point["c"]) for variant in variants]
        points.append((value, source, cfgs))

    # Each repeat's instance is generated once and serves every variant;
    # rows go by variant, then repeat, each with its variant's spread
    # across the repeats, for variance studies.
    rows = []
    for value, source, cfgs in points:
        runs: list[list[list[str]]] = [[] for _ in cfgs]
        for repeat in range(args.repeat):
            if isinstance(source, GenSpec):  # generated instances query the first vertex
                graph, q = generate(replace(source, seed=args.seed + 7919 * repeat)), 0
            else:
                graph, q = source
            refs: dict[tuple[Edge, ...], FlowEstimate] = {}
            for cfg, cells in zip(cfgs, runs):
                cells.append(_bench_point(graph, q, cfg, repeat, args.seed, ref_sampler, refs, args.timings))
        for cells in runs:
            flows = [float(cell[2]) for cell in cells]
            mean = sum(flows) / len(flows)
            var = sum((f - mean) ** 2 for f in flows) / (len(flows) - 1) if len(flows) > 1 else 0.0
            rows.extend([axis, _fmt(value), *cell, _fmt(mean), _fmt(var)] for cell in cells)

    with _output(args.out) as fh:
        fh.write(BENCH_HEADER + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return 0


# ----------------------------------------------------------------------
# dump-ftree
# ----------------------------------------------------------------------

def _cmd_dump_ftree(args: argparse.Namespace) -> int:
    graph, q = _load_inputs(args)
    cfg = SamplerConfig()
    tree = new_ftree(q)
    # The dump shows structure only, and only an evaluation builds reach
    # tables, so nothing is sampled.
    if args.insert:
        for e in _read_edge_set(args.insert, graph):
            tree.insert_edge(graph, e, cfg)
    else:
        while cands := tree.candidates(graph):
            tree.insert_edge(graph, cands[0], cfg)
    with _output(args.out) as fh:
        fh.write(tree.dump(graph) + "\n")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probflow",
        description="Budgeted expected-information-flow maximization in probabilistic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance to files")
    g.add_argument("family", choices=FAMILIES)
    g.add_argument("--n", type=int, required=True, help="vertex count")
    g.add_argument("--deg", type=int, help="vertex degree (erdos, partitioned)")
    g.add_argument("--eps", type=float, help="connection radius (wsn)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--no-wrap", action="store_true", help="open the partition ring into a path")
    g.add_argument("--unit-weights", action="store_true", help="weight 1.0 everywhere")
    g.add_argument("--decay", action="store_true", help="distance-decay edge probabilities")
    g.add_argument("--decay-lambda", type=float, default=0.001, help="decay rate per meter")
    g.add_argument("--world-size-m", type=float, default=10000.0,
                   help="meters per coordinate unit for --decay")
    g.add_argument("--close-friends", type=int, default=None, metavar="F",
                   help="close-friends probability split with F picks per vertex")
    g.add_argument("--out", default="graph", help="output file prefix")
    g.set_defaults(func=_cmd_generate)

    m = sub.add_parser("maxflow", help="run a selection strategy, write the iteration CSV")
    _add_input_flags(m)
    m.add_argument("--variant", choices=VARIANTS, default="ft_m")
    m.add_argument("--k", type=int, required=True, help="edge budget")
    m.add_argument("--ds-c", type=float, help="delay penalization base of the _ds variants (default 2.0)")
    _add_sampler_flags(m)
    m.add_argument("--timings", action="store_true", help="fill elapsed_ms (breaks byte-determinism)")
    m.add_argument("--out", help="CSV path (default stdout)")
    m.set_defaults(func=_cmd_maxflow)

    e = sub.add_parser("evaluate", help="flow of a given edge set, exact or sampled")
    _add_input_flags(e)
    e.add_argument("--edge-set", help="file of selected edges, '<u> <v>' per line")
    e.add_argument("--mode", choices=("exact", "mc"), default="exact")
    _add_sampler_flags(e)
    e.add_argument("--out", help="optional CSV path")
    e.set_defaults(func=_cmd_evaluate)

    b = sub.add_parser("bench", help="sweep variants over an axis, write a CSV matrix")
    b.add_argument("--edges", help="run on this edge-list file instead of generating")
    b.add_argument("--weights", help="vertex-weight file for --edges")
    b.add_argument("--coords", help="vertex-coordinate file for --edges")
    b.add_argument("--query", help="query vertex label for --edges (default 0)")
    b.add_argument("--family", choices=FAMILIES, help="generated family (default erdos)")
    b.add_argument("--n", type=int, help="generated vertex count (default 100)")
    b.add_argument("--deg", type=int, help="generated vertex degree (default 6)")
    b.add_argument("--eps", type=float, help="generated connection radius (default 0.1)")
    b.add_argument("--k", type=int, default=20)
    b.add_argument("--variants", default="ft,dijkstra,naive")
    b.add_argument("--ds-c", type=float, help="delay penalization base of the _ds variants (default 2.0)")
    b.add_argument("--sweep", help="axis=v1,v2,... with axis in {n,deg,k,eps,c}")
    b.add_argument("--repeat", type=int, default=1)
    b.add_argument("--ref-samples", type=int, default=100000,
                   help="reference evaluation sample budget")
    b.add_argument("--unit-weights", action="store_true", help="weight 1.0 everywhere (generated)")
    _add_sampler_flags(b)
    b.add_argument("--timings", action="store_true", help="fill elapsed_ms (breaks byte-determinism)")
    b.add_argument("--out", help="CSV path (default stdout)")
    b.set_defaults(func=_cmd_bench)

    d = sub.add_parser("dump-ftree", help="insert edges and print the component tree")
    _add_input_flags(d)
    d.add_argument("--insert", help="ordered edge file; default inserts all reachable edges")
    d.add_argument("--out", help="write the dump to a file")
    d.set_defaults(func=_cmd_dump_ftree)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphError, FTreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
