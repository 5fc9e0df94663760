"""The benchmark's workloads: graph families, budgets and run sizes.

Each workload runs on a fixed corpus of graphs, generated from generator
seeds 1..``graphs`` (seed 1 is the instance the ROADMAP baselines were
measured on).  The workload seed drives every random stream the program
reads: the selection sampler's master seed and the reference estimator's.
Generated graphs differ so much in cost (coefficient of variation 0.35-0.6
per variant on the dense families) that a run over seed-generated graphs
could not be steady in one run's time; on a fixed graph, varying the
master seed varies the greedy path and its cost by 0.15-0.2.

Generators are looked up on ``probflow.netgen`` at call time so the traced
run sees them through its wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from probflow import ProbabilisticGraph, netgen

QUERY = 0
SAMPLES = 1000
# Reference estimator budget: 20x the selection's.  The `bench` command's
# default of 100000 costs 0.5 s per evaluation, time a run needs for graphs.
REF_SAMPLES = 20_000
# `naive` samples the whole chosen subgraph for every candidate, so its cost
# climbs steeply with the budget (3.8 s at k=30 on erdos); at k=10 it takes
# a tenth (erdos) to a quarter (wsn) of a pass.
NAIVE_K = 10
VARIANTS = ("ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds", "naive")


def _erdos(seed: int) -> ProbabilisticGraph:
    return netgen.gen_erdos(200, 6, seed)


def _partitioned(seed: int) -> ProbabilisticGraph:
    return netgen.gen_partitioned(200, 8, seed)


def _wsn(seed: int) -> ProbabilisticGraph:
    return netgen.assign_distance_decay(netgen.gen_wsn(500, 0.08, seed), lam=0.001, scale=10000)


@dataclass(frozen=True)
class Workload:
    """One graph family at one budget.

    A run covers every graph of the corpus once per pass; the first
    ``traced_graphs`` of them are re-run under the tracer.
    """

    name: str
    generate: Callable[[int], ProbabilisticGraph]
    k: int
    graphs: int
    traced_graphs: int

    def budget(self, variant: str) -> int:
        return NAIVE_K if variant == "naive" else self.k

    def instances(self, seed: int, count: int | None = None) -> list[tuple[int, int]]:
        """(generator seed, master seed) of the first ``count`` graphs."""
        count = self.graphs if count is None else count
        masters = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
        return [(i + 1, int(s)) for i, s in enumerate(masters)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="erdos-sparse", generate=_erdos, k=30, graphs=8, traced_graphs=2),
        Workload(name="partitioned-dense", generate=_partitioned, k=20, graphs=10, traced_graphs=2),
        Workload(name="wsn-decay", generate=_wsn, k=15, graphs=14, traced_graphs=3),
    )
}
