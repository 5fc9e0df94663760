"""Digests of every component-tree variant's selection traces.

A change that must leave results bit for bit as they were shows it here:
for each graph family and variant it prints one sha256 over the full
traces of its runs, each record's edge, its flow (mean, lb, ub) in hex,
its worlds, its edges sampled and its probed, pruned and delayed counts,
beside the number of runs and the pruned and delayed totals.  A second
sha256, ``selection``, hashes the same records with lb and ub left out,
so a change that moves only the bounds shows identical selection digests
beside moved full ones.

The runs cover, for generator seeds s = 1, 2, 3 and 20, 250 and 1000
samples (master seed 7):

- ``gen_erdos(200, 6, s)`` at k=30;
- ``gen_partitioned(200, 8, s)`` at k=20;
- ``assign_distance_decay(gen_wsn(500, 0.08, s), lam=0.001, scale=10000)``
  at k=15.

``tools/tracedigest.txt`` holds the expected output, and the pinned test
``tests/test_tools.py::test_trace_digests_match_the_committed_file`` fails
when the output differs from it.  A change that moves any result, a
bound's last bit included, regenerates the file and names the moved rows.
Run from the repository root:

    python3 tools/tracedigest.py | diff tools/tracedigest.txt -
    python3 tools/tracedigest.py > tools/tracedigest.txt  # after a result-changing change
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from probflow import (  # noqa: E402
    SamplerConfig, StrategyConfig, assign_distance_decay, gen_erdos, gen_partitioned, gen_wsn,
    run_strategy,
)

VARIANTS = ("ft", "ft_m", "ft_m_ci", "ft_m_ds", "ft_m_ci_ds")
SEEDS = (1, 2, 3)
SAMPLES = (20, 250, 1000)
MASTER_SEED = 7
FAMILIES = {
    "erdos-200": (lambda s: gen_erdos(200, 6, s), 30),
    "partitioned-200": (lambda s: gen_partitioned(200, 8, s), 20),
    "wsn-500-decay": (
        lambda s: assign_distance_decay(gen_wsn(500, 0.08, s), lam=0.001, scale=10000), 15,
    ),
}


def record_text(r, bounds: bool = True) -> str:
    """One trace record as hashed; without its lb and ub unless ``bounds``."""
    f = r.flow
    flow = f"{f.mean.hex()} {f.lb.hex()} {f.ub.hex()}" if bounds else f.mean.hex()
    return (
        f"{r.iteration} {r.edge} {flow} {f.samples_used} "
        f"{r.edges_sampled} {r.candidates_probed} {r.candidates_pruned} {r.candidates_delayed}\n"
    )


def digests(traces) -> tuple[str, str]:
    """The full and the selection sha256 of these runs' traces, in order."""
    full, selection = hashlib.sha256(), hashlib.sha256()
    for trace in traces:
        for r in trace:
            full.update(record_text(r).encode())
            selection.update(record_text(r, bounds=False).encode())
        full.update(b"--\n")
        selection.update(b"--\n")
    return full.hexdigest(), selection.hexdigest()


def main() -> int:
    print(f"{'family':<18}{'variant':<12}{'runs':>5}{'pruned':>8}{'delayed':>9}  {'sha256':<64}  selection")
    for family, (generate, k) in FAMILIES.items():
        graphs = [generate(s) for s in SEEDS]
        for variant in VARIANTS:
            traces = [
                run_strategy(graph, 0, StrategyConfig(
                    variant, k, SamplerConfig(samples=samples, master_seed=MASTER_SEED)
                )).trace
                for graph in graphs
                for samples in SAMPLES
            ]
            records = [r for trace in traces for r in trace]
            pruned = sum(r.candidates_pruned for r in records)
            delayed = sum(r.candidates_delayed for r in records)
            full, selection = digests(traces)
            print(f"{family:<18}{variant:<12}{len(traces):>5}{pruned:>8}{delayed:>9}  {full}  {selection}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop without a traceback,
        # and point stdout at devnull so the exit's flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
