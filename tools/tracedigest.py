"""Digests of every component-tree variant's selection traces.

A change that must leave results bit for bit as they were shows it here:
for each graph family and variant it prints one sha256 over the full
traces of its runs, each record's edge, its flow (mean, lb, ub) in hex,
its worlds, its edges sampled and its probed, pruned and delayed counts,
beside the number of runs and the pruned and delayed totals.

The runs cover, for generator seeds s = 1, 2, 3 and 20, 250 and 1000
samples (master seed 7):

- ``gen_erdos(200, 6, s)`` at k=30;
- ``gen_partitioned(200, 8, s)`` at k=20;
- ``assign_distance_decay(gen_wsn(500, 0.08, s), lam=0.001, scale=10000)``
  at k=15.

``tools/tracedigest.txt`` holds the expected output, and CI fails when the
output differs from it.  A change that moves a selection result
regenerates the file and names the moved rows.  Run from the repository
root:

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


def record_text(r) -> str:
    f = r.flow
    return (
        f"{r.iteration} {r.edge} {f.mean.hex()} {f.lb.hex()} {f.ub.hex()} {f.samples_used} "
        f"{r.edges_sampled} {r.candidates_probed} {r.candidates_pruned} {r.candidates_delayed}\n"
    )


def main() -> int:
    print(f"{'family':<18}{'variant':<12}{'runs':>5}{'pruned':>8}{'delayed':>9}  sha256")
    for family, (generate, k) in FAMILIES.items():
        graphs = [generate(s) for s in SEEDS]
        for variant in VARIANTS:
            digest, runs, pruned, delayed = hashlib.sha256(), 0, 0, 0
            for graph in graphs:
                for samples in SAMPLES:
                    cfg = StrategyConfig(variant, k, SamplerConfig(samples=samples, master_seed=MASTER_SEED))
                    for r in run_strategy(graph, 0, cfg).trace:
                        digest.update(record_text(r).encode())
                        pruned += r.candidates_pruned
                        delayed += r.candidates_delayed
                    digest.update(b"--\n")
                    runs += 1
            print(f"{family:<18}{variant:<12}{runs:>5}{pruned:>8}{delayed:>9}  {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop without a traceback,
        # and point stdout at devnull so the exit's flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
