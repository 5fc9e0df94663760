"""Wall time and peak memory of the world kernels and of selection at scale.

Each kernel runs once in a fresh Python process, so that one's peak cannot
hide another's:

- ``mc_expected_flow`` on the whole
  ``assign_distance_decay(gen_wsn(500, 0.08, 1), lam=0.001, scale=10000)``
  graph (2309 edges) at 20 000 samples: the draw path;
- ``exact_expected_flow`` on the tests' 20-edge graph
  (``twenty_edge_graph`` in ``tests/util.py``), 2^20 worlds: the
  enumeration path at the oracle's limit;
- ``run_strategy`` of ``ft_m`` and of ``ft_m_ci`` on
  ``gen_partitioned(1000, 8, 1)`` at k=200 (1000 samples, master seed 7):
  the memoized greedy and its interval-checked variant at scale;
- ``run_strategy`` of ``ft_m`` on
  ``assign_distance_decay(gen_wsn(2000, 0.04, 1), lam=0.001, scale=10000)``
  at k=200 (1000 samples, master seed 7), where many probed rings go stale
  at a cycle commit and keep their tables.

Each line gives the kernel call's wall seconds (imports and graph
construction not included), the process's maximum resident set size
(``ru_maxrss``, which includes the interpreter and numpy) and the value
computed: a flow, or a selection's last recorded flow.  The library and
the tests' helpers are imported from this checkout.

Run from the repository root:

    python3 tools/peakmem.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNELS = {
    "mc_expected_flow, wsn-500 decayed, 20000 samples": (
        "graph = assign_distance_decay(gen_wsn(500, 0.08, 1), lam=0.001, scale=10000)\n"
        "run = lambda: mc_expected_flow(graph, 0, SamplerConfig(samples=20_000)).mean\n"
    ),
    "exact_expected_flow, 20 uncertain edges": (
        "graph = twenty_edge_graph()\n"
        "run = lambda: exact_expected_flow(graph, 0)\n"
    ),
    **{
        f"run_strategy {variant}, partitioned-1000, k=200": (
            "graph = gen_partitioned(1000, 8, 1)\n"
            f"cfg = StrategyConfig({variant!r}, 200, SamplerConfig(samples=1000, master_seed=7))\n"
            "run = lambda: run_strategy(graph, 0, cfg).trace[-1].flow.mean\n"
        )
        for variant in ("ft_m", "ft_m_ci")
    },
    "run_strategy ft_m, wsn-2000 decayed, k=200": (
        "graph = assign_distance_decay(gen_wsn(2000, 0.04, 1), lam=0.001, scale=10000)\n"
        "cfg = StrategyConfig('ft_m', 200, SamplerConfig(samples=1000, master_seed=7))\n"
        "run = lambda: run_strategy(graph, 0, cfg).trace[-1].flow.mean\n"
    ),
}

CHILD = """\
import resource, time
from probflow import (
    SamplerConfig, StrategyConfig, assign_distance_decay, exact_expected_flow, gen_partitioned, gen_wsn,
    mc_expected_flow, run_strategy,
)
from util import twenty_edge_graph
{setup}
start = time.perf_counter()
value = run()
wall = time.perf_counter() - start
print(wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, repr(value))
"""


def main() -> int:
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    print(f"{'kernel':<52}{'wall s':>8}{'max RSS MB':>12}  value")
    for name, setup in KERNELS.items():
        out = subprocess.run(
            [sys.executable, "-c", CHILD.format(setup=setup)],
            env=env, stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        wall, rss_kb, value = out.split()
        print(f"{name:<52}{float(wall):>8.3f}{int(rss_kb) / 1024:>12.1f}  {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
