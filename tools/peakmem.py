"""Wall time, CPU time and peak memory of the world kernels and of
selection at scale.

Each kernel runs ``REPEATS`` times, each time in a fresh Python process, so
that one's peak cannot hide another's and one run's host noise cannot pass
for a change:

- ``mc_expected_flow`` on the whole
  ``assign_distance_decay(gen_wsn(500, 0.08, 1), lam=0.001, scale=10000)``
  graph (2309 edges) at 20 000 samples: the draw path;
- ``exact_expected_flow`` on the tests' 20-edge graph
  (``twenty_edge_graph`` in ``tests/util.py``), 2^20 worlds: the
  enumeration path at the oracle's limit;
- ``run_strategy`` of ``ft_m``, ``ft_m_ci`` and ``ft_m_ds`` on
  ``gen_partitioned(1000, 8, 1)`` at k=200 (1000 samples, master seed 7):
  the memoized greedy and its interval-checked and delayed variants at
  scale;
- ``run_strategy`` of ``ft`` on that graph at k=100 (same sampler), where
  every probe builds its ring's table again, so drawing each edge once
  per tree (the tree's world store) saves the most;
- ``run_strategy`` of ``ft`` on the wsn-500 graph above at k=15 (1000
  samples, master seed 7), the benchmark's wsn-decay graph 1 at its
  budget, ``EXACT_RUNS`` times: 93 of its 98 ring builds enumerate their
  worlds, and exact tables take the largest share of its time (by
  ``perf_counter`` wrappers, about 30% in their builds and 15% in their
  samplers' construction, against 10% in drawn builds);
- ``run_strategy`` of ``ft_m`` and of ``ft_m_ds`` on
  ``assign_distance_decay(gen_wsn(2000, 0.04, 1), lam=0.001, scale=10000)``
  at k=200 (1000 samples, master seed 7), where many probed rings outlive
  a cycle commit that takes none of their members, and keep their tables;
- ``dump-ftree``'s structure-only loop on that wsn-2000 graph (9648
  edges): insert the first candidate until none is left, never evaluate.
  Inserts build no reach table, so its value, (edges inserted, tables
  built, inserts per case), has 0 tables, and its time is the tree's
  structural upkeep alone.  Most of its inserts (6020 of 9648) are chords
  inside one bi component (IIIa), which add their edge to that component
  in place, and every cycle grows the bi component it drains through, if
  there is one, so a commit costs the cycle and what that component
  gains, not the whole component.  The per-case counts show at scale
  whether a structural change keeps every insert's case.

Each line gives the kernel call's wall seconds and CPU seconds
(``time.process_time``; imports and graph construction not included), each
as the median over the repeats with its min-max range, the largest maximum
resident set size of the repeats (``ru_maxrss``, which includes the
interpreter and numpy) and the value computed: a flow, a selection's last
recorded flow, or the dump loop's counts.  Every repeat must compute the
same value; a value that differs between repeats is printed as
``DIFFERS:`` followed by each repeat's, and the tool exits 1 once the
table is printed.  Each fresh process draws its own hash seed (unless
``PYTHONHASHSEED`` is set), so a value that follows set order differs.
Each child runs with ``OPENBLAS_NUM_THREADS=1``: numpy's BLAS would
otherwise start a thread pool, whose start-up counts in the CPU column
(the oracle kernel read more CPU seconds than wall seconds), and no
result depends on the thread count.
A selection also gives the number of edges its tree's world store drew,
each once, as ``(flow, edges drawn)``; the exact-table kernel's selections
must all give the same pair, its value.  The library and the
tests' helpers are imported from this checkout.

Run from the repository root:

    python3 tools/peakmem.py
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Fresh processes per kernel; the median of five resolves a few percent
# where a single run at scale can differ by a third between runs.
REPEATS = 5

# Selections of the exact-table kernel per process: one takes about 0.01 s.
EXACT_RUNS = 20

# A selection's kernel: its last recorded flow and the edges its tree's
# world store drew (the stores built during the run, each edge once).
SELECT = (
    "stores, init = [], WorldStore.__init__\n"
    "WorldStore.__init__ = lambda store, *args: stores.append(store) or init(store, *args)\n"
    "def select():\n"
    "    stores.clear()\n"
    "    return run_strategy(graph, 0, cfg).trace[-1].flow.mean, sum(len(s._bits) for s in stores)\n"
    "run = select\n"
)

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
        f"run_strategy {variant}, partitioned-1000, k={k}": (
            "graph = gen_partitioned(1000, 8, 1)\n"
            f"cfg = StrategyConfig({variant!r}, {k}, SamplerConfig(samples=1000, master_seed=7))\n"
            + SELECT
        )
        for variant, k in (("ft_m", 200), ("ft_m_ci", 200), ("ft_m_ds", 200), ("ft", 100))
    },
    f"run_strategy ft, wsn-500 decayed, k=15, {EXACT_RUNS} runs": (
        "graph = assign_distance_decay(gen_wsn(500, 0.08, 1), lam=0.001, scale=10000)\n"
        "cfg = StrategyConfig('ft', 15, SamplerConfig(samples=1000, master_seed=7))\n"
        + SELECT
        + "def run():\n"
        f"    [value] = {{select() for _ in range({EXACT_RUNS})}}\n"
        "    return value\n"
    ),
    **{
        f"run_strategy {variant}, wsn-2000 decayed, k=200": (
            "graph = assign_distance_decay(gen_wsn(2000, 0.04, 1), lam=0.001, scale=10000)\n"
            f"cfg = StrategyConfig({variant!r}, 200, SamplerConfig(samples=1000, master_seed=7))\n"
            + SELECT
        )
        for variant in ("ft_m", "ft_m_ds")
    },
    "dump-ftree structure, wsn-2000 decayed, every edge": (
        "graph = assign_distance_decay(gen_wsn(2000, 0.04, 1), lam=0.001, scale=10000)\n"
        "def run():\n"
        "    tree, cfg, cases = new_ftree(0), SamplerConfig(), {}\n"
        "    while cands := tree.candidates(graph):\n"
        "        case = tree.insert_edge(graph, cands[0], cfg).case_taken\n"
        "        cases[case] = cases.get(case, 0) + 1\n"
        "    bis = [c for c in tree.components.values() if isinstance(c, BiComponent)]\n"
        "    return len(tree.selected_edges), sum(c.reach is not None for c in bis), dict(sorted(cases.items()))\n"
    ),
}

CHILD = """\
import resource, time
from probflow import (
    BiComponent, SamplerConfig, StrategyConfig, assign_distance_decay, exact_expected_flow,
    gen_partitioned, gen_wsn, mc_expected_flow, new_ftree, run_strategy,
)
from probflow.sampling import WorldStore
from util import twenty_edge_graph
{setup}
start, cpu = time.perf_counter(), time.process_time()
value = run()
wall, cpu = time.perf_counter() - start, time.process_time() - cpu
print(wall, cpu, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, repr(value))
"""


def spread(values: list[float]) -> str:
    """The median of ``values`` and their min-max range, in seconds."""
    return f"{statistics.median(values):.3f} [{min(values):.3f}-{max(values):.3f}]"


def main() -> int:
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), OPENBLAS_NUM_THREADS="1")
    differs = False
    print(f"{'kernel':<52}{'wall s median [min-max]':>26}{'cpu s median [min-max]':>26}"
          f"{'max RSS MB':>12}  value")
    for name, setup in KERNELS.items():
        walls, cpus, rss, values = [], [], [], []
        for _ in range(REPEATS):
            out = subprocess.run(
                [sys.executable, "-c", CHILD.format(setup=setup)],
                env=env, stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
            wall, cpu, rss_kb, value = out.split(maxsplit=3)
            walls.append(float(wall))
            cpus.append(float(cpu))
            rss.append(int(rss_kb))
            values.append(value.strip())
        same = len(set(values)) == 1
        differs |= not same
        shown = values[0] if same else "DIFFERS: " + " | ".join(values)
        print(f"{name:<52}{spread(walls):>26}{spread(cpus):>26}{max(rss) / 1024:>12.1f}  {shown}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
