"""Paired benchmark runs of a git revision against the working tree.

It exports REV (``git archive``) and the working tree (the files ``git
ls-files`` lists as tracked or untracked but not ignored) to two
temporary directories, and then, for each workload, runs

    python3 perfbench/run.py --workload W --seed S --seconds 35 --trace 0

in each of them on the same seed, once per pair, for ``--pairs`` pairs on
the fixed seeds 101, 102, ... .  The order within a pair alternates
(parent first in the first pair, change first in the next), so a host
that drifts favours neither side.

For each end-to-end metric of ``BENCHMARK.json`` it prints the parent's
and the change's medians, their ratio (change / parent), the pairs the
change won (its value better than the parent's in that pair, in the
metric's direction) and the interquartile range of the parent's values.
A gain is resolved when the change wins most pairs and the medians
differ by more than the parent's IQR; run REV against a working tree
equal to it (an A/A run) to see the spread of no change.

It exits 1 when a run's result is not ``correct`` or when a
``flow_ref.*`` value differs within a pair, and 2 when a run fails,
saying which side's run it was: the parent REV's or the working tree's.
Run from the repository root:

    python3 tools/abbench.py HEAD~1                 # the last commit, A/B
    python3 tools/abbench.py HEAD --pairs 4         # a clean tree at HEAD, A/A
    python3 tools/abbench.py HEAD --workload wsn-decay
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("erdos-sparse", "partitioned-dense", "wsn-decay")
FIRST_SEED = 101


def export_rev(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``."""
    command = ["git", "archive", "--format=tar", rev]
    tar = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    """The working tree's files under ``dest``: tracked ones as they are
    on disk (deleted ones left out) and untracked ones git does not ignore."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def result_of(output: str) -> dict:
    """A benchmark run's result: the JSON object on its output's last line."""
    return json.loads(output.strip().splitlines()[-1])


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result of one untraced run."""
    return result_of(subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "35", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout)


def iqr(values: list[float]) -> float:
    """The distance between the quartiles of ``values`` (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(
    pairs: list[tuple[dict, dict]], better: dict[str, str]
) -> tuple[list[tuple[str, float, float, float, int, float]], list[str]]:
    """Per-metric rows and the problems of one workload's (parent, change)
    result pairs.

    A row is (metric, parent median, change median, change / parent
    ratio, pairs the change won, parent IQR), for each metric of
    ``better`` (metric -> "lower" or "higher") that every result reports,
    in ``better``'s order.  A problem names a result that is not
    ``correct`` and a ``flow_ref.*`` metric whose values differ within a
    pair."""
    problems = []
    for i, pair in enumerate(pairs, 1):
        for side, result in zip(("parent", "change"), pair):
            if result.get("correct") is not True:
                problems.append(f"pair {i}: the {side} run is not correct")
    rows = []
    for name, direction in better.items():
        if not all(name in r["metrics"] for pair in pairs for r in pair):
            continue
        old = [parent["metrics"][name]["value"] for parent, _ in pairs]
        new = [change["metrics"][name]["value"] for _, change in pairs]
        if name.startswith("flow_ref."):
            moved = [(i, a, b) for i, (a, b) in enumerate(zip(old, new), 1) if a != b]
            problems += [f"pair {i}: {name} {a!r} != {b!r}" for i, a, b in moved]
        won = sum(b < a if direction == "lower" else b > a for a, b in zip(old, new))
        parent_median, change_median = statistics.median(old), statistics.median(new)
        ratio = change_median / parent_median if parent_median else float("nan")
        rows.append((name, parent_median, change_median, ratio, won, iqr(old)))
    return rows, problems


def format_rows(rows: list[tuple[str, float, float, float, int, float]], pairs: int) -> list[str]:
    """``summarize``'s rows as aligned text lines, a header first."""
    lines = [f"{'metric':<24}{'parent':>14}{'change':>14}{'ratio':>9}{'won':>8}{'parent IQR':>14}"]
    for name, old, new, ratio, won, spread in rows:
        lines.append(f"{name:<24}{old:>14.6g}{new:>14.6g}{ratio:>9.3f}{f'{won}/{pairs}':>8}{spread:>14.4g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="the parent revision, e.g. HEAD~1")
    p.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload (default 10)")
    p.add_argument("--workload", action="append", choices=WORKLOADS, help="a workload to run (default: all)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    failed = False
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        parent.mkdir()
        change.mkdir()
        export_rev(args.rev, parent)
        export_worktree(change)
        for workload in args.workload or WORKLOADS:
            pairs = []
            for i in range(args.pairs):
                seed = FIRST_SEED + i
                sides = (parent, change) if i % 2 == 0 else (change, parent)
                results = {}
                for side in sides:
                    try:
                        results[side] = run_once(side, workload, seed)
                    except subprocess.CalledProcessError as exc:
                        name = f"the parent ({args.rev})" if side is parent else "the working tree"
                        print(f"{workload} seed {seed}: {name} run exited {exc.returncode}", file=sys.stderr)
                        return 2
                pairs.append((results[parent], results[change]))
            rows, problems = summarize(pairs, better)
            print(f"# {workload}: {args.rev} (parent) against the working tree (change), "
                  f"{args.pairs} pairs, seeds {FIRST_SEED}-{FIRST_SEED + args.pairs - 1}")
            print("\n".join(format_rows(rows, args.pairs)))
            for problem in problems:
                print(f"PROBLEM {workload} {problem}")
            failed |= bool(problems)
            sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
