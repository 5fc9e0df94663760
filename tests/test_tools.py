"""The scripts under tools/ as their readers run them."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_tracedigest_stops_quietly_when_its_reader_closes_the_pipe():
    # A reader that takes the first rows (``| head -2``) closes the pipe
    # while the script still prints: the script stops, exits 1, and
    # writes nothing to stderr.  Unbuffered (-u), so each row is written
    # when it is printed, whatever the environment sets.
    command = [sys.executable, "-u", str(TOOLS / "tracedigest.py")]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert lines[0].startswith("family") and lines[1].startswith("erdos-200")
    assert err == ""
    assert proc.returncode == 1


def load_abbench():
    spec = importlib.util.spec_from_file_location("abbench", TOOLS / "abbench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(ft: float, flow: float = 50.0, rss: float | None = 40.0, correct: bool = True) -> str:
    """A benchmark run's output as ``perfbench/run.py`` prints it: metric
    lines, then the result line."""
    metrics = {"select_s.ft": {"value": ft, "unit": "s"}, "flow_ref.ft_m": {"value": flow, "unit": "flow"}}
    if rss is not None:
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    result = {"correct": correct, "attempted": 42, "failed": 0 if correct else 1, "metrics": metrics}
    return (
        "# wsn-decay seed=101 graphs=14 passes=1\n"
        f"{'select_s.ft':40s} {ft:14.6g} s      n=42\n"
        + json.dumps(result) + "\n"
    )


BETTER = {"select_s.ft": "lower", "flow_ref.ft_m": "higher", "peak_rss_mb": "lower"}


def test_abbench_summarizes_medians_wins_and_the_parent_spread():
    abbench = load_abbench()
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.9, 2.1, 2.5, 3.0, 6.0]
    pairs = [(abbench.result_of(canned_run(a)), abbench.result_of(canned_run(b)))
             for a, b in zip(parent, change)]
    rows, problems = abbench.summarize(pairs, BETTER)
    assert problems == []
    # Medians 3.0 and 2.5; the change is lower in 3 of 5 pairs; the
    # parent's quartiles are 2.0 and 4.0.  Equal values win no pair.
    assert rows == [
        ("select_s.ft", 3.0, 2.5, 2.5 / 3.0, 3, 2.0),
        ("flow_ref.ft_m", 50.0, 50.0, 1.0, 0, 0.0),
        ("peak_rss_mb", 40.0, 40.0, 1.0, 0, 0.0),
    ]
    lines = abbench.format_rows(rows, len(pairs))
    assert lines[0].split() == ["metric", "parent", "change", "ratio", "won", "parent", "IQR"]
    assert lines[1].split() == ["select_s.ft", "3", "2.5", "0.833", "3/5", "2"]


def test_abbench_reports_incorrect_runs_and_moved_reference_flows():
    abbench = load_abbench()
    outputs = [
        (canned_run(1.0, rss=None), canned_run(1.0)),
        (canned_run(1.0, correct=False), canned_run(1.0, flow=50.000000000001)),
    ]
    pairs = [tuple(map(abbench.result_of, pair)) for pair in outputs]
    rows, problems = abbench.summarize(pairs, BETTER)
    assert problems == [
        "pair 2: the parent run is not correct",
        "pair 2: flow_ref.ft_m 50.0 != 50.000000000001",
    ]
    # A metric that some run does not report (peak_rss_mb here) gets no row.
    assert [row[0] for row in rows] == ["select_s.ft", "flow_ref.ft_m"]
    # A higher flow is better, so the change won the second pair.
    assert rows[1][4] == 1


@pytest.mark.parametrize("failing, name", [("parent", "the parent (abc123)"), ("change", "the working tree")])
def test_abbench_names_the_side_whose_run_failed(monkeypatch, capsys, failing, name):
    # The parent runs first in the first pair, so a failing change still
    # has its parent's run done before it.
    abbench = load_abbench()
    ran = []

    def run_once(checkout, workload, seed):
        ran.append(checkout.name)
        if checkout.name == failing:
            raise subprocess.CalledProcessError(3, ["perfbench/run.py"])
        return abbench.result_of(canned_run(1.0))

    monkeypatch.setattr(abbench, "export_rev", lambda rev, dest: None)
    monkeypatch.setattr(abbench, "export_worktree", lambda dest: None)
    monkeypatch.setattr(abbench, "run_once", run_once)
    assert abbench.main(["abc123", "--pairs", "2", "--workload", "erdos-sparse"]) == 2
    assert ran == (["parent"] if failing == "parent" else ["parent", "change"])
    assert capsys.readouterr().err == f"erdos-sparse seed 101: {name} run exited 3\n"


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", TOOLS / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A module whose code lines end in "# code"; every other line is a
# docstring, a comment or blank.  The two strings that are not the first
# statement of their body count as code, over every line they span.
CANNED_MODULE = '''\
"""The module docstring,
over two lines."""

import os  # code


class Kept:  # code
    """A class docstring."""

    # a comment line
    label = "not a docstring"  # code

    def method(self):  # code
        """A method docstring,

        with a blank line inside it."""
        return """a string  # code
that is not a docstring"""


async def drain():  # code
    """An async function docstring."""
    count = 1  # code
    "a bare string after the first statement"  # code
'''


def test_loc_counts_code_lines_without_docstrings_comments_or_blanks():
    lines, code = load_loc().counts(CANNED_MODULE)
    assert lines == len(CANNED_MODULE.splitlines()) == 24
    assert code == CANNED_MODULE.count("# code") + 1  # the string's second line
    assert code == 9
