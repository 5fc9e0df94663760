"""The scripts under tools/ as their readers run them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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
