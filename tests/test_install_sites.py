"""The benchmark's install sites: every library name that perfbench/run.py
imports and every attribute that perfbench/tracer.py wraps exists, so a
change that drops or moves one fails here, and not only in a traced
benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_install_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("run")  # fails on any name its `from probflow import` lacks
    tracer = importlib.import_module("tracer")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer._patches(tracer.Tracer())
        if attr not in vars(owner)
    ]
    assert missing == []
