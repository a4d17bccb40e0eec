"""The layer tracer in bench/tracing.py replaces package functions by name;
every (module, attribute) site it lists must exist, or a traced benchmark run
crashes."""

import importlib
from pathlib import Path


def test_every_tracer_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    assert tracing._SITES
    for _, module, attr in tracing._SITES:
        getattr(importlib.import_module(module), attr)
