"""The package surface: exported names and the names the benchmark tracer wraps."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import ekr_matchings


def test_every_name_the_benchmark_tracer_wraps_resolves(monkeypatch):
    # the traced pass of bench/run.py looks each name up with getattr and
    # raises on a missing one; the bench suite itself is not part of these tests
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look the module up
    spec.loader.exec_module(spans)
    missing = [
        (module, name)
        for module, name, _, _ in spans.ENTRY_POINTS
        if not callable(getattr(importlib.import_module(f"ekr_matchings.{module}"), name, None))
    ]
    assert missing == []


def test_every_exported_name_resolves():
    modules = [ekr_matchings] + [
        importlib.import_module(f"ekr_matchings.{info.name}")
        for info in pkgutil.iter_modules(ekr_matchings.__path__)
        if not info.name.startswith("_")
    ]
    for module in modules:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
    namespace: dict = {}
    exec("from ekr_matchings import *", namespace)
    assert set(ekr_matchings.__all__) <= set(namespace)
