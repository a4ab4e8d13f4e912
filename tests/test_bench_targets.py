"""The benchmark's tracer wraps normsim functions and agent methods by name,
looking each one up in its owner's `__dict__`. A traced name that moves or
goes breaks every traced run; this guard shows it in the quick suite, not
only in the benchmark's own slow self-tests."""
import importlib
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("cli", "games", "sanctions", "orchard", "agents", "harness")


def test_every_traced_name_is_defined_where_the_tracer_looks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")  # stdlib only
    normsim = types.SimpleNamespace(
        **{name: importlib.import_module(f"normsim.{name}") for name in MODULES})
    targets = tracing.normsim_targets(normsim)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in owner.__dict__]
    assert missing == []
