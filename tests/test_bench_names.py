"""The names the per-layer benchmark wraps exist, and yield the declared metrics.

``bench/tracer.py`` wraps package functions and methods by attribute, and
wraps a monitor hook or a mechanism transition only where a class defines
it, so a renamed or deleted name can drop a metric without any error. These
tests read ``bench/tracer.py`` and ``BENCHMARK.json`` and change neither.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_where_it_is_wrapped():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in _tracer()._targets() if attr not in vars(owner)]
    assert missing == []


def test_the_wrapped_layers_are_the_declared_per_layer_metrics():
    layers = _tracer().LAYERS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    timed = {m["name"] for m in declared if m["name"].endswith((".calls", ".s"))}
    assert {f"{layer}.{what}" for layer in layers for what in ("calls", "s")} == timed
