"""The names the per-layer benchmark wraps exist, and yield the declared metrics.

``bench/tracer.py`` wraps package functions and methods by attribute, and
wraps a monitor hook or a mechanism transition only where a class defines
it, so a renamed or deleted name can drop a metric without any error. These
tests read ``bench/tracer.py`` and ``BENCHMARK.json`` and change neither.
"""

import importlib.util
import json
import pathlib

from lockstep import catalog
from lockstep.explorer import explore

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


def test_the_monitor_hook_layers_see_calls():
    """The tracer counts a monitor hook by its name, so a verdict that stops
    being called by that name would read 0 without any error."""
    tracer = _tracer()
    with tracer.Tracer() as duplex:
        explore(catalog.get("duplex-strict"))
    assert duplex.calls["monitors.on_event"] > 0
    assert duplex.calls["monitors.on_terminal"] > 0
    with tracer.Tracer() as last_message:
        explore(catalog.get("last-message-unidirectional"))
    assert last_message.calls["monitors.on_terminal"] > 0
