"""Outside-in tracing of lockstep's layers.

The tracer wraps public functions and methods at module or class level for
the duration of a ``with`` block, so nothing in the package changes. Every
wrapped call is a span. Spans are aggregated in memory as they end, per
layer and per (caller layer, layer) edge, because an exhaustive run makes
millions of them; the totals are read when the run ends.

A layer's self time is its span time minus the time of the spans it
caused. The wrappers' own cost lands in the caller's self time, which is
why the end-to-end figures come from untraced runs.
"""

from __future__ import annotations

import functools
import time

from lockstep import explorer, kernel, machines, monitors, scenarios

MACHINE_TRANSITIONS = ("write", "read", "write_word", "lock", "unlock", "update")
MONITOR_HOOKS = ("on_state", "on_event", "on_terminal")


def _targets():
    """(owner, attribute, layer, measure) for every wrapped callable.

    ``measure`` maps a call's result to a number summed into the layer's
    ``extra`` total: actions offered, or monitor hits.
    """
    out = [
        (scenarios, "validate", "scenarios.validate", None),
        # compile_program is imported by name into both modules.
        (scenarios, "compile_program", "programs.compile", None),
        (kernel, "compile_program", "programs.compile", None),
        (kernel.System, "enabled_actions", "kernel.enabled_actions", len),
        (kernel.System, "apply", "kernel.apply", None),
        (kernel.System, "state_hash", "kernel.state_hash", None),
        (kernel.GlobalState, "__hash__", "kernel.state.hash", None),
        (kernel.GlobalState, "__eq__", "kernel.state.eq", None),
        (explorer, "explore", "explorer.explore", None),
        (explorer, "find_shortest", "explorer.find_shortest", None),
        (explorer, "random_walks", "explorer.random_walks", None),
        (explorer, "verify_violation", "explorer.verify_violation", None),
    ]
    for cls in vars(machines).values():
        if isinstance(cls, type) and cls.__module__ == machines.__name__:
            out += [(cls, m, "machines.transition", None)
                    for m in MACHINE_TRANSITIONS if m in vars(cls)]
    for cls in vars(monitors).values():
        if isinstance(cls, type) and issubclass(cls, monitors.Monitor):
            out += [(cls, m, f"monitors.{m}", len) for m in MONITOR_HOOKS if m in vars(cls)]
    return out


LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in _targets()))


class Tracer:
    """Context manager that records spans for every layer in ``LAYERS``."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.total = dict.fromkeys(LAYERS, 0.0)
        self.child = dict.fromkeys(LAYERS, 0.0)
        self.extra = dict.fromkeys(LAYERS, 0)
        self.edges = {}      # (caller layer or None, layer) -> calls
        self._stack = []     # open spans: [layer, time of child spans]
        self._saved = []

    def self_s(self, layer):
        return self.total[layer] - self.child[layer]

    def __enter__(self):
        for owner, attr, layer, measure in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, measure))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, layer, fn, measure):
        stack, edges = self._stack, self.edges
        calls, total, child, extra = self.calls, self.total, self.child, self.extra
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[layer] += 1
                total[layer] += dt
                child[layer] += frame[1]
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent else None, layer)
                edges[key] = edges.get(key, 0) + 1
            if measure is not None:
                extra[layer] += measure(result)
            return result

        return traced
