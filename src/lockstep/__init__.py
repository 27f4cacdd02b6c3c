"""Guarded-state-machine models of inter-process communication, plus an
exhaustive interleaving explorer that checks them.

The pieces: mechanisms (machines), process programs (programs), scenario
documents (scenarios), the stepping engine (kernel), safety monitors
(monitors), exploration strategies (explorer), the built-in catalog
(catalog), and a command line front end (cli).
"""

from .explorer import (Bounds, ExplorationReport, Violation, WalkSummary,
                       explore, find_shortest, random_walks, replay_with_checks,
                       verify_violation)
from .kernel import (ChoiceNotEnabled, GlobalState, KernelError, NotEnabledAtStep,
                     System, Trace)
from .scenarios import ParseError, Scenario, ValidationError, load_file, loads, serialize
from . import catalog
from .catalog import catalog_check, entries, get, names

__version__ = "0.1.0"

__all__ = [
    "Bounds", "ChoiceNotEnabled", "ExplorationReport", "GlobalState",
    "KernelError", "NotEnabledAtStep", "ParseError", "Scenario", "System",
    "Trace", "ValidationError", "Violation", "WalkSummary", "catalog",
    "catalog_check", "entries", "explore", "find_shortest", "get", "loads",
    "load_file", "names", "random_walks", "replay_with_checks",
    "serialize", "verify_violation", "__version__",
]
