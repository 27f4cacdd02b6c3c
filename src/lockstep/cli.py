"""Command line interface.

Exit codes: 0 clean, 1 violations found (or a recorded violation refuted),
2 exploration hit its bounds without finding a violation, 3 the command line
was not understood or the scenario or schedule could not be loaded or replayed.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from .catalog import catalog_check as _catalog_check
from .catalog import entries as _catalog_entries
from .catalog import get as _catalog_get
from .explorer import Violation, explore, replay_with_checks, verify_violation
from .kernel import KernelError, NotEnabledAtStep, System, Trace, format_event
from .scenarios import ParseError, ValidationError, load_file

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_BOUNDS = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """A usage error prints the usage and is an input error, which ``main``
    prints and exits 3 for, not argparse's 2, which ``explore`` gives for
    bounds hit. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        raise ValueError(message)


def _add_source(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--catalog", metavar="NAME", help="a built-in scenario (see 'list')")
    g.add_argument("--file", metavar="PATH", help="a scenario document")


def _add_format(p):
    p.add_argument("--format", choices=("text", "structured"), default="text")


def _add_bounds(p):
    p.add_argument("--max-depth", type=int, default=None, metavar="N")
    p.add_argument("--max-states", type=int, default=None, metavar="N")


def build_parser():
    ap = _Parser(prog="lockstep",
                 description="explore every interleaving of small communicating processes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="exhaustively explore a scenario")
    _add_source(p)
    _add_format(p)
    _add_bounds(p)

    p = sub.add_parser("run", help="execute one recorded schedule")
    _add_source(p)
    _add_format(p)
    p.add_argument("--schedule", required=True, metavar="PATH",
                   help="a schedule document (a trace, or a violation as emitted by explore)")

    p = sub.add_parser("replay", help="replay a schedule step by step and "
                                      "confirm or refute its recorded violation")
    _add_source(p)
    _add_format(p)
    p.add_argument("--schedule", required=True, metavar="PATH")

    p = sub.add_parser("list", help="list the built-in catalog")
    _add_format(p)

    p = sub.add_parser("catalog-check", help="explore every catalog entry and "
                                             "compare with its documented outcome")
    _add_format(p)
    _add_bounds(p)
    p.add_argument("--only", action="append", metavar="NAME",
                   help="check just the named entries (repeatable)")

    return ap


def _load_system(args):
    if args.catalog:
        scenario = _catalog_get(args.catalog)
    else:
        scenario = load_file(args.file)
    return System(scenario)


def _bounds(args):
    """The bounds the command line gives, by name; a strategy checks them like
    any override and takes each other bound from the scenario, then from the
    default."""
    return {key: getattr(args, key) for key in ("max_depth", "max_states")
            if getattr(args, key) is not None}


def _load_schedule(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:  # decoding or quoting a deeply nested value recurses
        return _parse_schedule(json.loads(text))
    except RecursionError:
        raise ValueError("schedule: document nested too deeply") from None


def _parse_schedule(doc):
    """(events, the Violation recorded, or None for a bare trace)."""
    if isinstance(doc, dict) and "trace" in doc:
        violation = Violation.from_doc(doc)
        return violation.trace.events, violation
    return Trace.from_doc(doc).events, None


def _print_report(report, fmt, out):
    if fmt == "structured":
        print(json.dumps(report.to_doc(), indent=2, sort_keys=True), file=out)
        return
    print(f"scenario: {report.scenario}", file=out)
    print(f"states visited: {report.states_visited}", file=out)
    print(f"distinct terminal states: {report.distinct_terminal_states}", file=out)
    sched = "unknown (bounds hit)" if report.schedules_complete is None \
        else report.schedules_complete
    print(f"maximal schedules: {sched}", file=out)
    print(f"bounds hit: {'yes' if report.bounds_hit else 'no'}", file=out)
    if not report.violations:
        print("violations: none", file=out)
    else:
        print(f"violations ({len(report.violations)} class"
              f"{'es' if len(report.violations) != 1 else ''}):", file=out)
        for v in report.violations:
            detail = f": {v.detail}" if v.detail else ""
            print(f"  - {v.cls}{detail}", file=out)
            steps = "; ".join(format_event(e) for e in v.trace.events) or "(initial state)"
            print(f"    after {len(v.trace)} steps: {steps}", file=out)
            print(f"    state: {v.state_hash}", file=out)


def cmd_explore(args):
    sys = _load_system(args)
    report = explore(sys, _bounds(args))
    _print_report(report, args.format, _sys.stdout)
    if report.violations:
        return EXIT_VIOLATIONS
    if report.bounds_hit:
        return EXIT_BOUNDS
    return EXIT_CLEAN


def cmd_run(args):
    sys = _load_system(args)
    events, _ = _load_schedule(args.schedule)
    final, _ = replay_with_checks(sys, events)  # stale -> exit 3
    done = all(ps.pc >= len(program.instrs) for ps, program in zip(final.procs, sys.programs))
    if args.format == "structured":
        doc = {"steps": len(events), "state_hash": sys.state_hash(final),
               "all_terminated": done}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"replayed {len(events)} steps")
        print(f"final state hash: {sys.state_hash(final)}")
        print(f"all processes terminated: {'yes' if done else 'no'}")
    return EXIT_CLEAN


def cmd_replay(args):
    sys = _load_system(args)
    events, violation = _load_schedule(args.schedule)
    final, classes = replay_with_checks(sys, events)  # stale -> exit 3
    observed = sorted(classes)
    final_hash = sys.state_hash(final)
    verdict = claim = None
    if violation is not None:
        claim = {"class": violation.cls, "state_hash": violation.state_hash}
        verdict = "confirmed" if verify_violation(sys, violation) else "refuted"

    if args.format == "structured":
        doc = {"steps": [format_event(e) for e in events],
               "state_hash": final_hash, "observed_classes": observed,
               "claim": claim, "verdict": verdict}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for k, ev in enumerate(events):
            print(f"[{k}] {format_event(ev)}")
        print(f"final state hash: {final_hash}")
        print(f"violation classes at the end: {', '.join(observed) or 'none'}")
        if verdict == "confirmed":
            print(f"CONFIRMED: {violation.cls} recurs at the end of this schedule")
        elif verdict == "refuted":
            print(f"REFUTED: recorded {violation.cls} "
                  f"(hash {violation.state_hash}) did not recur")
    return EXIT_VIOLATIONS if verdict == "refuted" else EXIT_CLEAN


def cmd_list(args):
    entries = _catalog_entries()
    if args.format == "structured":
        doc = [{"name": e.name, "summary": e.summary, "outcome": e.outcome,
                "expected_classes": sorted(e.expected_classes)} for e in entries]
        print(json.dumps(doc, indent=2))
        return EXIT_CLEAN
    width = max(len(e.name) for e in entries)
    for e in entries:
        expected = ", ".join(sorted(e.expected_classes)) or "none"
        print(f"{e.name:<{width}}  expected: {expected}")
        print(f"{'':<{width}}  {e.summary}; {e.outcome}")
    return EXIT_CLEAN


def cmd_catalog_check(args):
    rows = _catalog_check(only=args.only, bounds=_bounds(args))
    if args.format == "structured":
        doc = [{"name": r.name, "ok": r.ok, "expected": list(r.expected),
                "found": list(r.found), "problems": list(r.problems),
                "states_visited": r.states_visited,
                "schedules_complete": r.schedules_complete} for r in rows]
        print(json.dumps(doc, indent=2))
    else:
        width = max(len(r.name) for r in rows)
        for r in rows:
            mark = "ok " if r.ok else "FAIL"
            found = ", ".join(r.found) or "none"
            print(f"{mark} {r.name:<{width}}  classes: {found}  "
                  f"states: {r.states_visited}  schedules: {r.schedules_complete}")
            for prob in r.problems:
                print(f"     ! {prob}")
        good = sum(1 for r in rows if r.ok)
        print(f"{good}/{len(rows)} entries match their documented outcome")
    return EXIT_CLEAN if all(r.ok for r in rows) else EXIT_VIOLATIONS


def main(argv=None) -> int:
    handlers = {"explore": cmd_explore, "run": cmd_run, "replay": cmd_replay,
                "list": cmd_list, "catalog-check": cmd_catalog_check}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ParseError, ValidationError) as e:
        print(f"error: invalid scenario:\n{e}", file=_sys.stderr)
        return EXIT_ERROR
    except NotEnabledAtStep as e:
        print(f"error: stale schedule: {e}", file=_sys.stderr)
        return EXIT_ERROR
    except (KernelError, KeyError, ValueError, OSError, json.JSONDecodeError) as e:
        # a KeyError's str() is its message quoted, so it is printed by its message
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
