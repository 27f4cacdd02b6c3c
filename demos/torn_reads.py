"""Torn reads: how word-level interleaving corrupts multi-word values.

Two writers want to publish the whole values (1, 1) and (2, 2) into a
two-word cell while a reader assembles the value word by word. Nothing
synchronizes them, so the reader can observe half of each write. Running
the same programs through a lock-encapsulated cell removes every torn
assembly — unless a third process simply ignores the lock.

Run: python3 demos/torn_reads.py
"""

from lockstep import System, explore, find_shortest
from lockstep.catalog import get
from lockstep.cli import format_event
from lockstep.explorer import terminal_values


def show_witness(title, scenario, kind):
    v = find_shortest(scenario, kind)
    print(f"  shortest {kind} schedule ({title}):")
    for k, ev in enumerate(v.trace.events):
        print(f"    [{k}] {format_event(ev)}")
    print(f"    -> {v.detail}")


def reader_values(name):
    sys = System(get(name))
    report = explore(sys)
    values = terminal_values(sys, report, 2, ("a", "b"))
    return report, sorted(values)


def main():
    print("== unprotected cell ==")
    report, values = reader_values("torn-read-raw")
    print(f"  {report.schedules_complete} schedules, "
          f"{report.states_visited} states explored")
    print(f"  reader assemblies: {values}")
    torn = [v for v in values if v not in [(0, 0), (1, 1), (2, 2)]]
    print(f"  torn assemblies (no writer ever produced them): {torn}")
    show_witness("raw cell", get("torn-read-raw"), "torn_read")

    print("\n== the same programs behind a lock ==")
    report, values = reader_values("torn-read-locked")
    print(f"  {report.schedules_complete} schedules "
          f"(the lock serializes the three blocks)")
    print(f"  reader assemblies: {values}")
    print(f"  violations: {sorted(report.violation_classes) or 'none'}")

    print("\n== a lock only protects those who use it ==")
    report = explore(get("undisciplined-third-party"))
    print(f"  two disciplined parties, one bare writer: "
          f"{sorted(report.violation_classes)}")
    show_witness("undisciplined third party",
                 get("undisciplined-third-party"), "torn_read")


if __name__ == "__main__":
    main()
