"""Deadlock from symmetric rendezvous, and updates lost to divisibility.

Two processes that each insist on sending before receiving can never form
a rendezvous: both block forever. Making one direction asynchronous breaks
the cycle. Separately, a read-increment-write sequence on a shared
register silently loses updates under interleaving, while an indivisible
update step always totals correctly — the classic argument for atomic
read-modify-write.

Run: python3 demos/deadlock_and_updates.py
"""

from lockstep import System, explore, find_shortest
from lockstep.catalog import get
from lockstep.cli import format_event
from lockstep.explorer import terminal_values


def main():
    print("== both sides send first ==")
    report = explore(get("deadlock-direct-duplex"))
    print(f"  classes: {sorted(report.violation_classes)}")
    v = find_shortest(get("deadlock-direct-duplex"), "deadlock")
    print(f"  shortest schedule into the deadlock ({len(v.trace)} steps):")
    for k, ev in enumerate(v.trace.events):
        print(f"    [{k}] {format_event(ev)}")
    print(f"    -> {v.detail}")

    print("\n== one direction made asynchronous ==")
    report = explore(get("deadlock-fixed-indirect"))
    print(f"  {report.schedules_complete} schedules, all complete, classes: "
          f"{sorted(report.violation_classes) or 'none'}")

    print("\n== divisible increments lose updates ==")
    sys = System(get("register-lost-update"))
    report = explore(sys)
    values = sorted(content[0] for (content,) in terminal_values(sys, report, "reg", ("content",)))
    print(f"  2 processes x 3 increments, spelled read / generate / write")
    print(f"  {report.schedules_complete} schedules, terminal register values: {values}")
    print(f"  worst case {values[0]}: each +1 of one side overwrites the other's")

    print("\n== indivisible updates ==")
    sys = System(get("register-atomic-update"))
    report = explore(sys)
    values = sorted(content[0] for (content,) in terminal_values(sys, report, "reg", ("content",)))
    print(f"  the same increments as single update steps")
    print(f"  {report.schedules_complete} schedules, terminal register values: {values}")


if __name__ == "__main__":
    main()
