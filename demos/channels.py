"""Messages: overwriting slots, status-gated delivery, and duplex traffic.

One slot of shared storage is the simplest possible channel. With no
discipline at all (a plain message cell) a fast writer buries messages the
reader never saw. Gating the slot with an empty/full status makes delivery
exactly-once and in order — at the cost of forcing strict alternation. A
last-message channel deliberately keeps only the newest value, and the
duplex variants share one slot between both directions of a conversation.

Run: python3 demos/channels.py
"""

from lockstep import System, explore
from lockstep.catalog import get
from lockstep.explorer import terminal_values


def banner(name):
    print(f"\n== {name} ==")


def main():
    banner("message cell: writes never wait")
    sys = System(get("lost-message-basic"))
    report = explore(sys)
    print(f"  {report.schedules_complete} schedules, classes: "
          f"{sorted(report.violation_classes)}")
    seqs = sorted(terminal_values(sys, report, 1, ("r1", "r2", "r3")), key=repr)
    print(f"  the reader can observe {len(seqs)} different sequences, e.g.")
    for sq in seqs[:4]:
        print(f"    {sq}")
    print("  (None = read before anything was written; repeats = re-read of")
    print("   an old value; gaps = a message was overwritten unread)")

    banner("status channel: write needs empty, read needs full")
    sys = System(get("status-channel-exact"))
    report = explore(sys)
    (sent, received), = terminal_values(sys, report, "ch", ("sent", "received"))
    print(f"  {report.schedules_complete} schedule (the guards force alternation)")
    print(f"  sent     = {sent}")
    print(f"  received = {received}")
    print(f"  violations: {sorted(report.violation_classes) or 'none'}")

    banner("last-message channel: only the newest value matters")
    sys = System(get("last-message-unidirectional"))
    report = explore(sys)
    final = terminal_values(sys, report, 1, ("r",))
    print(f"  three writes race ahead, the reader is signalled afterwards")
    print(f"  final read across all schedules: {sorted(final)} — always the last write")

    banner("duplex: both directions through one slot")
    report = explore(get("duplex-strict"))
    print(f"  strict mode: {report.schedules_complete} schedule, "
          f"classes: {sorted(report.violation_classes) or 'none'}")
    report = explore(get("duplex-last-message"))
    print(f"  last-message mode: classes: {sorted(report.violation_classes)}")
    print("  a side may replace its own unread message (own-outgoing), but the")
    print("  guard never lets it destroy a message addressed to it (incoming)")


if __name__ == "__main__":
    main()
