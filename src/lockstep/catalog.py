"""Built-in scenario catalog.

Fourteen small scenarios, each exercising one communication mechanism or
one failure mode, with the outcome exhaustive exploration must produce:
the exact set of violation classes, plus per-entry checks where the
interesting fact is a value (terminal register contents, delivery
sequences, equivalence of two formulations) rather than a violation.

catalog_check() explores every entry and compares against these
expectations; the CLI exposes it as the ``catalog-check`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scenarios as s
from .explorer import (explore, terminal_mechanism_states, terminal_variable_values)
from .kernel import System


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    outcome: str
    expected_classes: frozenset
    build: callable = field(repr=False)
    extra: callable | None = field(default=None, repr=False)


# -- scenario builders --------------------------------------------------------


def _torn_read_raw():
    return s.Scenario.from_parts(
        "torn-read-raw", 2,
        [s.raw_cell("cell", [0, 0])],
        [s.process(0, s.write_word("cell", 0, 1), s.write_word("cell", 1, 1)),
         s.process(1, s.write_word("cell", 0, 2), s.write_word("cell", 1, 2)),
         s.process(2, s.read_word("cell", 0, "a"), s.read_word("cell", 1, "b"))],
        [s.torn_value("cell", [[0, 0], [1, 1], [2, 2]], 2, ["a", "b"])])


def _torn_read_locked():
    return s.Scenario.from_parts(
        "torn-read-locked", 2,
        [s.locked_cell("cell", [0, 0], mode="encapsulated")],
        [s.process(0, s.lock("cell"), s.write_word("cell", 0, 1),
                   s.write_word("cell", 1, 1), s.unlock("cell")),
         s.process(1, s.lock("cell"), s.write_word("cell", 0, 2),
                   s.write_word("cell", 1, 2), s.unlock("cell")),
         s.process(2, s.lock("cell"), s.read_word("cell", 0, "a"),
                   s.read_word("cell", 1, "b"), s.unlock("cell"))],
        [s.torn_value("cell", [[0, 0], [1, 1], [2, 2]], 2, ["a", "b"])])


def _undisciplined_third_party():
    return s.Scenario.from_parts(
        "undisciplined-third-party", 2,
        [s.locked_cell("cell", [0, 0], mode="undisciplined")],
        [s.process(0, s.lock("cell"), s.write_word("cell", 0, 1),
                   s.write_word("cell", 1, 1), s.unlock("cell")),
         s.process(1, s.write_word("cell", 0, 3), s.write_word("cell", 1, 3)),
         s.process(2, s.lock("cell"), s.read_word("cell", 0, "a"),
                   s.read_word("cell", 1, "b"), s.unlock("cell"))],
        [s.torn_value("cell", [[0, 0], [1, 1], [3, 3]], 2, ["a", "b"])])


def _lost_message_basic():
    return s.Scenario.from_parts(
        "lost-message-basic", 1,
        [s.message_cell("mc")],
        [s.process(0, s.write("mc", [1]), s.write("mc", [2]), s.write("mc", [3])),
         s.process(1, s.read("mc", "r1"), s.read("mc", "r2"), s.read("mc", "r3"))],
        [s.lost_unread("mc")])


def _status_channel_exact():
    return s.Scenario.from_parts(
        "status-channel-exact", 1,
        [s.status_channel("ch")],
        [s.process(0, s.write("ch", [1]), s.write("ch", [2]), s.write("ch", [3])),
         s.process(1, s.read("ch", "r1"), s.read("ch", "r2"), s.read("ch", "r3"))],
        [s.sent_received_order("ch"), s.lost_unread("ch")])


def _deadlock_direct_duplex():
    return s.Scenario.from_parts(
        "deadlock-direct-duplex", 1,
        [s.direct_channel("ab"), s.direct_channel("ba")],
        [s.process(0, s.local("m", [1]), s.send("ab", s.var("m")), s.receive("ba", "x")),
         s.process(1, s.local("m", [2]), s.send("ba", s.var("m")), s.receive("ab", "x"))])


def _deadlock_fixed_indirect():
    return s.Scenario.from_parts(
        "deadlock-fixed-indirect", 1,
        [s.direct_channel("ab"), s.status_channel("sc")],
        [s.process(0, s.local("m", [1]), s.send("ab", s.var("m")), s.read("sc", "x")),
         s.process(1, s.local("m", [2]), s.write("sc", s.var("m")), s.receive("ab", "x"))])


def _duplex_strict():
    return s.Scenario.from_parts(
        "duplex-strict", 1,
        [s.duplex_channel("dx", 0, 1, last_message=False)],
        [s.process(0, s.write("dx", [1]), s.read("dx", "ra")),
         s.process(1, s.read("dx", "rb"), s.write("dx", [2]))],
        [s.recipient_tag("dx"), s.sent_received_order("dx"), s.lost_unread("dx")])


def _duplex_last_message():
    return s.Scenario.from_parts(
        "duplex-last-message", 1,
        [s.duplex_channel("dx", 0, 1, last_message=True)],
        [s.process(0, s.read("dx", "ra"), s.write("dx", [1]), s.write("dx", [2])),
         s.process(1, s.write("dx", [3]), s.read("dx", "rb"))],
        [s.recipient_tag("dx"), s.lost_unread("dx")])


def _last_message_unidirectional():
    return s.Scenario.from_parts(
        "last-message-unidirectional", 1,
        [s.last_message_channel("lm"), s.status_channel("done")],
        [s.process(0, s.write("lm", [1]), s.write("lm", [2]), s.write("lm", [3]),
                   s.write("done", [1])),
         s.process(1, s.read("done", "d"), s.read("lm", "r"))],
        [s.terminal_assert(1, "r", [3])])


def _register_atomic_update():
    return s.Scenario.from_parts(
        "register-atomic-update", 1,
        [s.shared_register("reg", [0])],
        [s.process(0, s.loop(3, [s.update("reg", "inc")])),
         s.process(1, s.loop(3, [s.update("reg", "inc")]))])


def _register_lost_update():
    step = [s.read("reg", "t"), s.local("g", s.applied("inc", "t")),
            s.write("reg", s.var("g"))]
    return s.Scenario.from_parts(
        "register-lost-update", 1,
        [s.shared_register("reg", [0])],
        [s.process(0, s.loop(3, step)),
         s.process(1, s.loop(3, step))])


def _dekker_round(i):
    j = 1 - i
    fi, fj = f"flag{i}", f"flag{j}"
    back_off = [
        s.write_word(fi, 0, 0),
        s.wait_word("turn", 0, i),
        s.write_word(fi, 0, 1),
        s.if_word(fj, 0, 1, then=[s.wait_word(fj, 0, 0)]),
    ]
    return [
        s.write_word(fi, 0, 1),
        s.if_word(fj, 0, 1,
                  then=[s.if_word("turn", 0, j, then=back_off,
                                  orelse=[s.wait_word(fj, 0, 0)])]),
        s.local("cs", [1]),
        s.local("cs", [0]),
        s.write_word("turn", 0, j),
        s.write_word(fi, 0, 0),
    ]


def _dekker_mutex():
    return s.Scenario.from_parts(
        "dekker-mutex", 1,
        [s.raw_cell("flag0", [0]), s.raw_cell("flag1", [0]), s.raw_cell("turn", [0])],
        [s.process(0, *(_dekker_round(0) + _dekker_round(0))),
         s.process(1, *(_dekker_round(1) + _dekker_round(1)))],
        [s.mutual_exclusion([[0, "cs"], [1, "cs"]])])


def _decomposition_equivalence():
    relay = s.loop(6, [s.choose([s.receive("d_in", "cur")],
                                [s.send("d_out", s.var("cur"))])])
    return s.Scenario.from_parts(
        "decomposition-equivalence", 1,
        [s.direct_channel("d_in"), s.direct_channel("d_out")],
        [s.process(0, s.send("d_in", [1]), s.send("d_in", [2]), s.send("d_in", [3])),
         s.process(1, s.local("cur", None), relay),
         s.process(2, s.receive("d_out", "r1"), s.receive("d_out", "r2"),
                   s.receive("d_out", "r3"))])


# -- per-entry checks beyond the violation-class comparison --------------------


def _check_status_exact(sys, report):
    want = ((1,), (2,), (3,))
    problems = []
    for m in terminal_mechanism_states(sys, report, "ch"):
        if m.sent != want or m.received != want:
            problems.append(f"terminal channel logs sent={m.sent!r} received={m.received!r}, "
                            f"expected {want!r} both ways")
    if report.states_visited >= 10_000:
        problems.append(f"visited {report.states_visited} states, expected well under 10000")
    return problems


def _check_single_schedule(sys, report):
    if report.schedules_complete != 1:
        return [f"{report.schedules_complete} schedules, expected exactly 1 "
                "(the guards force strict alternation)"]
    return []


def _check_final_read(sys, report):
    got = terminal_variable_values(sys, report, 1, ("r",))
    if got != {((3,),)}:
        return [f"final reads {sorted(got, key=repr)}, expected always (3,)"]
    return []


def _check_atomic_total(sys, report):
    got = {m.content for m in terminal_mechanism_states(sys, report, "reg")}
    if got != {(6,)}:
        return [f"terminal register contents {sorted(got)}, expected exactly (6,)"]
    return []


def _check_lost_update_range(sys, report):
    words = sorted(m.content[0] for m in terminal_mechanism_states(sys, report, "reg"))
    problems = []
    if not words or min(words) != 2:
        problems.append(f"worst terminal value is {words[:1]}, expected the minimum to be 2")
    if not words or max(words) != 6:
        problems.append(f"best terminal value is {words[-1:]}, expected the maximum to be 6")
    return problems


def _reader_sequences(sys, report, pid):
    return terminal_variable_values(sys, report, pid, ("r1", "r2", "r3"))


def _check_decomposition(sys, report):
    base_sys = System(_lost_message_basic())
    base = explore(base_sys)
    direct_two_step = _reader_sequences(sys, report, 2)
    one_cell = _reader_sequences(base_sys, base, 1)
    if direct_two_step != one_cell:
        only_a = sorted(direct_two_step - one_cell, key=repr)  # None is unordered
        only_b = sorted(one_cell - direct_two_step, key=repr)
        return [f"observable reader sequences differ: relay-only {only_a}, cell-only {only_b}"]
    return []


# -- the catalog ---------------------------------------------------------------


CATALOG = (
    CatalogEntry(
        "torn-read-raw",
        "two writers and a reader on an unprotected two-word cell",
        "a schedule interleaves word writes with the reads: TornRead",
        frozenset({"torn_read"}), _torn_read_raw),
    CatalogEntry(
        "torn-read-locked",
        "the same parties, but the cell is encapsulated behind a lock",
        "no violations; every assembled read is a whole written value",
        frozenset(), _torn_read_locked),
    CatalogEntry(
        "undisciplined-third-party",
        "a lock both parties honour and a third process that ignores it",
        "the lock does not help: TornRead via the third party's bare writes",
        frozenset({"torn_read"}), _undisciplined_third_party),
    CatalogEntry(
        "lost-message-basic",
        "three writes racing three reads through an unordered message cell",
        "a second write can land before the first is read: LostMessage",
        frozenset({"lost_message"}), _lost_message_basic),
    CatalogEntry(
        "status-channel-exact",
        "the same traffic through an empty/full gated channel",
        "no violations; delivery is exactly-once in order, one schedule only",
        frozenset(), _status_channel_exact, _check_status_exact),
    CatalogEntry(
        "deadlock-direct-duplex",
        "two processes that each send before receiving on direct channels",
        "both block at their send, no rendezvous can form: Deadlock",
        frozenset({"deadlock"}), _deadlock_direct_duplex),
    CatalogEntry(
        "deadlock-fixed-indirect",
        "the same exchange with one direction made asynchronous",
        "no violations; the buffered direction breaks the cyclic wait",
        frozenset(), _deadlock_fixed_indirect),
    CatalogEntry(
        "duplex-strict",
        "one slot serving both directions, writes require it empty",
        "no violations; each side only ever consumes what was meant for it",
        frozenset(), _duplex_strict, _check_single_schedule),
    CatalogEntry(
        "duplex-last-message",
        "both-direction slot where a side may replace its own unread message",
        "LostMessage only of the own-outgoing sort, never of an incoming one",
        frozenset({"lost_message:own-outgoing"}), _duplex_last_message),
    CatalogEntry(
        "last-message-unidirectional",
        "three writes overwrite freely, the reader is signalled afterwards",
        "no violations; the final read always observes the last value",
        frozenset(), _last_message_unidirectional, _check_final_read),
    CatalogEntry(
        "register-atomic-update",
        "two processes each apply three indivisible increments",
        "no violations; every schedule ends with the register at 6",
        frozenset(), _register_atomic_update, _check_atomic_total),
    CatalogEntry(
        "register-lost-update",
        "the same increments spelled out as read, generate, write",
        "no violation class, but interleavings lose updates: terminal values range 2..6",
        frozenset(), _register_lost_update, _check_lost_update_range),
    CatalogEntry(
        "dekker-mutex",
        "two-process mutual exclusion from raw flags and a turn word",
        "no violations; the flag/turn protocol excludes and never deadlocks",
        frozenset(), _dekker_mutex),
    CatalogEntry(
        "decomposition-equivalence",
        "a one-slot cell re-expressed as a relay between two rendezvous",
        "no violations; the reader observes exactly the sequences the cell allows",
        frozenset(), _decomposition_equivalence, _check_decomposition),
)

_BY_NAME = {e.name: e for e in CATALOG}


def names():
    return [e.name for e in CATALOG]


def entries():
    return list(CATALOG)


def get_entry(name) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no catalog scenario named {name!r}; see 'lockstep list'") from None


def get(name) -> s.Scenario:
    return get_entry(name).build()


@dataclass(frozen=True)
class CheckRow:
    name: str
    ok: bool
    expected: tuple
    found: tuple
    problems: tuple
    states_visited: int
    schedules_complete: int | None


def catalog_check(only=None, bounds=None):
    """Explore each entry (or those ``only`` names, each checked by ``get_entry``
    first) and compare against its documented outcome."""
    for name in only or ():
        get_entry(name)
    rows = []
    for entry in CATALOG:
        if only and entry.name not in only:
            continue
        sys = System(entry.build())
        report = explore(sys, bounds)
        problems = []
        if report.violation_classes != entry.expected_classes:
            problems.append(f"violation classes {sorted(report.violation_classes)} "
                            f"!= expected {sorted(entry.expected_classes)}")
        if report.bounds_hit:
            problems.append("exploration hit its bounds; the verdict is incomplete")
        if entry.extra is not None and not problems:
            problems.extend(entry.extra(sys, report))
        rows.append(CheckRow(
            name=entry.name, ok=not problems,
            expected=tuple(sorted(entry.expected_classes)),
            found=tuple(sorted(report.violation_classes)),
            problems=tuple(problems),
            states_visited=report.states_visited,
            schedules_complete=report.schedules_complete))
    return rows
