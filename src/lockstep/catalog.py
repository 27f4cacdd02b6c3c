"""Built-in scenario catalog.

Fourteen small scenarios, each exercising one communication mechanism or
one failure mode, with the outcome exhaustive exploration must produce:
the exact set of violation classes, plus facts where the interesting fact
is a count or a value rather than a violation. Each fact is data of one of
three kinds: an exact schedule count, a ceiling on the states visited, or
an ``Observation`` of the terminal states (delivery logs, register
contents, or the equivalence of two formulations).

catalog_check() explores every entry and compares against these
expectations; the CLI exposes it as the ``catalog-check`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scenarios as s
from .explorer import explore, terminal_values
from .kernel import System


@dataclass(frozen=True)
class Observation:
    """What ``names`` of ``source`` (a pid or a mechanism id) hold over the terminal states."""
    source: int | str
    names: tuple
    values: frozenset = frozenset()   # exactly these,
    like: tuple | None = None         # or, given (entry name, source), those it holds there


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    outcome: str
    expected_classes: frozenset
    build: callable = field(repr=False)
    schedules: int | None = None       # the exact count of maximal schedules
    state_ceiling: int | None = None   # states_visited stays below it
    observe: Observation | None = None


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
        frozenset(), _status_channel_exact, state_ceiling=10_000,
        observe=Observation("ch", ("sent", "received"), frozenset({(((1,), (2,), (3,)),) * 2}))),
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
        frozenset(), _duplex_strict, schedules=1),
    CatalogEntry(
        "duplex-last-message",
        "both-direction slot where a side may replace its own unread message",
        "LostMessage only of the own-outgoing sort, never of an incoming one",
        frozenset({"lost_message:own-outgoing"}), _duplex_last_message),
    CatalogEntry(
        "last-message-unidirectional",
        "three writes overwrite freely, the reader is signalled afterwards",
        "no violations; the final read always observes the last value",
        frozenset(), _last_message_unidirectional,
        observe=Observation(1, ("r",), frozenset({((3,),)}))),
    CatalogEntry(
        "register-atomic-update",
        "two processes each apply three indivisible increments",
        "no violations; every schedule ends with the register at 6",
        frozenset(), _register_atomic_update,
        observe=Observation("reg", ("content",), frozenset({((6,),)}))),
    CatalogEntry(
        "register-lost-update",
        "the same increments spelled out as read, generate, write",
        "no violation class, but interleavings lose updates: terminal values range 2..6",
        frozenset(), _register_lost_update,
        observe=Observation("reg", ("content",), frozenset({((k,),) for k in range(2, 7)}))),
    CatalogEntry(
        "dekker-mutex",
        "two-process mutual exclusion from raw flags and a turn word",
        "no violations; the flag/turn protocol excludes and never deadlocks",
        frozenset(), _dekker_mutex),
    CatalogEntry(
        "decomposition-equivalence",
        "a one-slot cell re-expressed as a relay between two rendezvous",
        "no violations; the reader observes exactly the sequences the cell allows",
        frozenset(), _decomposition_equivalence,
        observe=Observation(2, ("r1", "r2", "r3"), like=("lost-message-basic", 1))),
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


def fact_problems(entry, sys, report):
    """The facts of ``entry`` that ``report``, explored on ``sys``, breaks."""
    label = lambda source, names: f"{'p' * isinstance(source, int)}{source}.{'/'.join(names)}"
    n, ceiling = report.schedules_complete, entry.state_ceiling
    problems = []
    if entry.schedules not in (None, n):
        problems.append(f"{n} schedules, expected exactly {entry.schedules}")
    if ceiling is not None and report.states_visited >= ceiling:
        problems.append(f"visited {report.states_visited} states, expected fewer than {ceiling}")
    if ob := entry.observe:
        got, want, where = terminal_values(sys, ob.source, ob.names), ob.values, "expected"
        if ob.like:
            other, source = ob.like  # searched afresh, so a row is the same checked alone
            want = terminal_values(System(get(other)), source, ob.names)
            where = f"in {other} {label(source, ob.names)}"
        if got != want:  # sorted by repr, since None and tuples do not compare
            problems.append(f"terminal {label(ob.source, ob.names)} not as {where}: "
                            f"unexpected {sorted(got - want, key=repr)}, "
                            f"missing {sorted(want - got, key=repr)}")
    return problems


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
    for entry in [e for e in CATALOG if not only or e.name in only]:
        sys = System(entry.build())
        report = explore(sys, bounds)
        problems = []
        if report.violation_classes != entry.expected_classes:
            problems.append(f"violation classes {sorted(report.violation_classes)} "
                            f"!= expected {sorted(entry.expected_classes)}")
        if report.bounds_hit:
            problems.append("exploration hit its bounds; the verdict is incomplete")
        if not problems:
            problems.extend(fact_problems(entry, sys, report))
        rows.append(CheckRow(
            name=entry.name, ok=not problems,
            expected=tuple(sorted(entry.expected_classes)),
            found=tuple(sorted(report.violation_classes)),
            problems=tuple(problems),
            states_visited=report.states_visited,
            schedules_complete=report.schedules_complete))
    return rows
