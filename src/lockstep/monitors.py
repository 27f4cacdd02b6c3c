"""Safety monitors.

A monitor observes states and transitions and reports hits as
``(kind, name, detail)`` triples; it never influences enabledness. All the
state a monitor needs lives inside the mechanism snapshots themselves (the
send/receive logs, the read-since-write flag), so a hit is a pure function
of what it is shown and exploration may merge states freely.

Every check is a *watch*, a triple ``(when, slots, verdict)``. The slots
index a state's parts as a ``System`` packs them: its mechanisms, then its
processes. A ``"state"`` verdict judges every state, a ``"terminal"`` one
every state where all processes have stopped, as ``verdict(*parts)`` of the
parts at its slots. An ``"event"`` watch names exactly one mechanism slot,
and its verdict judges every step whose instruction touches that mechanism,
as ``verdict(action, part)`` of the mechanism's part before the step. A
verdict returns a tuple of hits and depends on nothing else, so the
``System`` keeps a state or terminal verdict per distinct parts it reads,
and an event verdict per edge, beside the edge's move. No monitor is shown
a whole state.

A monitor that reads or reports a process by its pid says so through
``named()``: pairs ``(pid, signature)``. Two processes can swap places
without changing what the monitors see only when they are named with equal
signatures; a signature of None allows no swap. A monitor that compares what
it reads with a word of its own says through ``invariant(words)`` whether
renaming every word ``w`` to ``words[w]`` maps it onto itself.
"""

from __future__ import annotations

from .kernel import store_get
from .machines import DuplexChannel, MessageCell, renamed


class Monitor:
    def watches(self, n_mechs, n_procs):
        """The (when, slots, verdict) triples for n_mechs mechanisms and n_procs processes."""
        return ()

    def named(self):
        """The (pid, signature) pairs of the processes this monitor reads or reports by pid."""
        return ()

    def invariant(self, words):
        """Whether renaming each word w to words[w] keeps every verdict; a monitor
        that compares values only with each other is kept."""
        return True

    def on_state(self, sys, state):
        """The hits on a view: each state watch's verdict on the parts it reads, in order."""
        parts, n_mechs = state.mechs + state.procs, len(state.mechs)
        return tuple(hit for when, slots, verdict in self.watches(n_mechs, len(state.procs))
                     if when == "state" for hit in verdict(*map(parts.__getitem__, slots)))


class LocalAsserts(Monitor):
    """Built-in: surfaces failed assert_local steps. Always installed.

    A process's ``failed`` is set only by its own assert_local, so only the
    processes whose programs have one are watched.
    """

    def __init__(self, pids):
        self.pids = tuple(pids)

    def watches(self, n_mechs, n_procs):
        return [("state", (n_mechs + p,), self.verdict) for p in self.pids]

    def named(self):
        return tuple((p, None) for p in self.pids)

    @staticmethod
    def verdict(ps):
        return (("monitor_assert", "assert_local", ps.failed),) if ps.failed else ()


class MutualExclusion(Monitor):
    """At most one marked process inside its critical section at a time.

    A marker is a (process, var) pair; the process is inside while the
    variable holds a value whose first word is 1.
    """

    def __init__(self, doc):
        self.markers = [(m[0], m[1]) for m in doc["markers"]]

    def watches(self, n_mechs, n_procs):
        return [("state", tuple(n_mechs + pid for pid, _ in self.markers), self.verdict)]

    def named(self):
        return tuple((pid, None) for pid, _ in self.markers)

    def invariant(self, words):
        return words[1] == 1   # inside means a first word of 1

    def verdict(self, *procs):
        inside = []
        for (pid, name), ps in zip(self.markers, procs):
            v = store_get(ps.store, name, None)
            if isinstance(v, tuple) and v and v[0] == 1 and pid not in inside:
                inside.append(pid)  # a process marked twice is inside once
        if len(inside) >= 2:
            who = ", ".join(f"p{q}" for q in inside)
            return (("monitor_assert", "mutual_exclusion", f"{who} inside together"),)
        return ()


class MechanismMonitor(Monitor):
    """A monitor of one mechanism, built with the mechanism's slot, ``index``.
    Unless it declares other watches, it judges each step on the mechanism
    by ``on_event`` on the mechanism's snapshot before the step."""

    def __init__(self, doc, index):
        self.index = index

    def watches(self, n_mechs, n_procs):
        return [("event", (self.index,), self.on_event)]


class SentReceivedOrder(MechanismMonitor):
    """Received must always be a prefix of sent; equal once everyone stops."""

    def watches(self, n_mechs, n_procs):
        return [("state", (self.index,), self.verdict),
                ("terminal", (self.index,), self.on_terminal)]

    @staticmethod
    def verdict(m):
        if m.received != m.sent[:len(m.received)]:
            return (("monitor_assert", "sent_received_order",
                     f"received {m.received!r} is not a prefix of sent {m.sent!r}"),)
        return ()

    def on_terminal(self, m):
        if m.received != m.sent:
            return [("monitor_assert", "sent_received_order",
                     f"terminated with received {m.received!r} != sent {m.sent!r}")]
        return ()


class TornValue(Monitor):
    """The words one process read must assemble into an intended value."""

    def __init__(self, doc):
        self.pid = doc["process"]
        self.names = list(doc["vars"])
        self.allowed = {tuple(v) for v in doc["allowed"]}
        self.mech_id = doc["mechanism"]

    def watches(self, n_mechs, n_procs):
        return [("state", (n_mechs + self.pid,), lambda ps: self.scan(ps.store))]

    def named(self):
        """Readers with equal variables, allowed values and mechanism may swap."""
        return ((self.pid, (tuple(self.names), frozenset(self.allowed), self.mech_id)),)

    def invariant(self, words):
        return {renamed(v, words) for v in self.allowed} == self.allowed

    def scan(self, store):
        """The hits for one reader store, as a tuple."""
        got = []
        for name in self.names:
            w = store_get(store, name, None)
            if not isinstance(w, int):
                return ()
            got.append(w)
        assembled = tuple(got)
        if assembled not in self.allowed:
            return (("torn_read", None,
                     f"p{self.pid} assembled {assembled!r} from '{self.mech_id}', "
                     f"which no single write produced"),)
        return ()


class RecipientTag(MechanismMonitor):
    """A message must be consumed by the side it was addressed to."""

    def on_event(self, event, m):
        pid, label, _ = event
        if label[0] != "read":
            return ()
        if m.pending_writer() == pid:  # validate admits only a duplex_channel
            return [("wrong_recipient", None,
                     f"p{pid} consumed the message it wrote itself")]
        return ()


class TerminalAssert(Monitor):
    """A named variable must hold an expected value once everyone stops."""

    def __init__(self, doc):
        self.pid = doc["process"]
        self.var = doc["var"]
        exp = doc.get("expected")  # left out, it is null, as scenarios.validate reads it
        self.expected = tuple(exp) if isinstance(exp, list) else exp

    def watches(self, n_mechs, n_procs):
        return [("terminal", (n_mechs + self.pid,), self.on_terminal)]

    def named(self):
        return ((self.pid, None),)

    def invariant(self, words):
        return renamed(self.expected, words) == self.expected

    def on_terminal(self, ps):
        got = store_get(ps.store, self.var, "<unbound>")
        if got != self.expected:
            return [("monitor_assert", "terminal_assert",
                     f"p{self.pid}.{self.var} is {got!r}, expected {self.expected!r}")]
        return ()


class LostUnread(MechanismMonitor):
    """Flags any write that buries a message nobody has read yet.

    On a duplex channel the detail distinguishes replacing your own
    outgoing message from destroying an incoming one.
    """

    def on_event(self, event, m):
        pid, label, _ = event
        if label[0] != "write" or m.content is None:
            return ()
        if isinstance(m, MessageCell) and m.read_since_write:
            return ()
        side = None
        if isinstance(m, DuplexChannel):
            side = "own-outgoing" if m.dest != pid else "incoming"
        return [("lost_message", None, side)]


# monitor kind -> (its class, the family of machines.KINDS its mechanism must
# serve, or None if any kind will do and the mechanism may be left out, and its
# document's fields besides kind, in the order scenarios.validate checks them)
KINDS = {"mutual_exclusion": (MutualExclusion, None, ("mechanism", "markers")),
         "sent_received_order": (SentReceivedOrder, "logged", ("mechanism",)),
         "torn_value": (TornValue, "word", ("mechanism", "allowed", "process", "vars")),
         "recipient_tag": (RecipientTag, "duplex", ("mechanism",)),
         "terminal_assert": (TerminalAssert, None, ("process", "var", "expected")),
         "lost_unread": (LostUnread, "logged", ("mechanism",))}


def compile_monitors(sys):
    """Instantiate the scenario's monitors plus the built-in assert watcher."""
    out = [LocalAsserts(p for p, program in enumerate(sys.programs)
                        if any(ins.op == "assert_local" for ins in program.instrs))]
    for doc in sys.scenario.monitors:
        cls = KINDS[doc["kind"]][0]
        out.append(cls(doc, sys.mech_index[doc["mechanism"]])
                   if issubclass(cls, MechanismMonitor) else cls(doc))
    return tuple(out)
