"""Safety monitors.

A monitor observes states and transitions and reports hits as
``(kind, name, detail)`` triples; it never influences enabledness. All the
state a monitor needs lives inside the mechanism snapshots themselves (the
send/receive logs, the read-since-write flag), so a hit is a pure function
of what it is shown and exploration may merge states freely.

States are checked through *watches*, pairs ``(slots, verdict)``. The slots
index a state's parts as a ``System`` packs them: its mechanisms, then its
processes. ``verdict(*parts)`` is given the parts at those slots and returns
a tuple of hits. It may depend on nothing else, so a verdict can be kept per
distinct parts it reads. Events and terminal states are checked on views.

A monitor that reads or reports a process by its pid says so through
``named()``: pairs ``(pid, signature)``. Two processes can swap places
without changing what the monitors see only when they are named with equal
signatures; a signature of None allows no swap.
"""

from __future__ import annotations

from .kernel import store_get
from .machines import DuplexChannel, MessageCell


class Monitor:
    def watches(self, n_mechs, n_procs):
        """The (slots, verdict) pairs for states of n_mechs mechanisms and n_procs processes."""
        return ()

    def named(self):
        """The (pid, signature) pairs of the processes this monitor reads or reports by pid."""
        return ()

    def on_state(self, sys, state):
        """The hits on a view: each watch's verdict on the parts it reads, in order."""
        parts = state.mechs + state.procs
        return tuple(hit for slots, verdict in self.watches(len(state.mechs), len(state.procs))
                     for hit in verdict(*map(parts.__getitem__, slots)))

    def on_event(self, sys, prev, event, post):
        return ()

    def on_terminal(self, sys, state):
        return ()


class LocalAsserts(Monitor):
    """Built-in: surfaces failed assert_local steps. Always installed.

    A process's ``failed`` is set only by its own assert_local, so only the
    processes whose programs have one are watched.
    """

    def __init__(self, pids):
        self.pids = tuple(pids)

    def watches(self, n_mechs, n_procs):
        return [((n_mechs + p,), self.verdict) for p in self.pids]

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
        return [(tuple(n_mechs + pid for pid, _ in self.markers), self.verdict)]

    def named(self):
        return tuple((pid, None) for pid, _ in self.markers)

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
    """A monitor of one mechanism, built with the mechanism's slot, ``index``."""

    def __init__(self, doc, index):
        self.mech_id = doc["mechanism"]
        self.index = index


class SentReceivedOrder(MechanismMonitor):
    """Received must always be a prefix of sent; equal once everyone stops."""

    def watches(self, n_mechs, n_procs):
        return [((self.index,), self.verdict)]

    @staticmethod
    def verdict(m):
        if m.received != m.sent[:len(m.received)]:
            return (("monitor_assert", "sent_received_order",
                     f"received {m.received!r} is not a prefix of sent {m.sent!r}"),)
        return ()

    def on_terminal(self, sys, state):
        m = state.mechs[self.index]
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
        return [((n_mechs + self.pid,), lambda ps: self.scan(ps.store))]

    def named(self):
        """Readers with equal variables, allowed values and mechanism may swap."""
        return ((self.pid, (tuple(self.names), frozenset(self.allowed), self.mech_id)),)

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

    def on_event(self, sys, prev, event, post):
        pid, label, mech_id = event
        if mech_id != self.mech_id or label[0] != "read":
            return ()
        if prev.mechs[self.index].pending_writer() == pid:  # validate admits only a duplex_channel
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

    def named(self):
        return ((self.pid, None),)

    def on_terminal(self, sys, state):
        store = state.procs[self.pid].store
        got = store_get(store, self.var, "<unbound>")
        if got != self.expected:
            return [("monitor_assert", "terminal_assert",
                     f"p{self.pid}.{self.var} is {got!r}, expected {self.expected!r}")]
        return ()


class LostUnread(MechanismMonitor):
    """Flags any write that buries a message nobody has read yet.

    On a duplex channel the detail distinguishes replacing your own
    outgoing message from destroying an incoming one.
    """

    def on_event(self, sys, prev, event, post):
        pid, label, mech_id = event
        if mech_id != self.mech_id or label[0] != "write":
            return ()
        m = prev.mechs[self.index]
        if m.content is None:
            return ()
        if isinstance(m, MessageCell):
            if m.read_since_write:
                return ()
            return [("lost_message", None, None)]
        if isinstance(m, DuplexChannel):
            side = "own-outgoing" if m.dest != pid else "incoming"
            return [("lost_message", None, side)]
        return [("lost_message", None, None)]


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
