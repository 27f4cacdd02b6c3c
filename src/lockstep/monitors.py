"""Safety monitors.

A monitor observes states and transitions and reports hits as
``(kind, name, detail)`` triples; it never influences enabledness. All the
state a monitor needs lives inside the mechanism snapshots themselves (the
send/receive logs, the read-since-write flag), so a hit is a pure function
of what it is shown and exploration may merge states freely.
"""

from __future__ import annotations

from .kernel import store_get, store_has
from .machines import DuplexChannel, MessageCell


class Monitor:
    def on_state(self, sys, state):
        return ()

    def on_event(self, sys, prev, event, post):
        return ()

    def on_terminal(self, sys, state):
        return ()


class LocalAsserts(Monitor):
    """Built-in: surfaces failed assert_local steps. Always installed."""

    def on_state(self, sys, state):
        return [("monitor_assert", "assert_local", ps.failed)
                for ps in state.procs if ps.failed]


class MutualExclusion(Monitor):
    """At most one marked process inside its critical section at a time.

    A marker is a (process, var) pair; the process is inside while the
    variable holds a value whose first word is 1.
    """

    def __init__(self, doc):
        self.markers = [(m[0], m[1]) for m in doc["markers"]]

    def on_state(self, sys, state):
        inside = []
        for pid, name in self.markers:
            store = state.procs[pid].store
            if not store_has(store, name):
                continue
            v = store_get(store, name)
            if isinstance(v, tuple) and v and v[0] == 1:
                inside.append(pid)
        if len(inside) >= 2:
            who = ", ".join(f"p{q}" for q in inside)
            return [("monitor_assert", "mutual_exclusion", f"{who} inside together")]
        return ()


class SentReceivedOrder(Monitor):
    """Received must always be a prefix of sent; equal once everyone stops."""

    def __init__(self, doc, index):
        self.index = index

    def on_state(self, sys, state):
        m = state.mechs[self.index]
        if m.received != m.sent[:len(m.received)]:
            return [("monitor_assert", "sent_received_order",
                     f"received {m.received!r} is not a prefix of sent {m.sent!r}")]
        return ()

    def on_terminal(self, sys, state):
        m = state.mechs[self.index]
        if m.received != m.sent:
            return [("monitor_assert", "sent_received_order",
                     f"terminated with received {m.received!r} != sent {m.sent!r}")]
        return ()


class TornValue(Monitor):
    """The words one process read must assemble into an intended value.

    The verdict reads only the reader's own ``ProcState``, so it is kept per
    ``ProcState`` for the life of the instance (one strategy call, since
    ``compile_monitors`` builds fresh monitors for each); the memo grows with
    the reader's distinct local states.
    """

    def __init__(self, doc):
        self.pid = doc["process"]
        self.names = list(doc["vars"])
        self.allowed = {tuple(v) for v in doc["allowed"]}
        self.mech_id = doc["mechanism"]
        self._hits = {}  # reader ProcState -> tuple of hits

    def on_state(self, sys, state):
        ps = state.procs[self.pid]
        hits = self._hits.get(ps)
        if hits is None:
            hits = self._hits[ps] = self.scan(ps.store)
        return hits

    def scan(self, store):
        """The hits for one reader store, as a tuple."""
        got = []
        for name in self.names:
            if not store_has(store, name):
                return ()
            w = store_get(store, name)
            if not isinstance(w, int):
                return ()
            got.append(w)
        assembled = tuple(got)
        if assembled not in self.allowed:
            return (("torn_read", None,
                     f"p{self.pid} assembled {assembled!r} from '{self.mech_id}', "
                     f"which no single write produced"),)
        return ()


class RecipientTag(Monitor):
    """A message must be consumed by the side it was addressed to."""

    def __init__(self, doc, index):
        self.mech_id = doc["mechanism"]
        self.index = index

    def on_event(self, sys, prev, event, post):
        pid, label, mech_id = event
        if mech_id != self.mech_id or label[0] != "read":
            return ()
        m = prev.mechs[self.index]
        if isinstance(m, DuplexChannel) and m.pending_writer() == pid:
            return [("wrong_recipient", None,
                     f"p{pid} consumed the message it wrote itself")]
        return ()


class TerminalAssert(Monitor):
    """A named variable must hold an expected value once everyone stops."""

    def __init__(self, doc):
        self.pid = doc["process"]
        self.var = doc["var"]
        exp = doc["expected"]
        self.expected = tuple(exp) if isinstance(exp, list) else exp

    def on_terminal(self, sys, state):
        store = state.procs[self.pid].store
        got = store_get(store, self.var) if store_has(store, self.var) else "<unbound>"
        if got != self.expected:
            return [("monitor_assert", "terminal_assert",
                     f"p{self.pid}.{self.var} is {got!r}, expected {self.expected!r}")]
        return ()


class LostUnread(Monitor):
    """Flags any write that buries a message nobody has read yet.

    On a duplex channel the detail distinguishes replacing your own
    outgoing message from destroying an incoming one.
    """

    def __init__(self, doc, index):
        self.mech_id = doc["mechanism"]
        self.index = index

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


def compile_monitors(sys):
    """Instantiate the scenario's monitors plus the built-in assert watcher."""
    out = [LocalAsserts()]
    for doc in sys.scenario.monitors:
        kind = doc["kind"]
        if kind == "mutual_exclusion":
            out.append(MutualExclusion(doc))
        elif kind == "sent_received_order":
            out.append(SentReceivedOrder(doc, sys.mech_index[doc["mechanism"]]))
        elif kind == "torn_value":
            out.append(TornValue(doc))
        elif kind == "recipient_tag":
            out.append(RecipientTag(doc, sys.mech_index[doc["mechanism"]]))
        elif kind == "terminal_assert":
            out.append(TerminalAssert(doc))
        elif kind == "lost_unread":
            out.append(LostUnread(doc, sys.mech_index[doc["mechanism"]]))
        else:
            raise ValueError(f"unknown monitor kind: {kind!r}")
    return tuple(out)
