"""Deterministic stepping engine.

A System is a compiled scenario: the initial snapshot, one instruction
graph per process, and the guard logic that turns a global state into the
set of enabled actions. States are immutable and stepping is a pure
function, so any recorded schedule replays to the same state, and two
states that compare equal behave identically from then on.

A System's states are packed: tuples of intern indices that only that
System can read. ``System.view`` decodes one into a ``GlobalState`` of the
parts themselves, which callers of other modules see; a monitor is given
only the parts at the slots it watches (``System.parts``).

A System is also the one transition layer of the searches in ``explorer``:
they expand a state with ``edges``, take an edge with ``take`` and read the
edge's event hits beside its move, judge a state with ``hits`` and a state
with no edge with ``sink``. An edge is built whole when its offer is first
computed, so ``take`` only splices its move in. The System compiles the
scenario's monitors once and keeps every verdict for its life, as it keeps
its offers. A step whose value faults raises ``KernelError`` from ``edges``
at every state where the step is offered, and nothing of it is kept.

An action is the tuple ``(process, label, mechanism id)``. Rendezvous on a
direct channel appears as a single action carrying both parties: the label
``("send", value, receiver)`` advances sender and receiver in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from . import machines
# compile_program is not called here; bench/tracer.py wraps kernel.compile_program by name
from .programs import LABEL_KIND, Program, compile_program  # noqa: F401


class KernelError(Exception):
    """Raised when stepping hits something the static checks cannot see."""


class ChoiceNotEnabled(KernelError):
    def __init__(self, action):
        self.action = action
        super().__init__(f"action not enabled: {action!r}")


class NotEnabledAtStep(KernelError):
    """A replayed schedule asked for an action the state does not offer."""

    def __init__(self, index, action, enabled):
        self.index = index
        self.action = action
        self.enabled = tuple(enabled)
        super().__init__(f"step {index}: action {action!r} not enabled "
                         f"(enabled: {list(enabled)!r})")


# -- states ----------------------------------------------------------------

class ProcState(NamedTuple):  # built and hashed in C; state hashes read its repr
    pc: int
    store: tuple = ()          # sorted (name, value) pairs
    failed: str | None = None  # first failed assert_local, sticky


@dataclass(frozen=True, slots=True)
class GlobalState:
    """A packed state decoded: the mechanism snapshots and process states."""

    mechs: tuple
    procs: tuple


_UNBOUND = object()  # no value at all; None is a value a variable or a view entry can hold


def store_get(store, name, default=_UNBOUND):
    """The value ``name`` holds in ``store``; if unbound, ``default`` when given, else KeyError."""
    for n, v in store:
        if n == name:
            return v
    if default is _UNBOUND:
        raise KeyError(name)
    return default


def store_set(store, name, value):
    out = [(n, v) for n, v in store if n != name]
    out.append((name, value))
    out.sort()  # names are unique, so no value is ever compared
    return tuple(out)


# -- traces ------------------------------------------------------------------

@dataclass(frozen=True)
class Trace:
    """A schedule: the exact sequence of actions taken from the initial state."""

    events: tuple = ()

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def to_doc(self):
        return {"events": [event_to_doc(e) for e in self.events]}

    @classmethod
    def from_doc(cls, doc, path="events"):
        """Parse ``{"events": [...]}``; ``path`` names the list in error messages."""
        events = doc.get("events") if isinstance(doc, dict) else None
        if not isinstance(events, list):
            raise ValueError(f"{path}: expected a list of events, got {events!r}")
        return cls(tuple(event_from_doc(e, f"{path}[{k}]") for k, e in enumerate(events)))


# label kind -> (the label's fields after the kind, named as in its JSON
# document; the text run and replay print for an event with the label; the
# mechanism guard ``can_*(pid)`` that offers the kind, or None). A ``value`` is
# a tuple of words, and a send's may be None (nothing to send); an ``fn`` is an
# update function, ``("inc",)`` or ``("add", k)``. The step of a write,
# write_word, lock, unlock or update is the mechanism's ``<kind>(pid, *fields)``.
LABELS = {
    "lock": ((), "p{pid} lock {mech}", "can_lock"),
    "unlock": ((), "p{pid} unlock {mech}", "can_unlock"),
    "read": ((), "p{pid} read {mech}", "can_read"),
    "check": ((), "p{pid} check {mech}", None),
    "local": ((), "p{pid} local", None),
    "write": (("value",), "p{pid} write {value} -> {mech}", "can_write"),
    "send": (("value", "receiver"), "p{pid} send {value} -> p{receiver} via {mech}", None),
    "read_word": (("index",), "p{pid} read {mech}[{index}]", "can_access"),
    "write_word": (("index", "word"), "p{pid} write {mech}[{index}] = {word}", "can_access"),
    "update": (("fn",), "p{pid} update {mech} ({fn})", "can_access"),
}


def label_to_doc(label):
    if label[0] not in LABELS:
        raise ValueError(f"unknown action label: {label!r}")
    doc = {"kind": label[0]}
    for name, x in zip(LABELS[label[0]][0], label[1:]):
        if name == "fn":
            doc.update(zip(("fn", "k"), x))
        else:
            doc[name] = list(x) if name == "value" and x is not None else x
    return doc


def _doc_int(doc, key, path):
    v = doc.get(key)
    if type(v) is not int:  # a JSON boolean is not an id, index or word
        raise ValueError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _doc_words(doc, key, path, allow_none):
    v = doc.get(key)
    if v is None and allow_none:
        return None
    if not isinstance(v, list) or any(type(w) is not int for w in v):
        raise ValueError(f"{path}.{key}: expected a list of integers, got {v!r}")
    return tuple(v)


def label_from_doc(doc, path="action"):
    """Parse an action label; a ValueError names the JSON ``path`` at fault."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an action object, got {doc!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in LABELS:
        raise ValueError(f"{path}.kind: unknown action label kind {kind!r}")
    label = (kind,)
    for name in LABELS[kind][0]:
        if name == "fn":
            fn = doc.get("fn")
            if not isinstance(fn, str):
                raise ValueError(f"{path}.fn: expected a function name, got {fn!r}")
            label += (("add", _doc_int(doc, "k", path)) if fn == "add" else (fn,),)
        elif name == "value":
            label += (_doc_words(doc, name, path, allow_none=kind == "send"),)
        else:
            label += (_doc_int(doc, name, path),)
    return label


def format_event(event):
    """One event as ``run`` and ``replay`` print it."""
    pid, label, mech = event
    fields, text, _ = LABELS[label[0]]
    shown = {}
    for name, x in zip(fields, label[1:]):
        if name == "fn":
            x = " ".join(map(str, x))
        elif name == "value":
            x = "(nothing)" if x is None else list(x)
        shown[name] = x
    return text.format(pid=pid, mech=mech, **shown)


def event_to_doc(event):
    pid, label, mech = event
    return {"process": pid, "action": label_to_doc(label), "mechanism": mech}


def event_from_doc(doc, path="event"):
    """Parse one event; a ValueError names the JSON ``path`` at fault."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an event object, got {doc!r}")
    mech = doc.get("mechanism")
    if mech is not None and not isinstance(mech, str):
        raise ValueError(f"{path}.mechanism: expected a mechanism id, got {mech!r}")
    pid = _doc_int(doc, "process", path)
    return (pid, label_from_doc(doc.get("action"), f"{path}.action"), mech)


def _action_sort_key(action):
    """By pid, label field by field (a send's value of None first), mechanism."""
    pid, label, mech = action
    return (pid, tuple((x is not None, x) for x in label), mech or "")


# -- the engine --------------------------------------------------------------

class System:
    """A compiled scenario, ready to step.

    A process changes only its own local state and the one mechanism it
    addresses (or, in a rendezvous, its partner's), so a step's result and a
    process's offers depend only on that local view. A System therefore keeps
    its tables for its lifetime: an intern table giving an index to each
    distinct ``ProcState`` and mechanism snapshot it has produced, and per
    process a position table, keyed by program position, and a view table,
    keyed by ProcState index. A position's entry, computed once for every
    ProcState there, holds the state slots its heads' offers read (the
    mechanisms they touch and, for a send, every other process that receives
    on its channel), a getter of them, and its receive heads by channel. A
    view's entry holds that getter and the ProcState's own offers keyed by
    what the getter returns, parts as indices; it is None for an idle
    ProcState, whose heads can offer nothing. Offers are sorted only when a
    process has two or more. An offer is an immutable edge ``(action, move,
    instruction, hits)``, built whole by ``_local_offers``: the head
    instruction that offers the action, the move, and the event hits, which
    serve every state with that offer key, since the key holds every slot
    the step reads, the one slot an event watch reads included. So in
    ``edges`` a warm process costs two subscripts and one getter call, an
    idle one a subscript, and a miss fills the tables through ``_edges_of``;
    ``take`` costs a splice. Each table grows with the distinct local views
    reached, not with the global states. A state is its mechanisms' indices,
    then its processes'. A process's offers are stored only once every one
    of them is built, so a fault in a label, a move or a verdict raises at
    every state where its step is offered.

    Each state and terminal verdict is kept per distinct intern indices at
    its slots, a lookup per watch. An event verdict is judged once per edge,
    when the edge is built, and only for actions whose instruction touches
    the mechanism it watches.
    A System validates a scenario that ``validate`` has not checked, and
    takes the programs ``validate`` compiled.
    """

    def __init__(self, scenario):
        if scenario.compiled is None:
            from .scenarios import validate  # scenarios imports monitors, which imports kernel
            validate(scenario)
        self.scenario = scenario
        self.word_width = scenario.word_width
        self.mech_index = {m["id"]: i for i, m in enumerate(scenario.mechanisms)}
        self.mech_kind = {m["id"]: m["kind"] for m in scenario.mechanisms}
        self.programs: tuple[Program, ...] = scenario.compiled
        self.n_procs = len(self.programs)
        self.n_mechs = len(self.mech_index)
        self._parts = []    # intern index -> ProcState or mechanism snapshot
        self._index = {}    # part -> intern index
        self._positions = tuple({} for _ in self.programs)  # per process: pc -> _position entry
        self._views = tuple({} for _ in self.programs)  # per process: ProcState index -> view entry
        self._mech_init = tuple(self._intern(machines.KINDS[m["kind"]][0](m))
                                for m in scenario.mechanisms)
        from .monitors import compile_monitors  # monitors imports kernel
        self.monitors = compile_monitors(self)
        # by when: (key of a packed state, verdicts by key, slots, verdict), in monitor order
        watches = [(when, (itemgetter(*slots), {}, slots, verdict)) for m in self.monitors
                   for when, slots, verdict in m.watches(self.n_mechs, self.n_procs)]
        self.state_watches, self._terminal = (tuple(w for at, w in watches if at == when)
                                              for when in ("state", "terminal"))
        self._events = {}   # mechanism slot -> the event verdicts that watch it, in monitor order
        for when, (_, _, slots, verdict) in watches:
            if when == "event":
                (slot,) = slots   # an event watch names one mechanism slot
                self._events.setdefault(slot, []).append(verdict)

    def _intern(self, x):
        i = self._index.get(x)
        if i is None:
            i = self._index[x] = len(self._parts)
            self._parts.append(x)
        return i

    # -- state basics ------------------------------------------------------

    def initial_state(self) -> tuple:
        return self._mech_init + (self._intern(ProcState(pc=0)),) * self.n_procs

    def view(self, state) -> GlobalState:
        """Decode a packed state of this System into its parts."""
        parts = tuple(map(self._parts.__getitem__, state))
        return GlobalState(parts[:self.n_mechs], parts[self.n_mechs:])

    def parts(self, state, slots):
        """The parts at some slots of a packed state of this System."""
        return [self._parts[state[s]] for s in slots]

    def terminated(self, state, pid) -> bool:
        return self._parts[state[self.n_mechs + pid]].pc >= len(self.programs[pid].instrs)

    def all_terminated(self, state) -> bool:
        parts = self._parts
        for ps, program in zip(state[self.n_mechs:], self.programs):
            if parts[ps].pc < len(program.instrs):
                return False
        return True

    def live_processes(self, state):
        return [p for p in range(self.n_procs) if not self.terminated(state, p)]

    def renamed(self, i, words) -> int:
        """The intern index of part ``i`` with each word ``w`` in it renamed to
        ``words[w]``: a process state's stored values, or a mechanism's value
        by its kind's ``renamed``."""
        part = self._parts[i]
        if isinstance(part, ProcState):
            part = part._replace(store=tuple((n, machines.renamed(v, words))
                                             for n, v in part.store))
        else:
            part = part.renamed(words)
        return self._intern(part)

    def state_hash(self, state) -> str:
        """Of a packed state of this System, or of a view: from the view's repr."""
        import hashlib  # loaded on first use: a run that records no violation never hashes
        view = state if isinstance(state, GlobalState) else self.view(state)
        return hashlib.sha256(repr(view).encode()).hexdigest()[:16]

    # -- monitors ---------------------------------------------------------------

    def hits(self, state, watches=None):
        """The hits of the state watches, or of ``watches``, on a packed state."""
        hits = []
        for key_of, verdicts, slots, verdict in self.state_watches if watches is None else watches:
            key = key_of(state)
            try:
                got = verdicts[key]
            except KeyError:
                got = verdicts[key] = verdict(*self.parts(state, slots))
            if got:
                hits += got
        return hits

    def sink(self, state, terminated=None):
        """The hits of a state with no edge: its terminal verdicts, or a
        deadlock. ``terminated`` is ``all_terminated(state)``, if known."""
        if self.all_terminated(state) if terminated is None else terminated:
            return self.hits(state, self._terminal)
        stuck = ", ".join(f"p{q}" for q in self.live_processes(state))
        return [("deadlock", None, f"no action enabled, {stuck} not terminated")]

    # -- enabledness ---------------------------------------------------------

    def edges(self, state):
        """Every edge the state offers: each process's sorted offers, in pid
        order. An edge is ``(action, move, instruction, hits)``."""
        edges = []
        for p, ps in enumerate(state[self.n_mechs:]):
            try:
                view = self._views[p][ps]
                if view is None:  # idle: its heads offer nothing
                    continue
                got = view[1][view[0](state)]
            except KeyError:
                got = self._edges_of(p, ps, state)
            edges += got
        return edges

    def enabled_actions(self, state):
        """All actions the state offers, in the order of its edges."""
        return [edge[0] for edge in self.edges(state)]

    def _edges_of(self, p, ps, state):
        """The edges process ``p`` offers at ``state``, whose ProcState index is ``ps``."""
        view = self._views[p].get(ps, _UNBOUND)
        if view is _UNBOUND:  # its position's getter, its own offers keyed by that, the slots
            read, slots, _ = self._at(p, self._parts[ps].pc)
            view = self._views[p][ps] = None if read is None else (read, {}, slots)
        if view is None:  # idle
            return ()
        read, offers, slots = view
        key = read(state)
        got = offers.get(key)
        if got is None:
            got = offers[key] = self._local_offers(p, ps, state, slots)
        return got

    def _at(self, p, pc):
        """The ``_position`` entry of process ``p`` at ``pc``, computed on first use."""
        got = self._positions[p].get(pc)
        if got is None:
            got = self._positions[p][pc] = self._position(p, pc)
        return got

    def _position(self, p, pc):
        """The table entry of process ``p`` at position ``pc``: a getter of the
        state slots its offers read, the slots, and its receive head on each
        channel (``choose`` allows one at most). The getter is None when its
        heads can offer nothing (it has terminated, or every head is a
        receive, engaged from the sending side). The slots are the mechanisms
        its heads touch and, for a send, every other process that receives on
        its channel; a direct channel holds nothing, so it is no slot."""
        program, slots, receives = self.programs[p], set(), {}
        heads = [program.instrs[i] for i in program.heads[pc]]
        for ins in heads:
            if ins.op == "receive":
                receives[ins.mech_id] = ins
            elif ins.op == "send":
                slots.update(self.n_mechs + q for q, other in enumerate(self.programs) if q != p
                             and any(i.op == "receive" and i.mech == ins.mech for i in other.instrs))
            elif ins.mech is not None:
                slots.add(ins.mech)
        if all(ins.op == "receive" for ins in heads):
            return None, (), receives
        slots = tuple(sorted(slots))
        # a view that reads no slot is keyed by len(state), the same for every state
        return (itemgetter(*slots) if slots else len), slots, receives

    def _local_offers(self, p, ps, state, slots):
        """Uncached edges of process ``p`` at ``state`` (ProcState index ``ps``, view
        ``slots``), sorted if two or more. Each edge is built whole here from the
        parts at the slots: its action, its move, the head that offers it and
        its event hits, each verdict judging the action and the touched
        mechanism's part before the step. A send's value is computed first, so
        it faults even with no receiver ready; a fault raises here, every time."""
        ps, read = self._parts[ps], {s: self._parts[state[s]] for s in slots}
        program, edges = self.programs[p], []
        for ins in map(program.instrs.__getitem__, program.heads[ps.pc]):
            if ins.op == "send":  # no event watch is on a direct channel, so no hits
                value = self._value(ps.store, ins.expr, allow_none=True)
                for q in range(self.n_procs):
                    i = self.n_mechs + q
                    recv = i in read and self._receiver(q, read[i].pc, ins.mech_id)
                    if recv:
                        label = ("send", value, q)
                        edges.append(((p, label, ins.mech_id),
                                      self._move(p, ps, ins, label, i, read[i], recv), ins, ()))
            elif ins.op != "receive":  # a receive is engaged from the sending side
                m = read.get(ins.mech)
                label = self._offer(p, ps, m, ins)
                if label is not None:
                    action, hits = (p, label, ins.mech_id), []
                    move = self._move(p, ps, ins, label, ins.mech, m)
                    for verdict in self._events.get(ins.mech, ()):
                        hits += verdict(action, m)
                    edges.append((action, move, ins, tuple(hits)))
        if len(edges) > 1:
            edges.sort(key=lambda edge: _action_sort_key(edge[0]))
        return tuple(edges)

    def _receiver(self, q, pc, mech_id):
        """The head of process ``q`` at ``pc`` that receives on ``mech_id``, or None."""
        return self._at(q, pc)[2].get(mech_id)

    def _offer(self, p, ps, m, ins):
        """The label ``ins`` offers with its mechanism at ``m``, or None: the
        kind's guard is checked before any field is evaluated, so a value that
        faults raises only when the guard holds."""
        kind = LABEL_KIND[ins.op]
        fields, _, guard = LABELS[kind]
        if guard is not None and not getattr(m, guard)(p):
            return None
        if ins.op == "wait_word" and m.words[ins.index] != ins.word:
            return None
        label = (kind,)
        for name in fields:
            if name == "value":
                label += (self._value(ps.store, ins.expr, allow_none=False),)
            elif name == "word":
                label += (self._word(ps.store, ins.expr),)
            else:  # index, fn
                label += (getattr(ins, name),)
        return label

    def _move(self, p, ps, ins, label, i, m, recv=None):
        """The move of process ``p`` at ProcState ``ps`` when its head ``ins`` takes
        ``label``: its slot ``j`` and the slot ``i`` (``j`` again when only the
        process changes) of the part ``m`` that ``ins`` touches or, for a send,
        of the receiver, whose head is ``recv``, each with its next part's index."""
        j, op = self.n_mechs + p, ins.op
        if op == "send":
            return (j, self._intern(ProcState(ins.succ, ps.store, ps.failed)), i,
                    self._intern(ProcState(recv.succ, store_set(m.store, recv.var, label[1]),
                                           m.failed)))
        # each op sets only what it changes (wait_word: nothing); ``v`` goes to ``ins.var``
        pc, failed, v, m2 = ins.succ, ps.failed, _UNBOUND, m

        if op == "local":
            v = self._value(ps.store, ins.expr, allow_none=True)
        elif op == "assert_local":
            if store_get(ps.store, ins.var) != ins.expected and failed is None:
                failed = f"p{p}.{ins.var}"
        elif op == "read":
            v, m2 = m.read(p)
        elif op == "read_word":
            v = m.words[ins.index]
        elif op == "if_word":
            if m.words[ins.index] != ins.word:
                pc = ins.succ_else
        elif op == "check":
            v = m.status_token(p)
        elif op == "if_status":
            if m.status_token(p) != "full":
                pc = ins.succ_else
        elif op != "wait_word":  # write, write_word, lock, unlock, update: its kind's transition
            m2 = getattr(m, label[0])(p, *label[1:])

        store = ps.store if v is _UNBOUND else store_set(ps.store, ins.var, v)
        pj = self._intern(ProcState(pc, store, failed))
        return (j, pj, j, pj) if m2 is m else (j, pj, i, self._intern(m2))

    # -- expression evaluation ----------------------------------------------

    def _value(self, store, expr, allow_none):
        kind = expr[0]
        if kind == "lit":
            v = expr[1]
        elif kind == "var":
            v = store_get(store, expr[1])
        else:  # ("fn", fn, var)
            base = store_get(store, expr[2])
            if not isinstance(base, tuple):
                raise KernelError(
                    f"variable '{expr[2]}' holds {base!r}, cannot apply {expr[1][0]}")
            v = machines.apply_update(expr[1], base)
        if v is None:
            if not allow_none:
                raise KernelError("a write needs a value, the variable holds the empty indicator")
            return None
        if not isinstance(v, tuple) or len(v) != self.word_width:
            raise KernelError(f"expected a {self.word_width}-word value, got {v!r}")
        return v

    def _word(self, store, expr):
        if expr[0] == "lit":
            return expr[1]
        w = store_get(store, expr[1])
        if not machines.is_word(w):
            raise KernelError(f"variable '{expr[1]}' holds {w!r}, not a word")
        return w

    # -- stepping -------------------------------------------------------------

    def take(self, state, edge) -> tuple:
        """The post state of an edge of ``state`` (from ``edges``): the state
        with the edge's move ``(j, part, i, part)`` spliced in."""
        j, pj, i, pi = edge[1]
        out = list(state)
        out[j], out[i] = pj, pi
        return tuple(out)

    def apply(self, state, action) -> tuple:
        """Take the edge of ``action`` among its process's offers at ``state``,
        or raise ``ChoiceNotEnabled`` if that process offers no such action."""
        p = action[0]
        if p in range(self.n_procs):
            for edge in self._edges_of(p, state[self.n_mechs + p], state):
                if edge[0] == action:
                    return self.take(state, edge)
        raise ChoiceNotEnabled(action)
