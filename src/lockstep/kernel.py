"""Deterministic stepping engine.

A System is a compiled scenario: the initial snapshot, one instruction
graph per process, and the guard logic that turns a global state into the
set of enabled actions. States are immutable and stepping is a pure
function, so any recorded schedule replays to the same state, and two
states that compare equal behave identically from then on.

A System's states are packed: tuples of intern indices that only that
System can read. ``System.view`` decodes one into a ``GlobalState`` of the
parts themselves, which is what event and terminal monitors and callers of
other modules see; ``System.parts`` decodes only the slots a state monitor
reads.

An action is the tuple ``(process, label, mechanism id)``. Rendezvous on a
direct channel appears as a single action carrying both parties: the label
``("send", value, receiver)`` advances sender and receiver in one step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import itemgetter

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

@dataclass(frozen=True, slots=True)
class ProcState:
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
    out.sort(key=lambda item: item[0])
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
    distinct ``ProcState`` and mechanism snapshot it has produced, and one
    view table per process, keyed by its ProcState index. A view's entry
    holds a getter of the state slots its offers read (the mechanisms its
    head instructions touch and, for a send, every other process that
    receives on its channel) and its offers keyed by what the getter
    returns, parts as indices; the entry is None for an idle ProcState, whose
    heads can offer nothing. An offer is an edge ``[action, move,
    instruction]``: the head instruction that offers the action, and a move
    that ``take`` computes from that instruction when the edge is first taken
    and that then serves every state with that offer key, since the key holds
    every slot the step reads. So in ``edges`` a warm process costs two
    subscripts and one getter call, an idle one a subscript, and a miss fills
    the tables through ``_edges_of``; ``take`` costs a splice.
    Each table grows with the distinct local views reached, not with the
    global states. A state is its mechanisms' indices, then its processes'.
    A step or offer that raises is not stored, so a fault raises every time.
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
        self._views = tuple({} for _ in self.programs)  # per process: ProcState index -> _view entry
        self._mech_init = tuple(self._intern(machines.KINDS[m["kind"]][0](m))
                                for m in scenario.mechanisms)

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

    def state_hash(self, state) -> str:
        """Of a packed state of this System, or of a view: from the view's repr."""
        view = state if isinstance(state, GlobalState) else self.view(state)
        return hashlib.sha256(repr(view).encode()).hexdigest()[:16]

    # -- enabledness ---------------------------------------------------------

    def edges(self, state):
        """Every edge the state offers: each process's sorted offers, in pid order.
        An edge is ``[action, move, instruction]``; ``take`` fills its move."""
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
        if view is _UNBOUND:
            view = self._views[p][ps] = self._view(p, ps)
        if view is None:  # idle
            return ()
        read, offers, slots = view
        key = read(state)
        got = offers.get(key)
        if got is None:
            got = offers[key] = self._local_offers(p, ps, state, slots)
        return got

    def _view(self, p, ps):
        """The table entry of process ``p`` at ProcState index ``ps``: a getter
        of the state slots its offers read, its offers keyed by what the getter
        returns, and the slots themselves; or None when its heads can offer
        nothing (it has terminated, or its every head is a receive, which is
        engaged from the sending side). The slots are the mechanisms its
        heads touch and, for a send, every other process that receives on its
        channel; a send's or receive's direct channel holds nothing, so it is no slot."""
        program, slots = self.programs[p], set()
        heads = [program.instrs[i] for i in program.heads[self._parts[ps].pc]]
        if all(ins.op == "receive" for ins in heads):
            return None
        for ins in heads:
            if ins.op == "send":
                slots.update(self.n_mechs + q for q, other in enumerate(self.programs) if q != p
                             and any(i.op == "receive" and i.mech == ins.mech for i in other.instrs))
            elif ins.mech is not None and ins.op != "receive":
                slots.add(ins.mech)
        slots = tuple(sorted(slots))
        # a view that reads no slot is keyed by len(state), the same for every state
        return (itemgetter(*slots) if slots else len), {}, slots

    def _local_offers(self, p, ps, state, slots):
        """Uncached edges of process ``p`` at ``state`` (ProcState index ``ps``, view
        ``slots``), sorted, each with no move and the head that offers it. A send's
        value is computed first, so a value that faults raises even with no receiver ready."""
        ps, read = self._parts[ps], {s: self._parts[state[s]] for s in slots}
        program, edges = self.programs[p], []
        for ins in map(program.instrs.__getitem__, program.heads[ps.pc]):
            if ins.op == "send":
                value = self._value(ps.store, ins.expr, allow_none=True)
                edges += [[(p, ("send", value, q), ins.mech_id), None, ins]
                          for q in range(self.n_procs) if self.n_mechs + q in read
                          and self._receiver(q, read[self.n_mechs + q].pc, ins.mech_id)]
            elif ins.op != "receive":  # a receive is engaged from the sending side
                label = self._offer(p, ps, read.get(ins.mech), ins)
                if label is not None:
                    edges.append([(p, label, ins.mech_id), None, ins])
        edges.sort(key=lambda edge: _action_sort_key(edge[0]))
        return tuple(edges)

    def _receiver(self, q, pc, mech_id):
        """The head of process ``q`` at ``pc`` that receives on ``mech_id``, or None."""
        program = self.programs[q]
        return next((ins for ins in map(program.instrs.__getitem__, program.heads[pc])
                     if ins.op == "receive" and ins.mech_id == mech_id), None)

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
        with the edge's move ``(j, part, i, part)`` spliced in, filled by
        ``_move`` when the edge is first taken. A step that raises stores no move."""
        move = edge[1]
        if move is None:
            move = edge[1] = self._move(state, edge)
        j, pj, i, pi = move
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

    def _move(self, state, edge):
        """The move of an edge of ``state``: the acting process's slot ``j`` and
        the slot ``i`` of the mechanism its instruction touches or of a send's
        receiver (``j`` again when only the process changes), each with the
        intern index of its next part. It is exact for every state that shares
        the edge's offer key, since that key holds every slot the step reads."""
        (p, label, mech_id), _, ins = edge
        j = self.n_mechs + p
        ps, op = self._parts[state[j]], ins.op
        if op == "send":
            i = self.n_mechs + label[2]
            m = self._parts[state[i]]
            recv = self._receiver(label[2], m.pc, mech_id)
            return (j, self._intern(ProcState(ins.succ, ps.store, ps.failed)), i,
                    self._intern(ProcState(recv.succ, store_set(m.store, recv.var, label[1]),
                                           m.failed)))
        i = ins.mech
        m = None if i is None else self._parts[state[i]]
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
