"""Independent oracles the tests check the explorer against.

Everything here deliberately reimplements the counting and reachability
logic with different algorithms (plain BFS, recursive path DP, brute-force
sequence merging) so agreement with the explorer means something.
"""

import dataclasses
import pathlib
import sys as _sys
import types
from collections import Counter
from itertools import permutations, product

from lockstep import scenarios
from lockstep.explorer import Violation, _classes
from lockstep.kernel import NotEnabledAtStep, ProcState, System, Trace, _action_sort_key
from lockstep.machines import RawCell, SharedRegister, apply_update
from lockstep.monitors import compile_monitors
from lockstep.programs import LABEL_KIND


def bench_families():
    """The benchmark's ``bench/families.py``, loaded without writing under bench/."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "families.py"
    module = types.ModuleType("families")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def event_monitors(writes, reads, writes2, reads2):
    """Two writer-reader pairs on two message cells, each under a
    ``lost_unread`` monitor: p0 writes 1, 2, ... to ``mc`` while p1 reads it,
    and p2 writes to ``mc2`` while p3 reads it, each read into its own
    variable. ``event_monitors(5, 4, 4, 4)`` is the document
    ``tests/data/scaled/event_monitors.json``."""
    def pair(writer, mech, n_writes, n_reads):
        return [scenarios.process(writer, *(scenarios.write(mech, [k + 1])
                                            for k in range(n_writes))),
                scenarios.process(writer + 1, *(scenarios.read(mech, f"r{k}")
                                                for k in range(n_reads)))]

    return scenarios.Scenario.from_parts(
        "event-monitors", 1, [scenarios.message_cell("mc"), scenarios.message_cell("mc2")],
        pair(0, "mc", writes, reads) + pair(2, "mc2", writes2, reads2),
        [scenarios.lost_unread("mc"), scenarios.lost_unread("mc2")])


class CountingSystem(System):
    """A System that counts every ``edges`` call per state and every
    ``take`` per (state, action). ``enabled_actions`` and ``apply`` go
    through these two, so they are counted too. It also counts the cold
    calls that fill its tables: each position entry computed, per (p, pc);
    each process's offers computed, per offer key (p, ProcState index, *the
    parts at the view's slots); and each move computed, per (offer key,
    action), since ``_local_offers`` computes every move it offers."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.offered = Counter()
        self.applied = Counter()
        self.positions = Counter()
        self.local_offers = Counter()
        self.moves = Counter()

    def edges(self, state):
        self.offered[state] += 1
        return super().edges(state)

    def take(self, state, edge):
        self.applied[(state, edge[0])] += 1
        return super().take(state, edge)

    def _position(self, p, pc):
        self.positions[(p, pc)] += 1
        return super()._position(p, pc)

    def _local_offers(self, p, ps, state, slots):
        self.offer_key = (p, ps, *map(state.__getitem__, slots))
        self.local_offers[self.offer_key] += 1
        return super()._local_offers(p, ps, state, slots)

    def _move(self, p, ps, ins, label, i, m, recv=None):
        self.moves[(self.offer_key, (p, label, ins.mech_id))] += 1
        return super()._move(p, ps, ins, label, i, m, recv)


def reference_view(sys, p, ps):
    """The view entry of process ``p`` at ProcState index ``ps`` as the kernel
    computed it per process state, before it kept one entry per program
    position: (its slots, idle) with the slots sorted, or ((), True) when its
    heads can offer nothing."""
    program, slots = sys.programs[p], set()
    heads = [program.instrs[i] for i in program.heads[sys._parts[ps].pc]]
    if all(ins.op == "receive" for ins in heads):
        return (), True
    for ins in heads:
        if ins.op == "send":
            slots.update(sys.n_mechs + q for q, other in enumerate(sys.programs) if q != p
                         and any(i.op == "receive" and i.mech == ins.mech for i in other.instrs))
        elif ins.mech is not None and ins.op != "receive":
            slots.add(ins.mech)
    return tuple(sorted(slots)), False


def reference_receiver(sys, q, pc, mech_id):
    """The head of process ``q`` at ``pc`` that receives on ``mech_id``, or
    None, by a scan of its heads on every call."""
    program = sys.programs[q]
    return next((ins for ins in map(program.instrs.__getitem__, program.heads[pc])
                 if ins.op == "receive" and ins.mech_id == mech_id), None)


def reference_edges(sys, state):
    """Every (action, instruction) a state offers, each process's offers
    computed afresh from ``reference_view`` and ``reference_receiver`` and
    always sorted by ``_action_sort_key``, in pid order."""
    out = []
    for p, ps in enumerate(state[sys.n_mechs:]):
        slots, idle = reference_view(sys, p, ps)
        if idle:
            continue
        local, read = sys._parts[ps], {i: sys._parts[state[i]] for i in slots}
        program, offers = sys.programs[p], []
        for ins in map(program.instrs.__getitem__, program.heads[local.pc]):
            if ins.op == "send":
                value = sys._value(local.store, ins.expr, allow_none=True)
                offers += [((p, ("send", value, q), ins.mech_id), ins)
                           for q in range(sys.n_procs) if sys.n_mechs + q in read
                           and reference_receiver(sys, q, read[sys.n_mechs + q].pc, ins.mech_id)]
            elif ins.op != "receive":
                label = sys._offer(p, local, read.get(ins.mech), ins)
                if label is not None:
                    offers.append(((p, label, ins.mech_id), ins))
        out += sorted(offers, key=lambda offer: _action_sort_key(offer[0]))
    return out


def reachable(sys):
    """All states reachable from the initial one, by breadth-first search."""
    init = sys.initial_state()
    seen = {init}
    frontier = [init]
    while frontier:
        nxt = []
        for s in frontier:
            for a in sys.enabled_actions(s):
                t = sys.apply(s, a)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def sorted_groups_form(sys, groups, state):
    """A canonical form of a packed state under swaps of the members of each
    group of pids, built apart from ``explorer._Orbits.key``: the ungrouped
    slots in order, then each group's slots sorted. Two states share it
    exactly when one is the other with some members of each group swapped."""
    slots = [[sys.n_mechs + p for p in g] for g in groups]
    grouped = {i for g in slots for i in g}
    rest = tuple(v for i, v in enumerate(state) if i not in grouped)
    return rest + tuple(v for g in slots for v in sorted(state[i] for i in g))


def schedules_to(sys):
    """One shortest schedule to each reachable state, by breadth-first search."""
    init = sys.initial_state()
    paths = {init: ()}
    frontier = [init]
    while frontier:
        nxt = []
        for s in frontier:
            for a in sys.enabled_actions(s):
                t = sys.apply(s, a)
                if t not in paths:
                    paths[t] = paths[s] + (a,)
                    nxt.append(t)
        frontier = nxt
    return paths


def offered_sends(sys, state):
    """The rendezvous a state offers, from the programs' heads and the
    processes' stores alone: each send head of a process ``p`` on channel
    ``c``, with its value, paired with each other process ``q`` whose heads
    include a receive on ``c``."""
    procs = sys.view(state).procs
    heads = [[sys.programs[p].instrs[i] for i in sys.programs[p].heads[ps.pc]]
             for p, ps in enumerate(procs)]
    sends = set()
    for p, ps in enumerate(procs):
        store = dict(ps.store)
        for ins in heads[p]:
            if ins.op != "send":
                continue
            kind, arg = ins.expr[0], ins.expr[-1]
            value = arg if kind == "lit" else store[arg] if kind == "var" else \
                apply_update(ins.expr[1], store[arg])
            sends.update((p, ("send", value, q), ins.mech_id) for q in range(len(procs))
                         if q != p and any(r.op == "receive" and r.mech == ins.mech
                                           for r in heads[q]))
    return sends


def head_for(sys, p, pc, label, mech_id):
    """The head of process ``p`` at ``pc`` that offers ``label`` on ``mech_id``
    (for ``("receive",)``, that receives on it), or None, found back from the
    label alone: by label kind, mechanism and, for word labels, word index,
    which the compiler keeps distinct among ``choose`` alternatives."""
    program, kind = sys.programs[p], label[0]
    found = [ins for ins in map(program.instrs.__getitem__, program.heads[pc])
             if LABEL_KIND[ins.op] == kind and ins.mech_id == mech_id
             and (kind not in ("read_word", "write_word") or label[1] == ins.index)]
    assert len(found) <= 1, found
    return found[0] if found else None


def offers_by_process(sys, state):
    """Every process's offers at ``state``, idle processes included, in pid
    order, each computed afresh by ``System._local_offers`` with every slot
    but the process's own in view, so no table and no idleness test is read.
    Each offer is an (action, instruction) pair."""
    n = sys.n_mechs
    return [[(action, ins) for action, _, ins, _ in
             sys._local_offers(p, state[n + p], state,
                               tuple(i for i in range(len(state)) if i != n + p))]
            for p in range(sys.n_procs)]


def reference_offer(sys, p, ps, m, ins):
    """The label head ``ins`` of process ``p`` (ProcState ``ps``) offers with
    its mechanism at ``m``, or None, by the per-op switch ``System._offer``
    was before it read each label kind's guard and fields from
    ``kernel.LABELS``. A send or receive head is not asked."""
    op = ins.op
    if op in ("local", "assert_local"):
        return ("local",)
    if op == "write":
        if not m.can_write(p):
            return None
        return ("write", sys._value(ps.store, ins.expr, allow_none=False))
    if op == "read":
        return ("read",) if m.can_read(p) else None
    if op in ("read_word", "if_word"):
        return ("read_word", ins.index) if m.can_access(p) else None
    if op == "wait_word":
        if m.can_access(p) and m.words[ins.index] == ins.word:
            return ("read_word", ins.index)
        return None
    if op == "write_word":
        if not m.can_access(p):
            return None
        return ("write_word", ins.index, sys._word(ps.store, ins.expr))
    if op in ("check", "if_status"):
        return ("check",)
    if op == "lock":
        return ("lock",) if m.can_lock(p) else None
    if op == "unlock":
        return ("unlock",) if m.can_unlock(p) else None
    if op == "update":
        return ("update", ins.fn) if m.can_access(p) else None
    raise AssertionError(f"no offer for op {op!r}")


def reference_sort_key(action):
    """The order of one process's actions as the kernel first defined it:
    by pid, then label field by field with each field ranked by type (None,
    int, str, then any tuple), then mechanism id."""
    pid, label, mech = action
    ranked = []
    for x in label:
        if x is None:
            ranked.append((0, 0))
        elif isinstance(x, int):
            ranked.append((1, x))
        elif isinstance(x, str):
            ranked.append((2, x))
        else:
            ranked.append((3, tuple(x)))
    return (pid, tuple(ranked), mech or "")


def swapped(state, a, b):
    """``state`` with slots ``a`` and ``b`` swapped, by a list: the lone-pair
    swap ``explorer._Orbits`` used before it took one ``itemgetter``."""
    out = list(state)
    out[a] = state[b]
    out[b] = state[a]
    return tuple(out)


def arrangements(counts):
    """The distinct orderings of a multiset, given as a value -> count Counter,
    in sorted order, by recursion on the first value."""
    if not any(counts.values()):
        yield ()
        return
    for v in sorted(counts):
        if counts[v]:
            counts[v] -= 1
            for rest in arrangements(counts):
                yield (v, *rest)
            counts[v] += 1


def reference_images(slots, state):
    """The orbit of ``state`` under rearranging each group of ``slots``, listed
    with no knowledge of ``_Orbits``: ``state`` first, then every other image
    with the groups' orderings taken as a product, the last group fastest."""
    out = [state]
    for choice in product(*(list(arrangements(Counter(state[i] for i in g))) for g in slots)):
        image = list(state)
        for g, values in zip(slots, choice):
            for i, v in zip(g, values):
                image[i] = v
        if tuple(image) != state:
            out.append(tuple(image))
    return out


# the value fields a data renaming renames, by mechanism class; an owner is a pid
_RENAMED_FIELDS = {RawCell: "words", SharedRegister: "content"}


def reference_orbit(sys, groups, state):
    """The orbit of a packed state under ``explore``'s groups, built apart from
    ``explorer._Orbits`` and with no intern table: every permutation of the
    members of each group, pid group or data group, applied to the decoded
    ``GlobalState`` parts directly. A data group's permutation also renames
    each member's data, word by word, to the data of the member it moves to,
    in every process store and in each raw cell's words and shared
    register's content. Returns the distinct images as a set, each packed
    again by the System's intern indices to compare with its states."""
    view = sys.view(state)
    members = [[m if isinstance(m, tuple) else (m, ()) for m in g] for g in groups]
    out = set()
    for choice in product(*(permutations(range(len(g))) for g in members)):
        procs, words = list(view.procs), {}
        for g, to in zip(members, choice):
            for (p, data), i in zip(g, to):
                q, their = g[i]
                procs[q] = view.procs[p]
                words.update(zip(data, their))

        def rename(v):
            if isinstance(v, int):
                return words.get(v, v)
            return tuple(words.get(w, w) for w in v) if isinstance(v, tuple) else v

        procs = [ProcState(ps.pc, tuple((n, rename(v)) for n, v in ps.store), ps.failed)
                 for ps in procs]
        mechs = [dataclasses.replace(m, **{f: rename(getattr(m, f))})
                 if (f := _RENAMED_FIELDS.get(type(m))) else m for m in view.mechs]
        out.add(tuple(sys._index[part] for part in (*mechs, *procs)))
    return out


def reachable_edges(sys):
    """All (state, action, state) transitions over the reachable graph."""
    edges = []
    for s in reachable(sys):
        for a in sys.enabled_actions(s):
            edges.append((s, a, sys.apply(s, a)))
    return edges


def walkable_classes(sys, max_depth):
    """(every class a walk of at most ``max_depth`` steps could collect, how
    many states lie within ``max_depth`` steps).

    Each reachable state's distance from the initial one is found by
    relaxing every edge until no distance shrinks, not breadth-first. A walk
    stands on the states within ``max_depth`` steps, where it collects state
    and sink classes, and takes the edges of those nearer than that. Event
    verdicts are judged on views by ``view_hits``."""
    monitors = compile_monitors(sys)
    init, states = sys.initial_state(), reachable(sys)
    succ = {s: [(a, sys.apply(s, a)) for a in sys.enabled_actions(s)] for s in states}
    dist = dict.fromkeys(states, len(states))
    dist[init] = 0
    changed = True
    while changed:
        changed = False
        for s, out in succ.items():
            for _, t in out:
                if dist[s] + 1 < dist[t]:
                    dist[t], changed = dist[s] + 1, True
    near = [s for s in states if dist[s] <= max_depth]
    classes = set()
    for s in near:
        classes |= _classes(sys.hits(s))
        if not succ[s]:
            classes |= _classes(sys.sink(s))
        if dist[s] < max_depth:
            for a, _ in succ[s]:
                classes |= _classes(view_hits(sys, monitors, "event", sys.view(s), a))
    return classes, len(near)


def maximal_schedule_count(sys):
    """Count schedules ending in a state with no enabled action.

    Recursive DP over the (acyclic) state graph; the explorer counts the
    same thing iteratively while it searches.
    """
    _sys.setrecursionlimit(10_000)
    memo = {}

    def go(s):
        if s in memo:
            return memo[s]
        acts = sys.enabled_actions(s)
        n = 1 if not acts else sum(go(sys.apply(s, a)) for a in acts)
        memo[s] = n
        return n

    return go(sys.initial_state())


def view_hits(sys, monitors, when, view, action=None):
    """The hits of every ``when`` watch (``"state"``, ``"event"`` or
    ``"terminal"``) of ``monitors`` on a view of a state of ``sys``, in
    monitor order, each verdict run afresh on the parts at its slots. An
    event verdict is given ``action`` first, and ``view`` is the state before
    it; it is judged only when its one slot is that of the action's
    mechanism, found by the mechanism's place among the scenario's."""
    parts, given, only = view.mechs + view.procs, (), None
    if when == "event":
        ids = [m["id"] for m in sys.scenario.mechanisms]
        given, only = (action,), (ids.index(action[2]),) if action[2] in ids else ()
    return [hit for m in monitors
            for w, slots, verdict in m.watches(len(view.mechs), len(view.procs))
            if w == when and only in (None, slots)
            for hit in verdict(*given, *map(parts.__getitem__, slots))]


def first_witnesses(sys):
    """The first witness of each violation class, in the order explore meets them.

    A recursive depth-first search over ``enabled_actions`` in order, with a
    visited set. The monitors run where explore runs them: on the initial
    state; per edge, on the event and then, if the state it reaches is new,
    on that state; and on a state with no enabled action. Each watch is
    judged on a view by ``view_hits``. Every hit builds its witness at once,
    and the first of each class is kept. Returns a list of (kind, name,
    detail, trace, state hash).
    """
    _sys.setrecursionlimit(10_000)
    monitors = compile_monitors(sys)
    kept = {}
    seen = set()

    def keep(hits, path, state):
        for kind, name, detail in hits:
            v = Violation(kind, name, detail, Trace(path), sys.state_hash(state))
            kept.setdefault(v.cls, v)

    def state_hits(state):
        return view_hits(sys, monitors, "state", sys.view(state))

    def sink_hits(state):
        if sys.all_terminated(state):
            return view_hits(sys, monitors, "terminal", sys.view(state))
        stuck = ", ".join(f"p{q}" for q in sys.live_processes(state))
        return [("deadlock", None, f"no action enabled, {stuck} not terminated")]

    def visit(state, path):
        actions = sys.enabled_actions(state)
        if not actions:
            keep(sink_hits(state), path, state)
        for a in actions:
            post = sys.apply(state, a)
            step = path + (a,)
            keep(view_hits(sys, monitors, "event", sys.view(state), a), step, post)
            if post not in seen:
                seen.add(post)
                keep(state_hits(post), step, post)
                visit(post, step)

    init = sys.initial_state()
    seen.add(init)
    keep(state_hits(init), (), init)
    visit(init, ())
    return [(v.kind, v.name, v.detail, v.trace, v.state_hash) for v in kept.values()]


def shortest_lengths(sys):
    """The length of a shortest schedule prefix at whose end each class, and
    each bare kind, is present, as replay_with_checks reads a prefix's end:
    the final edge's event hits, the final state's state hits, and its sink
    hits if it has no enabled action.

    Prefixes are searched by length, one length at a time, over
    ``enabled_actions`` and ``apply``, with every watch judged on views. The
    classes at a prefix's end depend only on its final edge, so of the
    prefixes that end in one state only the first one found is extended:
    any other is no shorter. Returns {class or bare kind: length}.
    """
    monitors = compile_monitors(sys)
    lengths = {}

    def keep(hits, length):
        for kind, name, detail in hits:
            for key in (kind, Violation(kind, name, detail, None, "").cls):
                lengths.setdefault(key, length)

    def at_end(state, length):
        view = sys.view(state)
        keep(view_hits(sys, monitors, "state", view), length)
        if sys.enabled_actions(state):
            return
        if sys.all_terminated(state):
            keep(view_hits(sys, monitors, "terminal", view), length)
        else:
            keep([("deadlock", None, "")], length)

    init = sys.initial_state()
    seen = {init}
    at_end(init, 0)
    prefixes, length = [init], 0
    while prefixes:
        length += 1
        longer = []
        for state in prefixes:
            for a in sys.enabled_actions(state):
                post = sys.apply(state, a)
                keep(view_hits(sys, monitors, "event", sys.view(state), a), length)
                if post not in seen:
                    seen.add(post)
                    at_end(post, length)
                    longer.append(post)
        prefixes = longer
    return lengths


def merges(*seqs):
    """Yield every interleaving of the given sequences.

    Each interleaving is a tuple of (source index, item) pairs, preserving
    the order within every source.
    """
    idx = [0] * len(seqs)
    out = []

    def go():
        done = True
        for k, s in enumerate(seqs):
            if idx[k] < len(s):
                done = False
                out.append((k, s[idx[k]]))
                idx[k] += 1
                yield from go()
                idx[k] -= 1
                out.pop()
        if done:
            yield tuple(out)

    yield from go()


def brute_torn_reads(writers, reader_indices, width, initial=0):
    """Word-level brute force: the set of value tuples a reader can assemble.

    ``writers`` is a list of per-process [(index, word), ...] write
    sequences; the reader reads ``reader_indices`` in order, one word per
    step, racing against all of them.
    """
    out = set()
    reads = [("r", i) for i in reader_indices]
    writes = [[("w", i, w) for i, w in ws] for ws in writers]
    for schedule in merges(*writes, reads):
        words = [initial] * width
        got = []
        for _, step in schedule:
            if step[0] == "w":
                words[step[1]] = step[2]
            else:
                got.append(words[step[1]])
        out.add(tuple(got))
    return out


def brute_lost_updates(per_process, increments, domain=8):
    """Brute force the read-increment-write race on one shared register.

    Returns the set of terminal register values over all interleavings of
    ``per_process`` sequences of ``increments`` divisible +1 steps each.
    """
    seqs = [["r", "g", "w"] * increments] * per_process
    out = set()
    for schedule in merges(*seqs):
        reg = 0
        local = [0] * per_process
        for who, step in schedule:
            if step == "r":
                local[who] = reg
            elif step == "g":
                local[who] = (local[who] + 1) % domain
            else:
                reg = local[who]
        out.add(reg)
    return out


def brute_cell_reader_sequences(values, reads):
    """All (r1..rn) a reader can observe from an overwriting one-slot cell.

    Writes publish ``values`` in order; each read observes the most recent
    write, or None before the first. This is the reference model both the
    message-cell scenario and the two-rendezvous relay must match.
    """
    out = set()
    writes = [("w", v) for v in values]
    rd = [("r",)] * reads
    for schedule in merges(writes, rd):
        last = None
        got = []
        for _, step in schedule:
            if step[0] == "w":
                last = (step[1],)
            else:
                got.append(last)
        out.add(tuple(got))
    return out


def fold(sys, events):
    """The packed state a schedule reaches, by ``apply`` alone: no enabledness
    check and no monitor."""
    state = sys.initial_state()
    for ev in events:
        state = sys.apply(state, ev)
    return state


def reference_replay_with_checks(sys, events):
    """replay_with_checks by its own loop: it asks the kernel for the enabled
    actions and applies each step, remembering the last edge, then runs the
    event, state and sink checks after the replay ends, the event verdicts
    judged on a view by ``view_hits``. Returns (the final state's view,
    classes) and raises the kernel's NotEnabledAtStep on a stale step, as
    replay_with_checks does."""
    state = sys.initial_state()
    last = None  # (state before, event) of the final step
    for k, ev in enumerate(events):
        enabled = sys.enabled_actions(state)
        if ev not in enabled:
            raise NotEnabledAtStep(k, ev, enabled)
        last, state = (state, ev), sys.apply(state, ev)
    classes = set()
    if last:
        classes |= _classes(view_hits(sys, compile_monitors(sys), "event",
                                      sys.view(last[0]), last[1]))
    classes.update(_classes(sys.hits(state)))
    if not sys.enabled_actions(state):
        classes.update(_classes(sys.sink(state)))
    return sys.view(state), classes
