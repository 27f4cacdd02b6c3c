"""Independent oracles the tests check the explorer against.

Everything here deliberately reimplements the counting and reachability
logic with different algorithms (plain BFS, recursive path DP, brute-force
sequence merging) so agreement with the explorer means something.
"""

import sys as _sys

from lockstep.explorer import Violation, _Checks, _classes
from lockstep.kernel import Trace
from lockstep.monitors import compile_monitors


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


def reachable_edges(sys):
    """All (state, action, state) transitions over the reachable graph."""
    edges = []
    for s in reachable(sys):
        for a in sys.enabled_actions(s):
            edges.append((s, a, sys.apply(s, a)))
    return edges


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


def first_witnesses(sys):
    """The first witness of each violation class, in the order explore meets them.

    A recursive depth-first search over ``enabled_actions`` in order, with a
    visited set. The monitors run where explore runs them: on the initial
    state; per edge, on the event and then, if the state it reaches is new,
    on that state; and on a state with no enabled action. Every hit builds
    its witness at once, and the first of each class is kept. Returns a list
    of (kind, name, detail, trace, state hash).
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
        return [h for m in monitors for h in m.on_state(sys, state)]

    def sink_hits(state):
        if sys.all_terminated(state):
            return [h for m in monitors for h in m.on_terminal(sys, state)]
        stuck = ", ".join(f"p{q}" for q in sys.live_processes(state))
        return [("deadlock", None, f"no action enabled, {stuck} not terminated")]

    def visit(state, path):
        actions = sys.enabled_actions(state)
        if not actions:
            keep(sink_hits(state), path, state)
        for a in actions:
            post = sys.apply(state, a)
            step = path + (a,)
            keep([h for m in monitors for h in m.on_event(sys, state, a, post)], step, post)
            if post not in seen:
                seen.add(post)
                keep(state_hits(post), step, post)
                visit(post, step)

    init = sys.initial_state()
    seen.add(init)
    keep(state_hits(init), (), init)
    visit(init, ())
    return [(v.kind, v.name, v.detail, v.trace, v.state_hash) for v in kept.values()]


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


def reference_replay_with_checks(sys, events):
    """The replay_with_checks that ran on System.replay: it records the last
    edge from a callback, then runs the event, state and sink checks after
    the replay ends. Returns (final state, classes) and raises the kernel's
    NotEnabledAtStep on a stale step, as replay_with_checks does."""
    checks = _Checks(sys)
    prev = sys.initial_state()
    last = None  # (state before, event, state after) of the final step

    def step(k, ev, post):
        nonlocal prev, last
        last = (prev, ev, post)
        prev = post

    state = sys.replay(events, on_step=step)
    classes = set(_classes(checks.event(*last))) if last else set()
    classes.update(_classes(checks.state(state)))
    if not sys.enabled_actions(state):
        classes.update(_classes(checks.sink(state)))
    return state, classes
