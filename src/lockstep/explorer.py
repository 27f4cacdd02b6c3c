"""Schedule exploration.

explore() walks every reachable interleaving of a scenario once, sharing
states that coincide, and reports the first witness of each violation
class together with a replayable schedule. Programs cannot revisit a
position (loops are unrolled), so the state graph is acyclic and the
number of maximal schedules can be counted exactly by memoized path
counting. find_shortest() answers the same question breadth-first and
therefore returns a minimal counterexample. random_walks() is the
cheap cross-check: it must never find a class the exhaustive pass missed.
The walks of one call share a lazily built graph of the states they stood
on, so a revisited edge is neither applied nor checked again. That is
sound because stepping and the monitors are pure functions of the states
they are shown; the graph is never shared with explore(), so a fault in
its memo cannot hide from the walks. Every strategy and the replay step
only through ``_Checks``, the one transition layer: no other code asks the
kernel for enabled actions, applies them or runs a monitor. Strategies key
their memos on packed states, and only views of them leave a call.

Every strategy reads ``max_states`` one way: the initial state is always
stored, and a new state is stored only while fewer than ``max_states`` are
held. A state found when the store is full is still checked, but it is not
stored, and ``explore`` and ``find_shortest`` do not expand it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .kernel import NotEnabledAtStep, System, Trace, store_get, store_has
from .monitors import Monitor, compile_monitors

_IN_PROGRESS = object()
_UNSEEN = object()


@dataclass(frozen=True)
class Bounds:
    max_depth: int = 200
    max_states: int = 1_000_000


def _class_of(kind, name, detail):
    """The class string of a monitor hit ``(kind, name, detail)``."""
    if kind == "monitor_assert":
        return f"monitor_assert:{name}"
    if kind == "lost_message" and detail in ("own-outgoing", "incoming"):
        return f"lost_message:{detail}"
    return kind


@dataclass(frozen=True)
class Violation:
    kind: str
    name: str | None
    detail: str | None
    trace: Trace
    state_hash: str

    @property
    def cls(self) -> str:
        """Stable class string used for dedup, expectations, and matching."""
        return _class_of(self.kind, self.name, self.detail)

    def to_doc(self):
        return {"class": self.cls, "kind": self.kind, "name": self.name,
                "detail": self.detail, "state_hash": self.state_hash,
                "trace": self.trace.to_doc()}

    @classmethod
    def from_doc(cls, doc):
        return cls(kind=doc["kind"], name=doc.get("name"), detail=doc.get("detail"),
                   trace=Trace.from_doc(doc["trace"], "trace.events"),
                   state_hash=doc["state_hash"])


@dataclass(frozen=True)
class ExplorationReport:
    scenario: str
    states_visited: int
    distinct_terminal_states: int
    schedules_complete: int | None
    violations: tuple
    bounds_hit: bool
    terminal_states: tuple = ()

    @property
    def violation_classes(self) -> frozenset:
        return frozenset(v.cls for v in self.violations)

    def to_doc(self):
        return {"scenario": self.scenario,
                "states_visited": self.states_visited,
                "distinct_terminal_states": self.distinct_terminal_states,
                "schedules_complete": self.schedules_complete,
                "bounds_hit": self.bounds_hit,
                "violations": [v.to_doc() for v in self.violations]}


@dataclass(frozen=True)
class WalkSummary:
    walks: int
    classes: frozenset


def as_system(scenario_or_system) -> System:
    if isinstance(scenario_or_system, System):
        return scenario_or_system
    return System(scenario_or_system)


def resolve_bounds(sys: System, override) -> Bounds:
    if isinstance(override, Bounds):
        return override
    if isinstance(override, dict):
        return Bounds(**override)
    doc = sys.scenario.bounds
    if doc:
        return Bounds(max_depth=doc.get("max_depth", Bounds.max_depth),
                      max_states=doc.get("max_states", Bounds.max_states))
    return Bounds()


_NO_CLASSES = frozenset()


def _classes(hits):
    """The class strings of a list of monitor hits."""
    if not hits:  # most states and edges; one shared empty set keeps walk graphs small
        return _NO_CLASSES
    return frozenset(_class_of(*hit) for hit in hits)


class _Checks:
    """The transition layer: stepping and monitor fan-out for every strategy.

    A rule for all steps goes here once, such as turning a ``KernelError``
    into a violation or counting transitions and time per layer. States come
    in packed; a monitor is shown their views, and each hook runs only on
    the monitors that override it, so a state or edge that no monitor
    watches builds no view.
    """

    def __init__(self, sys):
        self.sys = sys
        monitors = compile_monitors(sys)
        self.on_state, self.on_event, self.on_terminal = (
            tuple(getattr(m, hook) for m in monitors
                  if getattr(type(m), hook) is not getattr(Monitor, hook))
            for hook in ("on_state", "on_event", "on_terminal"))

    def edges(self, state):
        """(enabled actions, sink hits); the hits are () unless there are no actions."""
        actions = self.sys.enabled_actions(state)
        return actions, (() if actions else self.sink(state))

    def step(self, state, ev):
        """(post state, hits on the edge) for an action known to be enabled."""
        post = self.sys.apply(state, ev)
        return post, (self.event(state, ev, post) if self.on_event else ())

    def state(self, state):
        view = self.on_state and self.sys.view(state)
        return [hit for hook in self.on_state for hit in hook(self.sys, view)]

    def event(self, prev, ev, post):
        prev, post = self.sys.view(prev), self.sys.view(post)
        return [hit for hook in self.on_event for hit in hook(self.sys, prev, ev, post)]

    def sink(self, state):
        """Hits for a state with no enabled action: deadlock or terminal checks."""
        if self.sys.all_terminated(state):
            view = self.on_terminal and self.sys.view(state)
            return [hit for hook in self.on_terminal for hit in hook(self.sys, view)]
        stuck = ", ".join(f"p{q}" for q in self.sys.live_processes(state))
        return [("deadlock", None, f"no action enabled, {stuck} not terminated")]


def explore(scenario, bounds=None) -> ExplorationReport:
    """Visit every reachable state within bounds; report one witness per class.

    A memo entry holds the number of maximal schedules below its state, or
    None when a bound cut some of them off. An entry whose count is unknown
    also keeps the depth its state was expanded from, and a shallower path
    that reaches the state expands it again (as SPIN's ``-DREACH`` does).
    So every violation within the depth bound is found. When a bound trips,
    the report says ``bounds_hit`` and gives no schedule count.
    """
    sys = as_system(scenario)
    b = resolve_bounds(sys, bounds)
    checks = _Checks(sys)

    memo = {}            # state -> maximal-schedule count below it (None = cut by a bound)
    cut_at = {}          # state whose count is None -> depth it was expanded from
    violations = {}      # class -> first Violation, in discovery order
    terminals = []
    terminal_seen = set()
    bounds_hit = False

    init = sys.initial_state()
    memo[init] = _IN_PROGRESS
    # frame: [state, enabled, next edge index, schedule count accumulator, inbound event]
    stack = [[init, None, 0, 0, None]]

    def close(count):
        frame = stack.pop()
        memo[frame[0]] = count
        if count is None:
            cut_at[frame[0]] = len(stack)
        if stack:
            parent = stack[-1]
            parent[3] = None if (parent[3] is None or count is None) else parent[3] + count

    def trail(extra=None):
        events = tuple(f[4] for f in stack[1:])
        return events if extra is None else events + (extra,)

    def record(hits, ev, state):
        """Keep the first witness of each class, reached by the stack's trail
        and then ``ev`` (if not None). A hit of a class already kept costs one
        lookup: no trail, no state hash, no Violation."""
        for kind, name, detail in hits:
            cls = _class_of(kind, name, detail)
            if cls not in violations:
                violations[cls] = Violation(kind, name, detail, Trace(trail(ev)),
                                            sys.state_hash(state))

    record(checks.state(init), None, init)

    while stack:
        frame = stack[-1]
        state = frame[0]
        if frame[1] is None:
            frame[1], hits = checks.edges(state)
            if not frame[1]:
                if sys.all_terminated(state) and state not in terminal_seen:
                    terminal_seen.add(state)
                    terminals.append(state)
                record(hits, None, state)
                close(1)
                continue
            if len(stack) - 1 >= b.max_depth:
                bounds_hit = True
                close(None)
                continue
        edges = frame[1]
        if frame[2] >= len(edges):
            close(frame[3])
            continue
        ev = edges[frame[2]]
        frame[2] += 1
        post, hits = checks.step(state, ev)
        if hits:
            record(hits, ev, post)
        count = memo.get(post, _UNSEEN)
        if count is _UNSEEN:
            state_hits = checks.state(post)
            if state_hits:
                record(state_hits, ev, post)
            if len(memo) < b.max_states:
                memo[post] = _IN_PROGRESS
                stack.append([post, None, 0, 0, ev])
            else:
                bounds_hit = True
                frame[3] = None
        elif count is None and cut_at[post] > len(stack):  # reached by a shorter path
            del cut_at[post]
            memo[post] = _IN_PROGRESS
            stack.append([post, None, 0, 0, ev])
        else:
            if count is _IN_PROGRESS:  # pragma: no cover - programs only move forward
                raise RuntimeError("cycle in the schedule graph")
            frame[3] = None if (frame[3] is None or count is None) else frame[3] + count

    total = memo[init]
    return ExplorationReport(
        scenario=sys.scenario.name,
        states_visited=len(memo),
        distinct_terminal_states=len(terminals),
        schedules_complete=None if bounds_hit else total,
        violations=tuple(violations.values()),
        bounds_hit=bounds_hit,
        terminal_states=tuple(map(sys.view, terminals)),
    )


def find_shortest(scenario, kind, bounds=None) -> Violation | None:
    """Breadth-first search for the shortest schedule hitting a violation class.

    ``kind`` may be a bare kind ("deadlock", "torn_read", "monitor_assert")
    or a full class string ("lost_message:own-outgoing").
    """
    sys = as_system(scenario)
    b = resolve_bounds(sys, bounds)
    checks = _Checks(sys)

    init = sys.initial_state()
    parents = {init: None}

    def build(state, extra=None):
        events = []
        cur = state
        while parents[cur] is not None:
            prev, ev = parents[cur]
            events.append(ev)
            cur = prev
        events.reverse()
        if extra is not None:
            events.append(extra)
        return tuple(events)

    def first_match(hits, at, extra, state):
        """The first hit of the requested class; its trace leads to ``at``, then ``extra``."""
        for hk, hn, hd in hits:
            if kind in (hk, _class_of(hk, hn, hd)):
                return Violation(hk, hn, hd, Trace(build(at, extra)), sys.state_hash(state))
        return None

    v = first_match(checks.state(init), init, None, init)
    if v is not None:
        return v

    level = [init]       # the states first reached at this depth, in BFS order
    depth = 0
    while level:
        below = []
        for state in level:
            edges, sink = checks.edges(state)
            if not edges:
                v = first_match(sink, state, None, state)
                if v is not None:
                    return v
                continue
            if depth >= b.max_depth:
                continue
            for ev in edges:
                post, hits = checks.step(state, ev)
                v = first_match(hits, state, ev, post)
                if v is not None:
                    return v
                if post not in parents:
                    v = first_match(checks.state(post), state, ev, post)
                    if v is not None:
                        return v
                    if len(parents) < b.max_states:
                        parents[post] = (state, ev)
                        below.append(post)
        level = below
        depth += 1
    return None


class _WalkNode:
    """A state some walk stood on, with its outgoing edges filled as walks take them."""

    __slots__ = ("state", "edges", "hits", "sink", "children")

    def __init__(self, state, edges, hits, sink):
        self.state = state
        self.edges = edges                  # the enabled actions, from checks.edges
        self.hits = hits                    # classes checks.state reports here
        self.sink = sink                    # classes checks.sink reports; none if edges
        self.children = [None] * len(edges)  # edge index -> (child node, classes)


def random_walks(scenario, walks=10_000, seed=0, bounds=None) -> WalkSummary:
    """Sample maximal schedules uniformly step-wise; collect violation classes.

    The walks of one call share a graph of the states they stood on. Each
    state's enabled actions, state hits and sink hits are computed when a
    walk first reaches it, and an edge is applied and checked when a walk
    first takes it; later walks follow the stored node. This returns what
    recomputing every step would, because ``apply`` and the monitors are
    pure functions of what they are shown, and it draws the same random
    numbers. The graph lives for this call only, so the walks stay
    independent of the exhaustive explorer's memo. It holds at most
    ``max_states`` states, and always the initial one, as ``explore``'s memo
    does; once full it stops growing, and a step it has not stored is
    applied and checked afresh each time a walk takes it.
    """
    sys = as_system(scenario)
    b = resolve_bounds(sys, bounds)
    checks = _Checks(sys)
    rng = random.Random(seed)
    classes = set()
    nodes = {}           # state -> _WalkNode, for this call only

    def node_for(state):
        node = nodes.get(state)
        if node is None:
            hits = _classes(checks.state(state))
            edges, sink = checks.edges(state)
            node = _WalkNode(state, edges, hits, _classes(sink))
            if len(nodes) < b.max_states:
                nodes[state] = node
        return node

    init = sys.initial_state()
    root = nodes[init] = node_for(init)
    for _ in range(walks):
        node = root
        classes.update(root.hits)
        steps = 0
        while True:
            edges = node.edges
            if not edges:
                classes.update(node.sink)
                break
            if steps >= b.max_depth:
                break
            i = rng.randrange(len(edges))
            child = node.children[i]
            if child is None:
                post, hits = checks.step(node.state, edges[i])
                hits = _classes(hits)
                nxt = node_for(post)
                child = (nxt, (hits | nxt.hits) if hits else nxt.hits)
                if len(nodes) < b.max_states:  # then nxt is in the graph
                    node.children[i] = child
            node, hits = child
            classes.update(hits)
            steps += 1
    return WalkSummary(walks=walks, classes=frozenset(classes))


def replay_with_checks(scenario, events, on_step=None):
    """Replay a schedule and report the violation classes present at its end.

    ``events`` is a Trace or an iterable of events. Returns (the view of the
    final state, classes). Classes cover the final transition, the final
    state, and, where the schedule ends in a state with no enabled action,
    the deadlock/terminal checks. ``on_step(k, event, view)`` is called
    after each step, as in ``System.replay`` but with the state's view.
    """
    sys = as_system(scenario)
    checks = _Checks(sys)
    state = sys.initial_state()
    edges, sink = checks.edges(state)
    hits = ()  # of the final step
    for k, ev in enumerate(events):
        if ev not in edges:
            raise NotEnabledAtStep(k, ev, edges)
        state, hits = checks.step(state, ev)
        if on_step is not None:
            on_step(k, ev, sys.view(state))
        edges, sink = checks.edges(state)
    classes = set(_classes(hits))
    classes.update(_classes(checks.state(state)))
    classes.update(_classes(sink))
    return sys.view(state), classes


def verify_violation(scenario, violation: Violation) -> bool:
    """Replay a recorded violation; True iff its class recurs at the trace end
    and the final state hash matches."""
    sys = as_system(scenario)
    final, classes = replay_with_checks(sys, violation.trace)
    return violation.cls in classes and sys.state_hash(final) == violation.state_hash


def terminal_variable_values(sys, report, pid, names):
    """The set of value tuples a process's variables hold across completed runs."""
    out = set()
    for state in report.terminal_states:
        store = state.procs[pid].store
        out.add(tuple(store_get(store, n) if store_has(store, n) else None
                      for n in names))
    return out


def terminal_mechanism_states(sys, report, mech_id):
    """The set of snapshots one mechanism ends in across completed runs."""
    index = sys.mech_index[mech_id]
    return {state.mechs[index] for state in report.terminal_states}
