"""Schedule exploration.

explore() walks every reachable interleaving of a scenario once, sharing
states that coincide, and reports the first witness of each violation
class together with a replayable schedule. Programs cannot revisit a
position (loops are unrolled), so the state graph is acyclic and the
number of maximal schedules can be counted exactly by memoized path
counting. ``_breadth_first`` is the one breadth-first search: it yields
every hit at one depth before any at the next, so find_shortest(), which
returns the first hit of a class, returns a minimal counterexample.
random_walks() is the cheap cross-check: it must never find a class the
exhaustive pass missed. Before the first walk it runs the search once
(``_walk_classes``) to learn every class a walk could collect, and the
walks stop once they hold them all, since no later walk could add one;
that is their one stop rule. The walks of one call share a lazily built
graph of the states they stood on, so a revisited edge is neither taken
nor checked again. This is sound because stepping and the monitors are
pure functions of the states they are shown; neither the graph nor the
pass is shared with explore(), so a fault in its memo cannot hide from
the walks. Every strategy and the
replay step only through ``_Checks``, the one transition layer: no other
code asks the kernel for a state's edges, takes one or runs a monitor. (When no monitor
has an event hook, the layer's ``step`` is the kernel's ``take`` itself.) Strategies key
their memos on packed states, and only views of them leave a call.
``explore`` keys its memo by a representative state in which the slots of
each group of interchangeable processes are sorted (``_interchangeable``,
``_Orbits``), so one entry stands for a whole orbit of states and the
report stays exact.

Every strategy reads ``max_states`` one way: the initial state is always
stored, and a new state is stored only while fewer than ``max_states`` are
held. ``explore`` counts what it holds by orbit: a new entry is stored only
while the states held plus the entry's own orbit stay within
``max_states``, which without interchangeable processes is the same rule.
A state found when the store is full is still checked, but it is not
stored, and ``explore`` and ``_breadth_first`` neither expand it nor check
its sink.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import factorial
from operator import itemgetter

from .kernel import NotEnabledAtStep, System, Trace, store_get
from .machines import KINDS
from .monitors import Monitor, compile_monitors
from .scenarios import bounds_problems

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
        """Read a violation as ``to_doc`` writes it; a ValueError names the
        field at fault. A ``class``, when given, must be the one the other
        fields make."""
        if not isinstance(doc, dict):
            raise ValueError(f"violation: expected an object, got {doc!r}")
        for key in ("kind", "name", "detail", "state_hash", "class"):
            value, optional = doc.get(key), key in ("name", "detail", "class")
            if not (isinstance(value, str) or optional and value is None):
                raise ValueError(f"{key}: expected a string{' or null' if optional else ''}, "
                                 f"got {value!r}")
        v = cls(kind=doc["kind"], name=doc.get("name"), detail=doc.get("detail"),
                trace=Trace.from_doc(doc.get("trace"), "trace.events"),
                state_hash=doc["state_hash"])
        if doc.get("class") not in (None, v.cls):
            raise ValueError(f"class: {doc['class']!r} is not the class of kind "
                             f"{v.kind!r}, which is {v.cls!r}")
        return v


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


def resolve_bounds(sys: System, override=None) -> Bounds:
    """The bounds a strategy call on ``sys`` runs with. Each bound comes from
    ``override`` if it names it (a ``Bounds`` names both, a dict its keys),
    else from the scenario's ``bounds``, else from the default. An override
    is held to the rule ``validate`` applies to a document's ``bounds``, and
    a ValueError names the field it breaks."""
    given = vars(override) if isinstance(override, Bounds) else override
    if given is not None and (problems := bounds_problems(given)):
        raise ValueError("; ".join(problems))
    return Bounds(**{**(sys.scenario.bounds or {}), **(given or {})})


def _classes(hits):
    """The class strings of a list of monitor hits."""
    return {_class_of(*hit) for hit in hits}


class _Checks:
    """The transition layer: stepping and monitor fan-out for every strategy.

    Every strategy expands a state with ``edges`` and takes each edge with
    ``step``, so a rule for every expansion or every step goes here once,
    such as turning a ``KernelError`` into a violation or counting
    transitions and time per layer. Only ``edges`` asks the kernel for a
    state's edges, only ``step`` takes one and runs the event hooks, and
    only ``sink`` runs the terminal hooks. An edge is the kernel's
    ``[action, move, instruction]``, and a strategy records its action.
    ``edges`` takes nothing, so a state at the depth bound, whose edges the
    searches do not take, computes no move. ``step`` returns the post state
    and refills the list ``hits`` in place with the edge's event hits, so a
    strategy binds both once and reads ``hits`` right after each step. When
    no monitor has an event hook, ``step`` is the kernel's ``take`` itself,
    one call per edge, and ``hits`` stays empty; a rule added for every
    step must then replace that binding.

    States come in packed. A state is checked through the monitors' watches:
    each verdict is kept per distinct tuple of intern indices at the slots it
    reads, for the life of the layer (one strategy call), as ``System`` keeps
    offers. So a state costs one lookup per watch and builds no view. Event
    and terminal hooks are shown views, and each runs only on the monitors
    that override it, so an edge that no event monitor watches builds none.
    """

    def __init__(self, sys):
        self.sys = sys
        self.take = sys.take
        self.monitors = monitors = compile_monitors(sys)
        # (key of a packed state, verdicts by key, slots, verdict), in monitor order
        self.watches = tuple((itemgetter(*slots), {}, slots, verdict) for m in monitors
                             for slots, verdict in m.watches(sys.n_mechs, sys.n_procs))
        self.on_event, self.on_terminal = (
            tuple(getattr(m, hook) for m in monitors
                  if getattr(type(m), hook) is not getattr(Monitor, hook))
            for hook in ("on_event", "on_terminal"))
        self.hits = []   # the hits on the edge ``step`` took last, refilled in place
        if not self.on_event:  # no edge can hit, so a step is the kernel's take
            self.step = sys.take

    def edges(self, state):
        """(the state's edges, sink hits); the hits are () unless there are no edges."""
        edges = self.sys.edges(state)
        return edges, (() if edges else self.sink(state))

    def step(self, state, edge):
        """The post state of an edge of ``state``; the edge's hits go in ``hits``."""
        post = self.take(state, edge)
        self.hits[:] = self.event(state, edge[0], post)
        return post

    def state(self, state):
        hits = []
        for key_of, verdicts, slots, verdict in self.watches:
            key = key_of(state)
            try:
                got = verdicts[key]
            except KeyError:
                got = verdicts[key] = verdict(*self.sys.parts(state, slots))
            if got:
                hits += got
        return hits

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


def _interchangeable(sys, monitors):
    """The groups of processes of ``sys`` that can swap places, as sorted pid
    tuples, given its compiled monitors.

    Processes form a group when they have equal compiled programs, touch
    only ``pooled`` mechanisms (``machines.KINDS``), which they never lock
    or unlock (an owner is a pid), and the monitors map onto themselves
    under the swap: each monitor's ``named()`` gives them equal signatures,
    none of them None.
    (``LocalAsserts`` names every process with an ``assert_local``, whose
    failure names the pid.) Swapping two members' slots then maps
    reachable states, actions and monitor classes onto themselves.
    """
    signature = {}     # pid -> the signatures monitors name it with, None if one allows no swap
    for monitor in monitors:
        for pid, sig in monitor.named():
            sigs = signature.setdefault(pid, [])
            if sig is None:
                signature[pid] = None
            elif sigs is not None:
                sigs.append(sig)
    groups = {}
    for p, program in enumerate(sys.programs):
        sig = signature.get(p, [])
        if sig is None or any(
                ins.op in ("lock", "unlock")
                or (ins.mech_id is not None
                    and "pooled" not in KINDS[sys.mech_kind[ins.mech_id]][1])
                for ins in program.instrs):
            continue
        groups.setdefault((program.instrs, program.heads, frozenset(Counter(sig).items())),
                          []).append(p)
    return tuple(tuple(g) for g in groups.values() if len(g) > 1)


def _next_arrangement(values):
    """Step the list ``values`` in place to its next distinct ordering in
    sorted order. From the last ordering it wraps to the first, the sorted
    one, and returns False."""
    i = len(values) - 2
    while i >= 0 and values[i] >= values[i + 1]:
        i -= 1
    if i >= 0:
        j = len(values) - 1
        while values[j] <= values[i]:
            j -= 1
        values[i], values[j] = values[j], values[i]
    values[i + 1:] = values[i + 1:][::-1]
    return i >= 0


class _Orbits:
    """Packed states up to swaps of interchangeable processes.

    ``key(state)`` is the orbit's representative: the state with each
    group's slots sorted in place. Two states share a key exactly when one
    is the other with some members of each group swapped. A lone group of
    two slots ``a < b`` is sorted by compare-and-swap: the key is the state
    itself when ``state[a] <= state[b]``, else the state with the two
    swapped, by one ``itemgetter`` that lists every slot with ``a`` and
    ``b`` exchanged. A key's orbit is the set of states with that key; its
    size is ``|G|! / prod(m!)`` per group ``G``, where each ``m`` counts one
    repeated intern index among the group's slots, so a lone pair's orbit
    has size 1 when its two slots are equal and 2 otherwise, and its images
    are found by the same compare. With no group, a key is the state itself
    and its orbit is that one state.
    """

    def __init__(self, sys, groups):
        self.slots = slots = [tuple(sys.n_mechs + p for p in g) for g in groups]
        self._gets = gets = [(g, itemgetter(*g)) for g in slots]  # a group has 2+ slots
        self.images = self._images
        if not slots:
            self.key = tuple   # a state is a tuple, so this returns the state itself
            self.size = lambda key: 1
        elif len(slots) == 1 and len(slots[0]) == 2:  # a lone pair: compare, never sort
            a, b = slots[0]
            order = list(range(sys.n_mechs + sys.n_procs))
            order[a], order[b] = b, a
            swap = itemgetter(*order)   # the state with slots a and b exchanged
            self.key = lambda state: state if state[a] <= state[b] else swap(state)
            self.size = lambda key: 1 if key[a] == key[b] else 2
            self.images = lambda state: [state] if state[a] == state[b] else [state, swap(state)]
        else:
            def key(state):
                out = list(state)
                for g, members in gets:
                    for i, v in zip(g, sorted(members(state))):
                        out[i] = v
                return tuple(out)

            self.key = key
            self._grouped = itemgetter(*(i for g in slots for i in g))
            self._sizes = {}   # the group slots of a key -> its orbit size
            self.size = self._size

    def _size(self, key):
        """How many states share the key ``key``, cached by its group slots."""
        tail = self._grouped(key)
        n = self._sizes.get(tail)
        if n is None:
            n, at = 1, 0
            for g in self.slots:
                n *= factorial(len(g))
                for m in Counter(tail[at:at + len(g)]).values():
                    n //= factorial(m)
                at += len(g)
            self._sizes[tail] = n
        return n

    def _images(self, state):
        """Every state in the orbit of ``state``, starting with ``state`` itself.

        Each group's slots run through their distinct orders from sorted,
        the last group fastest, so the work is the orbit's size, never
        ``|G|!`` per group.
        """
        out = [state]
        image = list(state)
        groups = [(g, sorted(members(state))) for g, members in self._gets]
        while True:
            for g, values in groups:
                for i, v in zip(g, values):
                    image[i] = v
            arranged = tuple(image)
            if arranged != state:
                out.append(arranged)
            for _, values in reversed(groups):
                if _next_arrangement(values):
                    break
            else:
                return out


def explore(scenario, bounds=None) -> ExplorationReport:
    """Visit every reachable state within bounds; report one witness per class.

    A memo entry holds the number of maximal schedules below its state, or
    None when a bound cut some of them off. An entry whose count is unknown
    also keeps the depth its state was expanded from, and a shallower path
    that reaches the state expands it again (as SPIN's ``-DREACH`` does).
    So every violation within the depth bound is found. When a bound trips,
    the report says ``bounds_hit`` and gives no schedule count.

    Interchangeable processes (``_interchangeable``) share one memo entry:
    the memo is keyed by ``_Orbits.key``, and a state whose key is stored
    is not searched again, because swapping the members maps its schedules
    one to one onto those of the stored state and keeps every violation
    class. The report stays exact: ``states_visited`` adds up orbit sizes,
    each terminal state stands for its orbit, and the search order up to
    each skipped state is unchanged, so the witnesses are too. Without a
    group the key is the state itself and every orbit is that one state.
    """
    sys = as_system(scenario)
    b = resolve_bounds(sys, bounds)
    checks = _Checks(sys)
    orbits = _Orbits(sys, _interchangeable(sys, checks.monitors))
    key_of, step, edge_hits = orbits.key, checks.step, checks.hits

    memo = {}            # key -> maximal-schedule count below its state (None = cut by a bound)
    cut_at = {}          # key whose count is None -> depth its state was expanded from
    violations = {}      # class -> first Violation, in discovery order
    terminals = []       # each sink is closed once, so each terminal key is listed once
    bounds_hit = False

    def trail(extra=None):
        events = tuple(f[3][0] for f in stack[1:])
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

    init = sys.initial_state()
    root = key_of(init)
    held = 1             # the states the memo stands for: its keys' orbits
    # frame: [its state, an iterator over its edges not yet taken (None
    # until the state is expanded), schedule count accumulator, inbound
    # edge, key]
    stack = [[init, None, 0, None, root]]
    memo[root] = _IN_PROGRESS
    record(checks.state(init), None, init)
    memo_get, size_of, watches = memo.get, orbits.size, checks.watches
    edges, max_depth, max_states = checks.edges, b.max_depth, b.max_states

    while stack:
        frame = stack[-1]
        state, actions, acc = frame[0], frame[1], frame[2]
        depth = len(stack)   # of the states this frame reaches
        if actions is None:  # expand the state: its frame was just pushed
            actions, hits = edges(state)
            if not actions:
                if sys.all_terminated(state):
                    terminals.append(state)
                record(hits, None, state)
                acc = 1
            elif depth > max_depth:  # at the depth bound: no edge is taken, no move computed
                bounds_hit = True
                actions, acc = (), None
            frame[1] = actions = iter(actions)
        for edge in actions:
            post = step(state, edge)
            if edge_hits:
                record(edge_hits, edge[0], post)
            key = key_of(post)
            count = memo_get(key, _UNSEEN)
            if count is _UNSEEN:
                if watches:
                    state_hits = checks.state(post)
                    if state_hits:
                        record(state_hits, edge[0], post)
                size = size_of(key)
                if held + size > max_states:
                    bounds_hit = True
                    acc = None
                    continue
                held += size
            elif count is None and cut_at[key] > depth:  # reached by a shorter path
                del cut_at[key]
            else:
                if count is _IN_PROGRESS:  # pragma: no cover - programs only move forward
                    raise RuntimeError("cycle in the schedule graph")
                acc = None if (acc is None or count is None) else acc + count
                continue
            memo[key] = _IN_PROGRESS
            frame[2] = acc
            stack.append([post, None, 0, edge, key])
            break
        else:
            stack.pop()
            memo[frame[4]] = acc
            if acc is None:
                cut_at[frame[4]] = len(stack)
            if stack:
                parent = stack[-1]
                parent[2] = None if (parent[2] is None or acc is None) else parent[2] + acc

    terminals = [image for state in terminals for image in orbits.images(state)]
    total = memo[root]
    return ExplorationReport(
        scenario=sys.scenario.name,
        states_visited=held,
        distinct_terminal_states=len(terminals),
        schedules_complete=None if bounds_hit else total,
        violations=tuple(violations.values()),
        bounds_hit=bounds_hit,
        terminal_states=tuple(map(sys.view, terminals)),
    )


def _breadth_first(checks, init, max_depth, max_states, parents):
    """Yield each non-empty group of hits as ``(hits, at, ev, state)``: hits
    in ``state``, reached by the trail to ``at`` in ``parents``, then ``ev``.

    Every hit at depth d comes before any at depth d + 1: as the states first
    reached at depth d are expanded, each edge's hits, then each new state's
    state hits and, if it is stored (as ``parents[state] = (at, ev)``), its
    sink hits. A new state found when ``max_states`` are held is checked but
    not stored, and yields ``(None, at, ev, state)``. A state's edges are
    computed once, when it is stored; a state at the depth bound takes none.
    """
    step, hits, watches = checks.step, checks.hits, checks.watches
    parents[init] = None
    edges, sink = checks.edges(init)
    for found in (checks.state(init), sink):
        if found:
            yield found, init, None, init
    level = [(init, edges)]   # the states first reached at this depth, with their edges
    depth = 0
    while level and depth < max_depth:   # a level at the depth bound takes no edge
        below = []
        for state, edges in level:
            for edge in edges:
                post = step(state, edge)
                if hits:
                    yield hits, state, edge[0], post
                if post not in parents:
                    if watches and (found := checks.state(post)):
                        yield found, state, edge[0], post
                    if len(parents) < max_states:
                        parents[post] = (state, edge[0])
                        post_edges, sink = checks.edges(post)
                        if sink:
                            yield sink, post, None, post
                        below.append((post, post_edges))
                    else:
                        yield None, state, edge[0], post
        level = below
        depth += 1


def find_shortest(scenario, kind, bounds=None) -> Violation | None:
    """Breadth-first search for the shortest schedule hitting a violation class.

    ``kind`` may be a bare kind ("deadlock", "torn_read", "monitor_assert")
    or a full class string ("lost_message:own-outgoing").

    The witness is the first hit of the class that ``_breadth_first``
    yields, with its trail, so it is a shortest one: every hit at depth d is
    checked before any at depth d + 1.
    """
    sys = as_system(scenario)
    b = resolve_bounds(sys, bounds)
    init = sys.initial_state()
    parents = {}
    for hits, at, ev, state in _breadth_first(_Checks(sys), init, b.max_depth,
                                              b.max_states, parents):
        for hk, hn, hd in hits or ():
            if kind in (hk, _class_of(hk, hn, hd)):
                events = [] if ev is None else [ev]
                while parents[at] is not None:
                    at, ev = parents[at]
                    events.append(ev)
                events.reverse()
                return Violation(hk, hn, hd, Trace(tuple(events)), sys.state_hash(state))
    return None


class _WalkNode:
    """A state some walk stood on, with its outgoing edges filled as walks take them."""

    __slots__ = ("state", "edges", "n", "bits", "children")

    def __init__(self, state, edges):
        self.state = state
        self.edges = edges                  # the state's edges, from checks.edges
        self.n = len(edges)
        self.bits = self.n.bit_length()     # what randrange(n) draws per try
        self.children = [None] * self.n     # edge index -> child node


def _walk_classes(checks, init, max_depth, budget):
    """Every class a walk from ``init`` could collect, or None once more than
    ``budget`` states would be held: the state and sink classes of each state
    within ``max_depth`` steps, and the event classes of each edge leaving a
    state nearer than that. These are the hits ``_breadth_first`` yields,
    with its own ``parents``."""
    if budget < 1:
        return None
    classes = set()
    for hits, _, _, _ in _breadth_first(checks, init, max_depth, budget, {}):
        if hits is None:
            return None
        classes.update(_classes(hits))
    return classes


def random_walks(scenario, walks=10_000, seed=0, bounds=None) -> WalkSummary:
    """Sample maximal schedules uniformly step-wise; collect violation classes.

    The walks of one call share a graph of the states they stood on. A
    state's edges are computed, and its state and sink classes collected,
    when a walk first reaches it; an edge is taken and its classes collected
    when a walk first takes it. A later step over a stored edge only draws
    its index. This collects what checking every step would, since stepping
    and the monitors are pure, each node built is stood on
    at once, and a sink is checked before the depth bound. An index below
    ``n`` is drawn as ``randrange(n)`` draws it, by redrawing
    ``getrandbits(n.bit_length())`` until it is below ``n``, so a seed gives
    the same walks. The graph lives for this call only and shares nothing
    with ``explore``. It holds at most ``max_states`` states, and always the
    initial one; once full it stops growing, and a step from or to a state
    it has not stored is taken and checked afresh. An edge between two
    stored states is stored when first taken, whatever the graph's size.

    The walks stop before a walk once the classes they hold are every class
    a walk could collect; that is their one stop rule. Before the first walk,
    ``_walk_classes`` finds these breadth-first: the state and sink classes
    of each state within ``max_depth`` steps, and the event classes of each
    edge leaving a state nearer than that. The rule is exact: a walk stands
    on a state no nearer than its distance and takes an edge only before the
    depth bound, so what it collects is in that set, and once the walks hold
    the set no later walk can add a class. The pass holds at most
    ``min(walks, max_states)`` states and gives up, returning None, when more
    lie within the depth bound; the walks then all run. No other stop is
    needed: a graph whose stored states have every edge taken to a stored
    state holds every reachable state, so walks that close it hold the
    pass's set, or, if the pass gave up, are fewer than the states and from
    then on only redraw stored edges. A pass that gives up has stepped
    through that many states for nothing: 3-7% of the time of 1000 walks on
    lost-update 3/3/2, relay-chain 5x3 and torn-read 3x2x2.
    """
    if type(walks) is not int or walks < 0:
        raise ValueError(f"walks: must be a non-negative integer, got {walks!r}")
    sys = as_system(scenario)
    b = resolve_bounds(sys, bounds)
    checks = _Checks(sys)
    step, hits = checks.step, checks.hits
    draw = random.Random(seed).getrandbits
    classes = set()
    nodes = {}           # state -> _WalkNode, for this call only

    def node_for(state):
        node = nodes.get(state)
        if node is None:
            classes.update(_classes(checks.state(state)))
            edges, sink = checks.edges(state)
            classes.update(_classes(sink))
            node = _WalkNode(state, edges)
            if len(nodes) < b.max_states:
                nodes[state] = node
        return node

    def take(node, i):
        post = step(node.state, node.edges[i])
        if hits:
            classes.update(_classes(hits))
        child = node_for(post)
        if post in nodes and nodes.get(node.state) is node:  # an edge of the graph
            node.children[i] = child
        return child

    init = sys.initial_state()
    root = nodes[init] = node_for(init)   # stored even in a full graph
    everything = _walk_classes(checks, init, b.max_depth, min(walks, b.max_states))
    depth = range(b.max_depth)
    for _ in range(walks):
        if classes == everything:  # no later walk can add a class
            break
        node = root
        for _ in depth:
            n = node.n
            if not n:
                break
            i = draw(node.bits)
            while i >= n:
                i = draw(node.bits)
            node = node.children[i] or take(node, i)
    # the root's classes were collected when it was built, even for no walk
    return WalkSummary(walks=walks, classes=frozenset(classes if walks else ()))


def replay_with_checks(scenario, events):
    """Replay a schedule and report the violation classes present at its end.

    ``events`` is a Trace or an iterable of events. Returns (the view of the
    final state, classes). Classes cover the final transition, the final
    state, and, where the schedule ends in a state with no enabled action,
    the deadlock/terminal checks. A step the state does not offer raises
    ``NotEnabledAtStep`` with its index and the actions that were enabled.
    """
    sys = as_system(scenario)
    checks = _Checks(sys)
    state = sys.initial_state()
    edges, sink = checks.edges(state)
    for k, ev in enumerate(events):
        edge = next((edge for edge in edges if edge[0] == ev), None)
        if edge is None:
            raise NotEnabledAtStep(k, ev, [edge[0] for edge in edges])
        state = checks.step(state, edge)
        edges, sink = checks.edges(state)
    classes = _classes(checks.hits)  # of the final step, if any
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
        out.add(tuple(store_get(store, n, None) for n in names))
    return out


def terminal_mechanism_states(sys, report, mech_id):
    """The set of snapshots one mechanism ends in across completed runs."""
    index = sys.mech_index[mech_id]
    return {state.mechs[index] for state in report.terminal_states}
