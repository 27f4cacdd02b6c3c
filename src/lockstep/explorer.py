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
the walks. The four searches (``explore``, ``_breadth_first``, the walks
and the replay) step only through the ``System``, the one transition
layer: ``edges`` expands a state, ``take`` takes an edge, whose event hits
the search then reads beside its move, ``hits`` judges a state and
``sink`` a state with no edge. No other code asks the kernel for a state's
edges, takes one or runs a monitor. Strategies key their memos on packed
states, and the one state that leaves a call is the view of
``replay_with_checks``'s final state.
``explore`` keys its memo by a representative state in which the slots of
each group of interchangeable processes are sorted, and the members of a
data group, which differ only in the words they write, are permuted with
their words to the least image (``_interchangeable``, ``_Orbits``), so one
entry stands for a whole orbit of states and the report stays exact: an
orbit is counted by its size, never listed. ``terminal_values`` reads the
terminal states themselves from the store of a breadth-first search.

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
from dataclasses import dataclass, replace
from itertools import permutations, product
from math import factorial
from operator import itemgetter

from .kernel import NotEnabledAtStep, System, Trace, store_get
from .machines import KINDS, WORD_DOMAIN, renamed
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


def _words_in(x):
    """The words in a literal: a word, a tuple of words, or none."""
    return (x,) if type(x) is int else x if type(x) is tuple else ()


def _data(sys):
    """Each pid's data: the words only its program names, each only as a
    literal it writes, writes as a word or sends, and in no initial value, in
    the order it first names them. No word is a datum when a program applies
    an update function, which does not commute with renaming (``inc`` takes 2
    to 3, but a renamed 5 to 6), or when a mechanism's kind cannot rename its
    value (``machines.KINDS``: pooled kinds can)."""
    if not all("pooled" in KINDS[kind][1] for kind in sys.mech_kind.values()):
        return {}
    named, used, written = {}, {w for m in sys.scenario.mechanisms
                               for w in m.get("initial", ())}, {}
    for p, program in enumerate(sys.programs):
        for ins in program.instrs:
            if ins.op == "update" or ins.expr is not None and ins.expr[0] == "fn":
                return {}
            lit = _words_in(ins.expr[1]) if ins.expr is not None and ins.expr[0] == "lit" else ()
            if ins.op in ("write", "write_word", "send"):
                written.setdefault(p, []).extend(lit)
            else:  # a local literal, a guard's word, an expected value
                lit = (*lit, *_words_in(ins.word), *_words_in(ins.expected))
                used.update(lit)
            for w in lit:
                named.setdefault(w, set()).add(p)
    return {p: tuple(w for w in dict.fromkeys(ws) if w not in used and len(named[w]) == 1)
            for p, ws in written.items()}


def _renaming(groups, to):
    """The word table that renames the data of each member ``i`` of each data
    group ``g`` to that of member ``t[i]``, for ``t`` the group's permutation
    in ``to``, word by word; every other word is kept."""
    words = list(range(WORD_DOMAIN))
    for g, t in zip(groups, to):
        for (_, ws), i in zip(g, t):
            for w, v in zip(ws, g[i][1]):
                words[w] = v
    return tuple(words)


def _interchangeable(sys, monitors):
    """The groups of processes of ``sys`` that can swap places, given its
    compiled monitors: a pid group as a sorted pid tuple, a data group as a
    tuple of ``(pid, its data)`` pairs by pid.

    Processes form a group when they have equal compiled programs once each
    one's data (``_data``) is renamed to placeholders, touch only ``pooled``
    mechanisms (``machines.KINDS``), which they never lock or unlock (an
    owner is a pid), and the monitors map onto themselves under the swap:
    each monitor's ``named()`` gives them equal signatures, none of them None.
    (``LocalAsserts`` names every process with an ``assert_local``, whose
    failure names the pid.) Swapping two members' slots then maps reachable
    states, actions and monitor classes onto themselves. Members with data
    form a data group, whose swap also renames their data everywhere, and
    every monitor must be ``invariant`` under that renaming.
    """
    signature = {}     # pid -> the signatures monitors name it with, None if one allows no swap
    for monitor in monitors:
        for pid, sig in monitor.named():
            sigs = signature.setdefault(pid, [])
            if sig is None:
                signature[pid] = None
            elif sigs is not None:
                sigs.append(sig)
    data = _data(sys)
    groups = {}
    for p, program in enumerate(sys.programs):
        sig = signature.get(p, [])
        if sig is None or any(
                ins.op in ("lock", "unlock")
                or (ins.mech_id is not None
                    and "pooled" not in KINDS[sys.mech_kind[ins.mech_id]][1])
                for ins in program.instrs):
            continue
        instrs = program.instrs
        if data.get(p):   # each datum becomes a placeholder, -1 for the first
            words = list(range(WORD_DOMAIN))
            for j, w in enumerate(data[p]):
                words[w] = -1 - j
            instrs = tuple(replace(ins, expr=("lit", renamed(ins.expr[1], words)))
                           if ins.expr is not None and ins.expr[0] == "lit" else ins
                           for ins in instrs)
        groups.setdefault((instrs, program.heads, frozenset(Counter(sig).items())),
                          []).append(p)
    out = []
    for g in groups.values():
        if len(g) > 1 and not data.get(g[0]):
            out.append(tuple(g))
        elif len(g) > 1:
            members = tuple((p, data[p]) for p in g)
            swaps = [_renaming([members], [(*range(i), i + 1, i, *range(i + 2, len(g)))])
                     for i in range(len(g) - 1)]   # neighbour swaps generate every permutation
            if all(m.invariant(words) for words in swaps for m in monitors):
                out.append(members)
    return tuple(out)


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
    has size 1 when its two slots are equal and 2 otherwise. With no group,
    a key is the state itself and its orbit is that one state. With a data
    group, a permutation of its members also renames their data, and a key
    is the least such key of an image (``_permute_data``). An orbit is only
    counted, never listed: ``explore`` needs its size, not its states.
    """

    def __init__(self, sys, groups):
        data = [g for g in groups if type(g[0]) is tuple]
        self.slots = slots = [tuple(sys.n_mechs + p for p in g)
                              for g in groups if type(g[0]) is int]
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
        else:
            gets = [(g, itemgetter(*g)) for g in slots]  # a group has 2+ slots

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
        if data:
            self._permute_data(sys, data)

    def _permute_data(self, sys, data):
        """Key and size up to the data groups' permutations too: each one
        moves the members' slots and renames their data in every part, by a
        table from intern index to the index of the renamed part, filled on
        first use. The pid groups' key and size then serve each image.

        A key is the least pid key of an image. Permutations never move a
        mechanism slot, so only those whose renamed mechanism slots are least
        need a whole image; they are kept per distinct mechanism slots. The
        orbit size is the number of permutations over the number whose image
        of the key has the key as its pid key, times the key's pid orbit size.
        """
        n, pid_key, pid_size = sys.n_mechs, self.key, self.size
        perms = []   # (renaming table, the image of a state), the identity first
        for to in product(*(permutations(range(len(g))) for g in data)):
            src = list(range(n + sys.n_procs))   # image slot -> the slot it renames
            for g, t in zip(data, to):
                for (p, _), i in zip(g, t):
                    src[n + g[i][0]] = n + p
            words = _renaming(data, to)
            table = _RenameTable(sys, words)
            if words == tuple(range(WORD_DOMAIN)):
                image = tuple   # the identity: a state is its own image
            else:
                def image(state, ren=table.__getitem__, get=itemgetter(*src)):
                    return tuple(map(ren, get(state)))
            perms.append((table, image))
        tied = {}   # mechanism slots -> the images whose renamed mechanism slots are least

        def least(state):
            prefix = state[:n]
            got = tied.get(prefix)
            if got is None:
                prefixes = [tuple(map(table.__getitem__, prefix)) for table, _ in perms]
                low = min(prefixes)
                got = tied[prefix] = tuple(image for (_, image), r in zip(perms, prefixes)
                                           if r == low)
            return got

        def key(state):
            got = tied.get(state[:n]) or least(state)
            if len(got) == 1:
                return pid_key(got[0](state))
            return min([pid_key(image(state)) for image in got])

        def size(key):
            got = tied.get(key[:n]) or least(key)   # the identity is one of them
            fixed = 1 if len(got) == 1 else sum(pid_key(image(key)) == key for image in got)
            return len(perms) // fixed * pid_size(key)

        self.key, self.size = key, size

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


class _RenameTable(dict):
    """Intern index -> the index of its part with each word w renamed to
    ``words[w]`` (``System.renamed``), filled on first use."""

    def __init__(self, sys, words):
        self.renamed = sys.renamed
        self.words = words

    def __missing__(self, i):
        j = self[i] = self.renamed(i, self.words)
        return j


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
    class; a data group's swap also renames the members' words, under which
    every monitor is invariant. The report stays exact: ``states_visited``
    adds up orbit sizes, ``distinct_terminal_states`` adds up the orbit size
    of each terminal sink's key, and the search order up to each skipped
    state is unchanged, so the witnesses are too. Without a group the key is
    the state itself and every orbit is that one state. No state is decoded
    but a witness's, for its ``state_hash``.
    """
    sys = as_system(scenario)
    b = resolve_bounds(sys, bounds)
    orbits = _Orbits(sys, _interchangeable(sys, sys.monitors))
    key_of = orbits.key

    memo = {}            # key -> maximal-schedule count below its state (None = cut by a bound)
    cut_at = {}          # key whose count is None -> depth its state was expanded from
    violations = {}      # class -> first Violation, in discovery order
    terminals = 0        # the terminal states: each sink is closed once, and counts its orbit
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
    record(sys.hits(init), None, init)
    memo_get, size_of, watched = memo.get, orbits.size, sys.state_watches
    edges, take, hits = sys.edges, sys.take, sys.hits
    max_depth, max_states = b.max_depth, b.max_states

    while stack:
        frame = stack[-1]
        state, actions, acc = frame[0], frame[1], frame[2]
        depth = len(stack)   # of the states this frame reaches
        if actions is None:  # expand the state: its frame was just pushed
            actions = edges(state)
            if not actions:
                if done := sys.all_terminated(state):
                    terminals += size_of(frame[4])
                record(sys.sink(state, done), None, state)
                acc = 1
            elif depth > max_depth:  # at the depth bound: no edge is taken, no move computed
                bounds_hit = True
                actions, acc = (), None
            frame[1] = actions = iter(actions)
        for edge in actions:
            post = take(state, edge)
            if edge[3]:
                record(edge[3], edge[0], post)
            key = key_of(post)
            count = memo_get(key, _UNSEEN)
            if count is _UNSEEN:
                if watched:
                    state_hits = hits(post)
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

    total = memo[root]
    return ExplorationReport(
        scenario=sys.scenario.name,
        states_visited=held,
        distinct_terminal_states=terminals,
        schedules_complete=None if bounds_hit else total,
        violations=tuple(violations.values()),
        bounds_hit=bounds_hit,
    )


def _breadth_first(sys, init, max_depth, max_states, parents):
    """Yield each non-empty group of hits as ``(hits, at, ev, state)``: hits
    in ``state``, reached by the trail to ``at`` in ``parents``, then ``ev``.

    Every hit at depth d comes before any at depth d + 1: as the states first
    reached at depth d are expanded, each edge's hits, then each new state's
    state hits and, if it is stored (as ``parents[state] = (at, ev)``), its
    sink hits. A new state found when ``max_states`` are held is checked but
    not stored, and yields ``(None, at, ev, state)``. A state's edges are
    computed once, when it is stored; a state at the depth bound takes none.
    """
    edges, take, hits, sink, watched = sys.edges, sys.take, sys.hits, sys.sink, sys.state_watches
    parents[init] = None
    out = edges(init)
    for found in (hits(init), () if out else sink(init)):
        if found:
            yield found, init, None, init
    level = [(init, out)]   # the states first reached at this depth, with their edges
    depth = 0
    while level and depth < max_depth:   # a level at the depth bound takes no edge
        below = []
        for state, out in level:
            for edge in out:
                post = take(state, edge)
                if edge[3]:
                    yield edge[3], state, edge[0], post
                if post not in parents:
                    if watched and (found := hits(post)):
                        yield found, state, edge[0], post
                    if len(parents) < max_states:
                        parents[post] = (state, edge[0])
                        post_edges = edges(post)
                        if not post_edges and (found := sink(post)):
                            yield found, post, None, post
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
    for hits, at, ev, state in _breadth_first(sys, init, b.max_depth, b.max_states, parents):
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
        self.edges = edges                  # the state's edges, from System.edges
        self.n = len(edges)
        self.bits = self.n.bit_length()     # what randrange(n) draws per try
        self.children = [None] * self.n     # edge index -> child node


def _walk_classes(sys, init, max_depth, budget):
    """Every class a walk from ``init`` could collect, or None once more than
    ``budget`` states would be held: the state and sink classes of each state
    within ``max_depth`` steps, and the event classes of each edge leaving a
    state nearer than that. These are the hits ``_breadth_first`` yields,
    with its own ``parents``."""
    if budget < 1:
        return None
    classes = set()
    for hits, _, _, _ in _breadth_first(sys, init, max_depth, budget, {}):
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
    edges, take_edge, hits = sys.edges, sys.take, sys.hits
    draw = random.Random(seed).getrandbits
    classes = set()
    nodes = {}           # state -> _WalkNode, for this call only

    def node_for(state):
        node = nodes.get(state)
        if node is None:
            classes.update(_classes(hits(state)))
            out = edges(state)
            if not out:
                classes.update(_classes(sys.sink(state)))
            node = _WalkNode(state, out)
            if len(nodes) < b.max_states:
                nodes[state] = node
        return node

    def take(node, i):
        edge = node.edges[i]
        post = take_edge(node.state, edge)
        if edge[3]:
            classes.update(_classes(edge[3]))
        child = node_for(post)
        if post in nodes and nodes.get(node.state) is node:  # an edge of the graph
            node.children[i] = child
        return child

    init = sys.initial_state()
    root = nodes[init] = node_for(init)   # stored even in a full graph
    everything = _walk_classes(sys, init, b.max_depth, min(walks, b.max_states))
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
    state = sys.initial_state()
    edges, last = sys.edges(state), ()   # last: the hits of the final step, if any
    for k, ev in enumerate(events):
        edge = next((edge for edge in edges if edge[0] == ev), None)
        if edge is None:
            raise NotEnabledAtStep(k, ev, [edge[0] for edge in edges])
        state = sys.take(state, edge)
        edges, last = sys.edges(state), edge[3]
    classes = _classes(last)
    classes.update(_classes(sys.hits(state)))
    if not edges:
        classes.update(_classes(sys.sink(state)))
    return sys.view(state), classes


def verify_violation(scenario, violation: Violation) -> bool:
    """Replay a recorded violation; True iff its class recurs at the trace end
    and the final state hash matches."""
    sys = as_system(scenario)
    final, classes = replay_with_checks(sys, violation.trace)
    return violation.cls in classes and sys.state_hash(final) == violation.state_hash


def terminal_values(sys, source, names):
    """The set of tuples ``names`` hold over the terminal states that
    ``_breadth_first`` stores within the scenario's bounds, each met itself,
    not as an orbit: variables of process ``source`` if it is a pid (an
    unbound one reads None), else mechanism fields, read off that one part."""
    b = resolve_bounds(sys)
    parents = {}
    for _ in _breadth_first(sys, sys.initial_state(), b.max_depth, b.max_states, parents):
        pass
    slot = sys.n_mechs + source if isinstance(source, int) else sys.mech_index[source]
    parts = [sys.parts(state, (slot,))[0] for state in parents if sys.all_terminated(state)]
    if isinstance(source, int):
        return {tuple(store_get(ps.store, n, None) for n in names) for ps in parts}
    return {tuple(getattr(m, n) for n in names) for m in parts}
