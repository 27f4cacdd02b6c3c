"""Scaled scenario families for the benchmark.

Every family is built only from the public ``lockstep.scenarios`` builders.
A seeded ``random.Random`` picks the things that must not change any
answer: which distinct non-zero words the writers use, and the order in
which processes are listed in the document. Process ids, and with them the
exploration order, stay fixed, so state counts, schedule counts, violation
classes and shortest-witness lengths are the same for every seed.
"""

from __future__ import annotations

from math import factorial

from lockstep import scenarios as s


def _listed(procs, rng):
    procs = list(procs)
    rng.shuffle(procs)
    return procs


def _words(n, rng):
    """n distinct non-zero words."""
    return rng.sample(range(1, 8), n)


def lost_update(incs, rng):
    """Process ``p`` adds one ``incs[p]`` times to a shared register, as
    read / inc / write with no lock. No scenario monitors are attached."""
    step = [s.read("reg", "t"), s.local("g", s.applied("inc", "t")),
            s.write("reg", s.var("g"))]
    return s.Scenario.from_parts(
        "lost-update-" + "-".join(map(str, incs)), 1,
        [s.shared_register("reg", [0])],
        _listed((s.process(p, s.loop(k, step)) for p, k in enumerate(incs)), rng))


def torn_read(writers, width, readers, rng):
    """``writers`` processes each write their own word into every word of a
    ``width``-word raw cell; ``readers`` processes read every word, each
    under a ``torn_value`` monitor."""
    values = _words(writers, rng)
    allowed = [[0] * width] + [[v] * width for v in values]
    names = [f"w{i}" for i in range(width)]
    procs = [s.process(p, *(s.write_word("cell", i, v) for i in range(width)))
             for p, v in enumerate(values)]
    monitors = []
    for p in range(writers, writers + readers):
        procs.append(s.process(p, *(s.read_word("cell", i, n) for i, n in enumerate(names))))
        monitors.append(s.torn_value("cell", allowed, p, names))
    return s.Scenario.from_parts(
        f"torn-read-{writers}x{width}x{readers}", width,
        [s.raw_cell("cell", [0] * width)], _listed(procs, rng), monitors)


def relay_chain(relays, messages, rng):
    """A sender, ``relays`` relays and a receiver joined by direct channels.

    Each relay loops over a ``choose`` between receiving from the left and
    sending what it holds to the right, as in the catalog's
    decomposition-equivalence entry, so a relay may forward before it has
    received and some schedules deadlock."""
    values = _words(messages, rng)
    chans = [f"c{i}" for i in range(relays + 1)]
    procs = [s.process(0, *(s.send(chans[0], [v]) for v in values))]
    for r in range(1, relays + 1):
        body = [s.choose([s.receive(chans[r - 1], "cur")],
                         [s.send(chans[r], s.var("cur"))])]
        procs.append(s.process(r, s.local("cur", None), s.loop(2 * messages, body)))
    procs.append(s.process(relays + 1, *(s.receive(chans[-1], f"r{k}")
                                         for k in range(messages))))
    return s.Scenario.from_parts(
        f"relay-chain-{relays}x{messages}", 1,
        [s.direct_channel(c) for c in chans], _listed(procs, rng))


def multinomial(*parts):
    """Interleavings of independent straight-line runs of the given lengths."""
    out = factorial(sum(parts))
    for n in parts:
        out //= factorial(n)
    return out


def lost_update_schedules(incs):
    return multinomial(*(3 * k for k in incs))


def torn_read_schedules(writers, width, readers):
    return multinomial(*[width] * (writers + readers))
