"""Guarded state machines for inter-process communication.

Each mechanism is an immutable snapshot: guards are ``can_*`` predicates and
transitions return fresh instances, so snapshots can be shared freely between
exploration branches. Channel variants carry small sent/received logs, which
lets delivery properties be phrased against a single state instead of a
schedule history; the logs never influence any guard.

Every whole-value mechanism (message cell, the three channels, shared
register) offers one interface to the kernel: ``can_write(pid)``,
``can_read(pid)``, ``write(pid, value) -> mechanism`` and
``read(pid) -> (value, mechanism)``. A mechanism that does not care who
writes or reads ignores ``pid``. The two mechanisms with a lock (locked
cell, shared register) share one lock protocol, ``Lockable``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

WORD_DOMAIN = 8  # every word is in 0..7


def is_word(x) -> bool:  # a JSON boolean is not a word
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < WORD_DOMAIN


def apply_update(fn: tuple, value: tuple) -> tuple:
    """Apply a built-in update function word-wise, wrapping at the domain."""
    name = fn[0]
    if name == "inc":
        return tuple((w + 1) % WORD_DOMAIN for w in value)
    if name == "add":
        return tuple((w + fn[1]) % WORD_DOMAIN for w in value)
    if name == "double":
        return tuple((w * 2) % WORD_DOMAIN for w in value)
    raise ValueError(f"unknown update function: {fn!r}")


def _set(words: tuple, index: int, word: int) -> tuple:
    out = list(words)
    out[index] = word
    return tuple(out)


@dataclass(frozen=True, slots=True)
class RawCell:
    """Bare word-addressable storage; accesses interleave freely."""

    words: tuple

    def can_access(self, pid: int) -> bool:
        return True

    def write_word(self, index: int, word: int) -> "RawCell":
        return RawCell(_set(self.words, index, word))


class Lockable:
    """The lock protocol of a mechanism whose ``owner`` field holds the pid
    of the lock holder, or None: a free lock goes to whoever takes it, and
    only its holder releases it."""

    __slots__ = ()

    def can_lock(self, pid: int) -> bool:
        return self.owner is None

    def can_unlock(self, pid: int) -> bool:
        return self.owner == pid

    def lock(self, pid: int):
        return replace(self, owner=pid)

    def unlock(self):
        return replace(self, owner=None)


@dataclass(frozen=True, slots=True)
class LockedCell(Lockable):
    """Word-addressable storage paired with a lock.

    An encapsulated cell admits word access only to the current lock holder.
    The undisciplined flavour hands out the same lock but leaves the words
    reachable without it, so programs that bypass the discipline remain
    representable.
    """

    words: tuple
    owner: int | None = None
    encapsulated: bool = True

    def can_access(self, pid: int) -> bool:
        return self.owner == pid if self.encapsulated else True

    def write_word(self, index: int, word: int) -> "LockedCell":
        return replace(self, words=_set(self.words, index, word))


@dataclass(frozen=True, slots=True)
class MessageCell:
    """Whole-value slot with no ordering constraints.

    Writes always succeed and overwrite, reads never consume, and a read
    before the first write observes None. ``read_since_write`` and the logs
    exist for the monitors; they constrain nothing.
    """

    content: tuple | None = None
    read_since_write: bool = True
    sent: tuple = ()
    received: tuple = ()

    def can_write(self, pid: int) -> bool:
        return True

    def can_read(self, pid: int) -> bool:
        return True

    def write(self, pid: int, value: tuple) -> "MessageCell":
        return replace(self, content=value, read_since_write=False,
                       sent=self.sent + (value,))

    def read(self, pid: int) -> tuple:
        if self.content is None:
            return None, replace(self, read_since_write=True)
        return self.content, replace(self, read_since_write=True,
                                     received=self.received + (self.content,))


@dataclass(frozen=True, slots=True)
class StatusChannel:
    """Single slot gated by an empty/full flag.

    Writes need the slot empty, reads need it full, so the two parties
    alternate and every message is delivered exactly once, in order. The
    flag itself is observable through check steps.
    """

    content: tuple | None = None
    sent: tuple = ()
    received: tuple = ()

    def can_write(self, pid: int) -> bool:
        return self.content is None

    def can_read(self, pid: int) -> bool:
        return self.content is not None

    def status_token(self, pid: int) -> str:
        return "empty" if self.content is None else "full"

    def write(self, pid: int, value: tuple) -> "StatusChannel":
        return replace(self, content=value, sent=self.sent + (value,))

    def read(self, pid: int) -> tuple:
        v = self.content
        return v, replace(self, content=None, received=self.received + (v,))


@dataclass(frozen=True, slots=True)
class LastMessageChannel(StatusChannel):
    """Single slot where a write may overwrite an unread message.

    The reader only ever takes the most recent value; a read empties the
    slot, so the full flag means "a message you have not seen yet". Only
    the write guard differs from a status channel; the two never compare
    equal, because a dataclass compares only instances of one class.
    """

    def can_write(self, pid: int) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class DuplexChannel:
    """One shared slot serving both directions between two fixed sides.

    The state records which side a pending message is for, and a read is
    only offered to that side. Strict mode requires the slot empty before
    any write; last-message mode lets a side overwrite its own outgoing
    unread message but never an incoming one, so a reply can still be
    blocked by a message waiting to be read.
    """

    side_a: int
    side_b: int
    last_message: bool = False
    content: tuple | None = None
    dest: int | None = None
    sent: tuple = ()
    received: tuple = ()

    def is_side(self, pid: int) -> bool:
        return pid == self.side_a or pid == self.side_b

    def other(self, pid: int) -> int:
        return self.side_b if pid == self.side_a else self.side_a

    def can_write(self, pid: int) -> bool:
        if not self.is_side(pid):
            return False
        if self.content is None:
            return True
        if not self.last_message:
            return False
        return self.dest != pid  # own outgoing may be replaced, incoming never

    def can_read(self, pid: int) -> bool:
        return self.content is not None and self.dest == pid

    def pending_writer(self) -> int | None:
        return None if self.dest is None else self.other(self.dest)

    def status_token(self, pid: int) -> str:
        if self.content is None:
            return "empty"
        return "full" if self.dest == pid else "full-other"

    def write(self, pid: int, value: tuple) -> "DuplexChannel":
        return replace(self, content=value, dest=self.other(pid),
                       sent=self.sent + (value,))

    def read(self, pid: int) -> tuple:
        v = self.content
        return v, replace(self, content=None, dest=None,
                          received=self.received + (v,))


@dataclass(frozen=True, slots=True)
class SharedRegister(Lockable):
    """Whole-value storage any party may read, write, or update in place.

    An update applies a built-in function as one indivisible step. The
    optional lock exists for programs that spell the same thing out as
    read, generate, write; while nobody holds it the register is free for
    all, matching plain unlocked use.
    """

    content: tuple
    owner: int | None = None

    def can_access(self, pid: int) -> bool:
        return self.owner is None or self.owner == pid

    # reads, writes and updates all share the one ownership guard
    can_read = can_write = can_access

    def write(self, pid: int, value: tuple) -> "SharedRegister":
        return replace(self, content=value)

    def read(self, pid: int) -> tuple:
        return self.content, self  # reading leaves the register as it is

    def update(self, fn: tuple) -> "SharedRegister":
        return replace(self, content=apply_update(fn, self.content))


@dataclass(frozen=True, slots=True)
class DirectChannel:
    """Synchronous channel: a send and its matching receive form one joint step."""


# mechanism kind -> (its initial snapshot built from the mechanism's document,
# the families it serves, the fields its document may have besides id and kind).
# A family is a group of ops or monitors that may address the kind; a pooled
# kind holds no pid of a process that never locks it.
KINDS = {
    "raw_cell": (lambda doc: RawCell(tuple(doc["initial"])), ("word", "pooled"), ("initial",)),
    "locked_cell": (lambda doc: LockedCell(tuple(doc["initial"]),
                                           encapsulated=doc["mode"] == "encapsulated"),
                    ("word", "lock"), ("initial", "mode")),
    "message_cell": (lambda doc: MessageCell(), ("value", "logged"), ()),
    "status_channel": (lambda doc: StatusChannel(), ("value", "status", "logged"), ()),
    "last_message_channel": (lambda doc: LastMessageChannel(),
                             ("value", "status", "logged"), ()),
    "duplex_channel": (lambda doc: DuplexChannel(
        side_a=doc["side_a"], side_b=doc["side_b"],
        last_message=bool(doc.get("last_message", False))),
        ("value", "status", "logged", "duplex"), ("side_a", "side_b", "last_message")),
    "shared_register": (lambda doc: SharedRegister(tuple(doc["initial"])),
                        ("value", "lock", "update", "pooled"), ("initial",)),
    "direct_channel": (lambda doc: DirectChannel(), ("direct",), ()),
}
