"""Unit tests for the mechanism state machines: guards and transitions."""

import pytest

from lockstep import machines
from lockstep.machines import (WORD_DOMAIN, DuplexChannel, LastMessageChannel, Lockable,
                               LockedCell, MessageCell, RawCell, SharedRegister,
                               StatusChannel, apply_update)


def test_word_domain():
    assert WORD_DOMAIN == 8


class TestApplyUpdate:
    def test_inc_wraps(self):
        assert apply_update(("inc",), (7, 3)) == (0, 4)

    def test_add(self):
        assert apply_update(("add", 5), (4,)) == (1,)  # 9 mod 8

    def test_double(self):
        assert apply_update(("double",), (3, 5)) == (6, 2)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            apply_update(("neg",), (1,))


class TestRawCell:
    def test_anyone_can_access(self):
        c = RawCell((0, 0))
        assert c.can_access(0) and c.can_access(7)

    def test_write_word_is_persistent(self):
        c = RawCell((0, 0)).write_word(1, 5)
        assert c.words == (0, 5)

    def test_value_equality(self):
        assert RawCell((1, 2)) == RawCell((1, 2))
        assert hash(RawCell((1, 2))) == hash(RawCell((1, 2)))


class TestLockedCell:
    def test_lock_cycle(self):
        c = LockedCell((0,))
        assert c.can_lock(0) and c.can_lock(1)
        c = c.lock(0)
        assert not c.can_lock(1)
        assert c.can_unlock(0) and not c.can_unlock(1)
        assert c.unlock().owner is None

    def test_encapsulated_gates_words(self):
        c = LockedCell((0,), encapsulated=True).lock(1)
        assert c.can_access(1) and not c.can_access(0)

    def test_undisciplined_leaves_words_open(self):
        c = LockedCell((0,), encapsulated=False).lock(1)
        assert c.can_access(0)  # the lock exists but protects nothing

    def test_unheld_encapsulated_blocks_everyone(self):
        c = LockedCell((0,), encapsulated=True)
        assert not c.can_access(0)


class TestMessageCell:
    def test_read_before_write_is_none(self):
        v, c = MessageCell().read(0)
        assert v is None
        assert c.received == ()  # nothing was ever delivered

    def test_write_then_read(self):
        c = MessageCell().write(0, (3,))
        assert not c.read_since_write
        v, c = c.read(0)
        assert v == (3,)
        assert c.read_since_write
        assert c.content == (3,)  # reads do not consume

    def test_overwrite_tracks_logs(self):
        c = MessageCell().write(0, (1,)).write(0, (2,))
        assert c.sent == ((1,), (2,))
        v, c = c.read(0)
        assert v == (2,)
        assert c.received == ((2,),)

    def test_never_blocks(self):
        c = MessageCell()
        assert c.can_write(0) and c.can_read(0)


class TestStatusChannel:
    def test_write_requires_empty(self):
        c = StatusChannel()
        assert c.can_write(0) and not c.can_read(0)
        c = c.write(0, (1,))
        assert not c.can_write(0) and c.can_read(0)

    def test_read_drains(self):
        v, c = StatusChannel().write(0, (1,)).read(0)
        assert v == (1,)
        assert c.content is None and c.can_write(0)

    def test_status_tokens(self):
        c = StatusChannel()
        assert c.status_token(0) == "empty"
        assert c.write(0, (1,)).status_token(0) == "full"

    def test_logs_in_order(self):
        c = StatusChannel().write(0, (1,))
        _, c = c.read(0)
        c = c.write(0, (2,))
        _, c = c.read(0)
        assert c.sent == ((1,), (2,)) == c.received


class TestLastMessageChannel:
    def test_overwrite_always_allowed(self):
        c = LastMessageChannel().write(0, (1,))
        assert c.can_write(0)
        c = c.write(0, (2,))
        assert c.content == (2,)

    def test_read_needs_full_and_drains(self):
        c = LastMessageChannel()
        assert not c.can_read(0)
        v, c = c.write(0, (5,)).read(0)
        assert v == (5,)
        assert not c.can_read(0)


class TestDuplexChannel:
    def fresh(self, last_message=False):
        return DuplexChannel(side_a=0, side_b=1, last_message=last_message)

    def test_only_sides_may_write(self):
        c = self.fresh()
        assert c.can_write(0) and c.can_write(1) and not c.can_write(2)

    def test_write_addresses_the_other_side(self):
        c = self.fresh().write(0, (4,))
        assert c.dest == 1
        assert c.can_read(1) and not c.can_read(0)
        assert c.pending_writer() == 0

    def test_strict_blocks_all_writes_when_full(self):
        c = self.fresh().write(0, (4,))
        assert not c.can_write(0) and not c.can_write(1)

    def test_last_message_replaces_own_outgoing_only(self):
        c = self.fresh(last_message=True).write(0, (4,))
        assert c.can_write(0)       # own unread outgoing may be replaced
        assert not c.can_write(1)   # an incoming message never may
        c = c.write(0, (5,))
        assert c.content == (5,) and c.dest == 1

    def test_status_tokens_distinguish_direction(self):
        c = self.fresh()
        assert c.status_token(0) == "empty"
        c = c.write(0, (4,))
        assert c.status_token(1) == "full"        # addressed to p1
        assert c.status_token(0) == "full-other"  # p0 sees someone else's mail

    def test_read_clears_slot(self):
        v, c = self.fresh().write(1, (6,)).read(0)
        assert v == (6,)
        assert c.content is None and c.dest is None

    def test_other(self):
        c = self.fresh()
        assert c.other(0) == 1 and c.other(1) == 0


class TestSharedRegister:
    def test_free_for_all_without_owner(self):
        r = SharedRegister((0,))
        assert r.can_access(0) and r.can_access(1)
        assert r.can_read(1) and r.can_write(1)

    def test_ownership_excludes_others(self):
        r = SharedRegister((0,)).lock(0)
        assert r.can_access(0) and not r.can_access(1)
        assert not r.can_read(1) and not r.can_write(1)
        assert r.unlock().can_access(1)

    def test_update_is_one_transition(self):
        r = SharedRegister((2,)).update(("inc",))
        assert r.content == (3,)

    def test_write_replaces(self):
        assert SharedRegister((2,)).write(0, (7,)).content == (7,)

    def test_lock_cycle(self):
        r = SharedRegister((0,))
        assert r.can_lock(0) and r.can_lock(1)
        r = r.lock(1)
        assert not r.can_lock(0) and not r.can_lock(1)
        assert r.can_unlock(1) and not r.can_unlock(0)
        assert r.unlock() == SharedRegister((0,))

    def test_read_leaves_register_unchanged(self):
        r = SharedRegister((5,)).lock(1)
        v, r2 = r.read(1)
        assert v == (5,) and r2 is r


def test_the_lock_protocol_is_written_once():
    protocol = ("can_lock", "can_unlock", "lock", "unlock")
    classes = [c for c in vars(machines).values() if isinstance(c, type)]
    assert [c for c in classes if any(m in vars(c) for m in protocol)] == [Lockable]
    assert [c for c in classes if issubclass(c, Lockable)] == [Lockable, LockedCell,
                                                               SharedRegister]
    # the base has no fields, so snapshots keep their reprs, equality and hashes
    assert not hasattr(LockedCell((0,)), "__dict__")
    assert repr(SharedRegister((1,)).lock(0)) == "SharedRegister(content=(1,), owner=0)"
    assert LockedCell((0,)).lock(2).unlock() == LockedCell((0,))
