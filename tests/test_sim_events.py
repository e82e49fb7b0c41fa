"""Unit tests for the event queue.

The property section drives :class:`EventQueue` with seeded
pseudo-random schedules (ties, cancels, re-entrant pushes) and checks
the fire order against a list-scan reference: pops follow
``(time, seq)`` exactly, which is the determinism contract the golden
fixtures rely on.
"""

import random

import pytest

from repro.errors import SchedulingError
from repro.sim.events import COMPACT_MIN_ENTRIES, EventQueue

# The ``heap`` id is kept so test names stay stable across releases.
QUEUES = [EventQueue]


@pytest.fixture(params=QUEUES, ids=["heap"])
def queue(request):
    return request.param()


def test_push_and_pop_in_time_order(queue):
    fired = []
    queue.push(5.0, lambda: fired.append("b"), label="b")
    queue.push(1.0, lambda: fired.append("a"), label="a")
    queue.push(9.0, lambda: fired.append("c"), label="c")
    order = []
    while queue:
        order.append(queue.pop().label)
    assert order == ["a", "b", "c"]


def test_equal_times_fire_in_scheduling_order(queue):
    for name in ("first", "second", "third"):
        queue.push(2.0, lambda: None, label=name)
    assert [queue.pop().label for _ in range(3)] == ["first", "second", "third"]


def test_len_counts_live_events(queue):
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    first.cancel()
    assert len(queue) == 1


def test_cancelled_event_is_skipped_by_pop(queue):
    doomed = queue.push(1.0, lambda: None, label="doomed")
    queue.push(2.0, lambda: None, label="live")
    doomed.cancel()
    assert queue.pop().label == "live"
    assert queue.pop() is None


def test_cancel_twice_is_idempotent(queue):
    event = queue.push(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert len(queue) == 0


def test_cancel_after_pop_leaves_live_count_alone(queue):
    fired = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is fired
    fired.cancel()  # e.g. a periodic task cancelled from its own callback
    assert len(queue) == 1
    assert queue.pop().time == 2.0


def test_peek_time_skips_cancelled_head(queue):
    head = queue.push(1.0, lambda: None)
    queue.push(3.0, lambda: None)
    head.cancel()
    assert queue.peek_time() == 3.0


def test_peek_time_empty_returns_none(queue):
    assert queue.peek_time() is None


def test_push_none_callback_rejected(queue):
    with pytest.raises(SchedulingError):
        queue.push(1.0, None)


def test_clear_empties_queue(queue):
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert not queue
    assert queue.pop() is None


def test_cancelled_flag_exposed(queue):
    event = queue.push(1.0, lambda: None)
    assert not event.cancelled
    event.cancel()
    assert event.cancelled


def test_pushes_odometer_counts_lifetime_schedules(queue):
    queue.push(1.0, lambda: None)
    doomed = queue.push(2.0, lambda: None)
    doomed.cancel()
    queue.pop()
    assert queue.pushes == 2


def test_reentrant_push_at_current_time_fires_after_peers(queue):
    # A push at the *current* timestamp from a callback must still fire
    # this tick, after already-scheduled peers.
    fired = []
    queue.push(10.0, lambda: queue.push(10.0, lambda: fired.append("child"), label="child"))
    queue.push(10.0, lambda: fired.append("sibling"), label="sibling")
    queue.push(20.0, lambda: fired.append("later"), label="later")
    while queue:
        queue.pop().callback()
    assert fired == ["sibling", "child", "later"]


# ----------------------------------------------------------------------
# Lazy-cancel compaction
# ----------------------------------------------------------------------
def _fire_order(events):
    return [event.label for event in sorted(events, key=lambda e: (e.time, e.seq))]


@pytest.mark.parametrize("queue_cls", QUEUES, ids=["heap"])
def test_compaction_reclaims_cancelled_entries(queue_cls):
    queue = queue_cls()
    events = [queue.push(float(i % 7), lambda: None, label=str(i)) for i in range(400)]
    for event in events[:300]:
        event.cancel()
    # Compaction keeps storage proportional to the live set (it fires
    # whenever more than half the stored entries are dead), so the 300
    # cancelled entries cannot all still be resident.
    assert len(queue) == 100
    assert len(queue._heap) <= 2 * len(queue)
    order = []
    while queue:
        order.append(queue.pop().label)
    assert order == _fire_order(events[300:])


@pytest.mark.parametrize("queue_cls", QUEUES, ids=["heap"])
def test_small_queues_skip_compaction(queue_cls):
    queue = queue_cls()
    events = [queue.push(float(i), lambda: None) for i in range(COMPACT_MIN_ENTRIES // 2)]
    for event in events:
        event.cancel()
    # Below the compaction floor the dead entries stay until popped over.
    assert len(queue) == 0
    assert queue.pop() is None


def test_compaction_mid_drain_preserves_order(queue):
    events = [queue.push(float(i % 30), lambda: None, label=str(i)) for i in range(300)]
    # Consume a prefix, then cancel enough to trigger a rebuild
    # mid-drain.
    popped = [queue.pop().label for _ in range(5)]
    survivors = [event for event in events if event.label not in popped]
    for event in survivors[:250]:
        event.cancel()
    expected = _fire_order(survivors[250:])
    drained = []
    while queue:
        drained.append(queue.pop().label)
    assert drained == expected


# ----------------------------------------------------------------------
# Property-style fire order against a list-scan reference
# ----------------------------------------------------------------------
class _ReferenceQueue:
    """List-scan reference: pops the live entry with the least (time, seq)."""

    def __init__(self):
        self._entries = []
        self._seq = 0

    def __bool__(self):
        return any(not event.cancelled for event in self._entries)

    def push(self, time, callback, label=""):
        event = _ReferenceEvent(time, self._seq, callback, label)
        self._seq += 1
        self._entries.append(event)
        return event

    def pop(self):
        live = [event for event in self._entries if not event.cancelled]
        if not live:
            return None
        event = min(live, key=lambda e: (e.time, e.seq))
        self._entries.remove(event)
        return event


class _ReferenceEvent:
    def __init__(self, time, seq, callback, label):
        self.time, self.seq, self.callback, self.label = time, seq, callback, label
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self.callback = None


def _drive(queue, seed, steps=600):
    """Run a seeded op mix against *queue*; return the fire order.

    The mix covers the contract's hard cases: dense same-timestamp
    ties, cancels of pending events, and re-entrant pushes from
    callbacks (including pushes at the firing timestamp itself).
    """
    rng = random.Random(seed)
    fired = []
    pending = []
    label_counter = [0]

    def schedule(time):
        label_counter[0] += 1
        label = f"e{label_counter[0]}"

        def callback():
            fired.append(label)
            # Re-entrant scheduling: same tick, near future, and far
            # future, each with a small probability.
            roll = rng.random()
            if roll < 0.15:
                schedule(time)  # same-timestamp child
            elif roll < 0.30:
                schedule(time + rng.choice([0.0, 0.5, 7.0, 61.0]))

        pending.append(queue.push(time, callback, label=label))

    for _ in range(steps):
        action = rng.random()
        if action < 0.55 or not queue:
            # Cluster times so same-timestamp ties are common.
            schedule(float(rng.randrange(0, 50)) * 2.5)
        elif action < 0.75 and pending:
            rng.choice(pending).cancel()
        else:
            event = queue.pop()
            if event is not None and event.callback is not None:
                event.callback()
    while queue:
        event = queue.pop()
        if event is not None and event.callback is not None:
            event.callback()
    return fired


@pytest.mark.parametrize("seed", range(8))
def test_fire_order_matches_sorted_reference(seed):
    assert _drive(EventQueue(), seed) == _drive(_ReferenceQueue(), seed)
