"""Unit tests for the binary-heap event scheduler.

The tests keep a one-value ``heap`` parametrisation so their IDs read
``[heap]``, as they did when a second scheduler backend ran beside it.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sim.event_queue import EventQueue

BACKENDS = ["heap"]


@pytest.fixture(params=BACKENDS)
def queue(request):
    return EventQueue()


def test_push_pop_orders_by_time(queue):
    order = []
    queue.push(5.0, lambda: order.append("b"))
    queue.push(1.0, lambda: order.append("a"))
    queue.push(9.0, lambda: order.append("c"))
    while queue:
        queue.pop()[2]()
    assert order == ["a", "b", "c"]


def test_same_time_preserves_insertion_order(queue):
    order = []
    for i in range(10):
        queue.push(4.0, lambda i=i: order.append(i))
    while queue:
        queue.pop()[2]()
    assert order == list(range(10))


def test_negative_time_rejected(queue):
    with pytest.raises(ValueError):
        queue.push(-1.0, lambda: None)
    with pytest.raises(ValueError):
        queue.push_handle(-1.0, lambda: None)


def test_push_returns_nothing_on_fast_path(queue):
    assert queue.push(1.0, lambda: None) is None


def test_cancelled_events_are_skipped(queue):
    fired = []
    handle = queue.push_handle(1.0, lambda: fired.append("cancelled"))
    queue.push(2.0, lambda: fired.append("kept"))
    assert not handle.cancelled
    handle.cancel()
    assert handle.cancelled
    assert len(queue) == 1
    popped = []
    while queue:
        entry = queue.pop()
        popped.append(entry)
        entry[2]()
    assert fired == ["kept"]
    assert len(popped) == 1


def test_cancel_is_idempotent_and_safe_after_fire(queue):
    fired = []
    handle = queue.push_handle(1.0, lambda: fired.append("ran"))
    handle.cancel()
    handle.cancel()  # double cancel must not corrupt the live count
    assert len(queue) == 0

    other = queue.push_handle(2.0, lambda: fired.append("other"))
    queue.pop()[2]()
    other.cancel()  # cancelling after the event fired is a no-op
    assert fired == ["other"]
    assert len(queue) == 0


def test_handle_reports_time(queue):
    handle = queue.push_handle(3.5, lambda: None)
    assert handle.time == 3.5


def test_peek_time_and_len(queue):
    assert queue.peek_time() is None
    assert len(queue) == 0
    queue.push(3.0, lambda: None)
    queue.push(1.5, lambda: None)
    assert queue.peek_time() == 1.5
    assert len(queue) == 2
    queue.clear()
    assert len(queue) == 0
    assert not queue


def test_peek_time_skips_cancelled_head(queue):
    head = queue.push_handle(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    head.cancel()
    assert queue.peek_time() == 2.0
    assert len(queue) == 1


def test_pop_empty_returns_none(queue):
    assert queue.pop() is None


def test_pop_does_not_share_the_live_entry(queue):
    """pop() hands back a fresh entry; the stored one is nulled so a late
    handle cancel cannot corrupt the returned callback."""
    handle = queue.push_handle(1.0, lambda: None)
    entry = queue.pop()
    assert entry[2] is not None
    handle.cancel()          # fires after the pop: must be a no-op
    assert entry[2] is not None
    assert len(queue) == 0


def test_cancel_after_clear_is_safe(queue):
    handle = queue.push_handle(1.0, lambda: None)
    queue.clear()
    handle.cancel()          # must not corrupt the live count
    assert len(queue) == 0
    queue.push(2.0, lambda: None)
    assert len(queue) == 1
    assert queue


def test_push_behind_a_popped_time_still_pops_in_order(queue):
    """The raw queue API allows pushing earlier than the last popped time;
    the queue must keep returning the global minimum."""
    queue.push(100.0, lambda: None)
    queue.push(500.0, lambda: None)
    assert queue.pop()[0] == 100.0
    queue.push(1.0, lambda: None)        # far behind the last pop
    queue.push(200.0, lambda: None)
    assert [queue.pop()[0] for _ in range(3)] == [1.0, 200.0, 500.0]


@pytest.mark.parametrize("backend", BACKENDS)
@given(st.lists(st.floats(min_value=0, max_value=1e7, allow_nan=False),
                min_size=1, max_size=200))
def test_pop_order_is_always_nondecreasing(backend, times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while q:
        popped.append(q.pop()[0])
    assert popped == sorted(popped)
    assert len(popped) == len(times)
