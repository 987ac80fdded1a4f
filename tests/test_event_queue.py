"""Unit tests for the simulator's binary-heap event scheduler.

The scheduler has no API of its own: events go in through
``Simulator.schedule``/``schedule_at`` and come out of ``Simulator.run``,
and ``Simulator.pending`` counts what is still queued.  The tests keep a
one-value ``heap`` parametrisation so their IDs read ``[heap]``, as they did
when a second scheduler backend ran beside it.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Simulator

BACKENDS = ["heap"]


@pytest.fixture(params=BACKENDS)
def sim(request):
    return Simulator()


def test_push_pop_orders_by_time(sim):
    order = []
    sim.schedule_at(5.0, lambda: order.append("b"))
    sim.schedule_at(1.0, lambda: order.append("a"))
    sim.schedule_at(9.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_preserves_insertion_order(sim):
    order = []
    for i in range(10):
        sim.schedule_at(4.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_negative_time_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule_at(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    assert sim.pending == 0


def test_peek_time_and_len(sim):
    """``pending`` counts queued events; a bounded run stops short of the
    earliest one beyond the horizon and leaves it queued."""
    assert sim.pending == 0
    sim.schedule_at(3.0, lambda: None)
    sim.schedule_at(1.5, lambda: None)
    assert sim.pending == 2
    sim.run(until=1.0)
    assert sim.pending == 2 and sim.now == 1.0
    sim.run(until=2.0)
    assert sim.pending == 1 and sim.executed_events == 1
    sim.run()
    assert sim.pending == 0 and sim.now == 3.0


def test_pop_empty_returns_none(sim):
    """Running an empty queue dispatches nothing and leaves time alone."""
    assert sim.run() == 0.0
    assert sim.run(until=10.0) == 0.0
    assert sim.executed_events == 0 and sim.finished


def test_push_behind_a_popped_time_still_pops_in_order(sim):
    """Events scheduled after a dispatch, earlier than ones already queued,
    still come out as the global minimum."""
    times = []
    sim.schedule_at(100.0, lambda: times.append(sim.now))
    sim.schedule_at(500.0, lambda: times.append(sim.now))
    sim.run(max_events=1)
    assert times == [100.0]
    sim.schedule(1.0, lambda: times.append(sim.now))
    sim.schedule_at(200.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [100.0, 101.0, 200.0, 500.0]


@pytest.mark.parametrize("backend", BACKENDS)
@given(st.lists(st.floats(min_value=0, max_value=1e7, allow_nan=False),
                min_size=1, max_size=200))
def test_pop_order_is_always_nondecreasing(backend, times):
    sim = Simulator()
    popped = []
    for t in times:
        sim.schedule_at(t, lambda: popped.append(sim.now))
    assert sim.pending == len(times)
    sim.run()
    assert popped == sorted(times)
    assert sim.pending == 0
