"""Unit tests for the simulator driver.

Execution-behavior tests keep a one-value ``heap`` parametrisation so their
IDs read ``[heap]``, as they did when a second scheduler backend ran beside
the binary heap.
"""

import pytest

from repro.sim import SimulationError, Simulator

BACKENDS = ["heap"]


@pytest.fixture(params=BACKENDS)
def sim(request):
    return Simulator()


def test_schedule_and_run_advances_time(sim):
    seen = []
    sim.schedule(10, lambda: seen.append(sim.now))
    sim.schedule(5, lambda: seen.append(sim.now))
    end = sim.run_until_idle()
    assert seen == [5, 10]
    assert end == 10
    assert sim.finished


def test_schedule_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1, lambda: None)


def test_run_until_bound(sim):
    fired = []
    sim.schedule(3, lambda: fired.append(3))
    sim.schedule(100, lambda: fired.append(100))
    sim.run(until=10)
    assert fired == [3]
    assert sim.now == 10
    sim.run()
    assert fired == [3, 100]


def test_finished_updates_on_bounded_runs(sim):
    """run(until=...) must refresh `finished` on its early exit path, not
    leave the previous run's answer behind."""
    sim.schedule(5, lambda: None)
    sim.run_until_idle()
    assert sim.finished
    sim.schedule(100, lambda: None)
    sim.run(until=10)
    assert not sim.finished          # the cycle-100 event is still pending
    sim.run(until=50)
    assert not sim.finished          # still pending after another bounded run
    sim.run()
    assert sim.finished
    # A zero event budget dispatches nothing, with or without a horizon, and
    # still refreshes `finished`; a negative budget is rejected.
    start = sim.now
    fired = []
    sim.schedule(1, lambda: fired.append(1))
    sim.schedule(2, lambda: fired.append(2))
    for until in (None, start + 5):
        assert sim.run(until=until, max_events=0) == start
        assert not sim.finished
        with pytest.raises(ValueError, match="max_events"):
            sim.run(until=until, max_events=-1)
    assert fired == [] and sim.now == start and sim.executed_events == 2
    sim.run(max_events=1)
    assert fired == [1] and sim.now == start + 1 and not sim.finished
    sim.run()
    assert sim.run(max_events=0) == start + 2 and sim.finished


def test_finished_updates_when_a_callback_raises(sim):
    """An exception escaping a callback must not leave `finished` reporting
    the previous run's outcome (regression: it was only set on the normal
    exit path)."""
    sim.schedule(1, lambda: None)
    sim.run_until_idle()
    assert sim.finished

    def boom():
        raise RuntimeError("boom")

    sim.schedule(5, boom)
    sim.schedule(10, lambda: None)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert not sim.finished          # the cycle-10 event is still pending
    assert sim.executed_events == 2  # the raising event still counted
    sim.run()                        # the queue is still consistent
    assert sim.finished


def test_finished_true_when_the_raising_event_was_the_last(sim):
    def boom():
        raise RuntimeError("boom")

    sim.schedule(5, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.finished              # nothing pending after the exception


def test_nested_scheduling(sim):
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(7, lambda: seen.append(("inner", sim.now)))

    sim.schedule(2, outer)
    sim.run_until_idle()
    assert seen == [("outer", 2), ("inner", 9)]


def test_run_until_idle_guards_against_runaway(sim):
    def rearm():
        sim.schedule(1, rearm)

    sim.schedule(1, rearm)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_seconds_conversion():
    sim = Simulator(cpu_freq_ghz=2.0)
    assert sim.seconds(2e9) == pytest.approx(1.0)


def test_invalid_frequency():
    with pytest.raises(ValueError):
        Simulator(cpu_freq_ghz=0)


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_backends_execute_identically(scheduler):
    """One seeded mixed workload of nested schedules, with same-cycle ties,
    must land on the same trace and final time in two independent
    simulators."""
    def replay():
        sim = Simulator()
        trace = []

        def spawner(depth):
            trace.append((sim.now, depth))
            if depth < 40:
                sim.schedule((depth * 7) % 13 + 0.25, lambda: spawner(depth + 1))
                sim.schedule((depth * 3) % 5 + 1, lambda: trace.append(("x", depth)))
                sim.schedule_at(sim.now + 1, lambda: trace.append(("y", depth)))

        sim.schedule(0.5, lambda: spawner(0))
        sim.run_until_idle()
        return sim, trace

    sim, trace = replay()
    reference_sim, reference = replay()
    assert len(trace) == 41 * 3 - 2
    assert trace == reference
    assert sim.now == reference_sim.now
    assert sim.executed_events == reference_sim.executed_events == len(trace)
