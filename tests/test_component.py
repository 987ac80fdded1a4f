"""Unit tests for Component and the SharedResource contention primitive."""

import pytest

from repro.sim import Component, SharedResource, Simulator


def test_component_requires_name(sim):
    with pytest.raises(ValueError):
        Component(sim, "")


class _Widget(Component):
    COUNTERS = (("hits", "_n_hits"),)
    GAUGES = (("level", "level"),)
    HISTOGRAMS = (("lat", "_lat_count", "_lat_total"),)

    def __init__(self, sim):
        super().__init__(sim, "widget")
        self._n_hits = 0
        self.level = 0.0
        self._lat_count = 0
        self._lat_total = 0.0


def test_component_stats_shortcuts(sim):
    """A component registers at construction and publishes the attributes
    its class declares under ``<name>.<stat>``."""
    comp = _Widget(sim)
    comp._n_hits += 1
    comp._n_hits += 2
    comp._lat_count += 1
    comp._lat_total += 5.0
    comp.level = 3.0
    assert sim.stats.counter("widget.hits") == 3
    assert sim.stats.histogram("widget.lat").mean == 5.0
    assert sim.stats.snapshot() == {"widget.hits": 3.0, "widget.level": 3.0,
                                    "widget.lat.mean": 5.0, "widget.lat.count": 1.0}
    with pytest.raises(ValueError, match="widget"):
        Component(sim, "widget")


def test_shared_resource_serializes_requests(sim):
    res = SharedResource(sim, "bus")
    s1, f1 = res.reserve(10)
    s2, f2 = res.reserve(10)
    assert (s1, f1) == (0, 10)
    assert (s2, f2) == (10, 20)
    # Queueing wait is recorded.
    assert sim.stats.counter("bus.queue_wait_cycles") == 10


def test_shared_resource_idle_gap(sim):
    res = SharedResource(sim, "bus")
    res.reserve(5)
    start, finish = res.reserve(5, earliest=100)
    assert start == 100
    assert finish == 105


def test_shared_resource_rejects_negative_occupancy(sim):
    res = SharedResource(sim, "bus")
    with pytest.raises(ValueError):
        res.reserve(-1)


def test_utilization_is_bounded(sim):
    res = SharedResource(sim, "bus")
    res.reserve(10)
    sim.schedule(20, lambda: None)
    sim.run_until_idle()
    assert 0.0 <= sim.stats.counter("bus.busy_cycles") / sim.now <= 1.0
