"""Unit and property tests for the statistics registry."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import UpdateLatency
from repro.sim import Component, Histogram, Publisher, Simulator, StatsRegistry
from repro.sim.stats import geometric_mean


class _Counts(Publisher):
    """A publisher of plain attributes, declared per instance for the tests."""

    def __init__(self, stats, name, counters=(), gauges=(), histograms=(), **values):
        self.name = name
        self.COUNTERS = counters
        self.GAUGES = gauges
        self.HISTOGRAMS = histograms
        self.__dict__.update(values)
        stats.register(self)


def test_counters_and_prefix_sum():
    stats = StatsRegistry()
    cache = _Counts(stats, "cache", counters=(("l1_hits", "l1"), ("l2_hits", "l2")),
                    l1=0, l2=0)
    cache.l1 += 3
    cache.l1 += 2
    cache.l2 += 7
    assert stats.counter("cache.l1_hits") == 5
    assert sum(stats.counters("cache.").values()) == 12
    assert stats.counters("cache.") == {"cache.l1_hits": 5, "cache.l2_hits": 7}


def test_gauges():
    """A gauge is published as stored, in the snapshot only, and a level of
    zero is invisible."""
    stats = StatsRegistry()
    table = _Counts(stats, "table", gauges=(("peak", "peak"),), peak=0)
    assert stats.snapshot() == {}
    table.peak = 4
    table.peak = 9
    assert stats.snapshot() == {"table.peak": 9}
    assert type(stats.snapshot()["table.peak"]) is int
    assert stats.counters() == {}


def test_histograms_and_snapshot():
    stats = StatsRegistry()
    lat = _Counts(stats, "lat", histograms=(("x", "count", "total"),), count=0, total=0.0)
    assert stats.histogram("lat.x") == Histogram(0, 0.0)
    assert stats.histogram("lat.missing") is None
    assert stats.snapshot() == {}
    for v in (1.0, 2.0, 3.0):
        lat.count += 1
        lat.total += v
    hist = stats.histogram("lat.x")
    assert hist.count == 3
    assert hist.mean == pytest.approx(2.0)
    snap = stats.snapshot()
    assert snap["lat.x.mean"] == pytest.approx(2.0)
    assert snap["lat.x.count"] == 3


def test_geometric_mean_basics():
    assert geometric_mean([]) == 0.0
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


@given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50))
def test_geometric_mean_between_min_and_max(values):
    gm = geometric_mean(values)
    slack = 1e-9 * max(1.0, max(values))
    assert min(values) - slack <= gm <= max(values) + slack


def _histogram_of(values):
    """A writer's running count and total, read back through the registry."""
    stats = StatsRegistry()
    writer = _Counts(stats, "w", histograms=(("lat", "count", "total"),),
                     count=0, total=0.0)
    for v in values:
        writer.count += 1
        writer.total += v
    return stats.histogram("w.lat")


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200))
def test_histogram_mean_is_bounded(values):
    hist = _histogram_of(values)
    assert hist.count == len(values)
    slack = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
    assert min(values) - slack <= hist.mean <= max(values) + slack
    assert hist.total == pytest.approx(math.fsum(values), rel=1e-9, abs=1e-6)


def test_histogram_sample_cap_keeps_summary_exact():
    """Past the 65,536 samples that histograms once retained, the summary is
    still exact and no sample is kept: count and total are the whole state."""
    hist = _histogram_of(float(v) for v in range(70_000))
    assert hist.count == 70_000
    assert hist.total == sum(range(70_000))
    assert hist.mean == pytest.approx(34_999.5)
    assert Histogram._fields == ("count", "total")


# -- plain attributes (the one storage form) -------------------------------------

def test_counter_handle_visible_through_string_api():
    """Hot code bumps a plain attribute; every reader sees it by name."""
    stats = StatsRegistry()
    net = _Counts(stats, "net", counters=(("hops", "_n_hops"),), _n_hops=0)
    net._n_hops += 3
    net._n_hops += 2
    assert stats.counter("net.hops") == 5
    assert stats.counters("net.") == {"net.hops": 5}
    assert stats.snapshot()["net.hops"] == 5


def test_counter_handle_migrates_existing_value():
    """A value lives in one place, the publisher's attribute: reads are
    derived from it at read time and never copy it anywhere."""
    stats = StatsRegistry()
    x = _Counts(stats, "x", counters=(("n", "n"),), n=4)
    assert stats.counter("x.n") == 4
    x.n += 1
    assert stats.counter("x.n") == 5
    x.n += 2
    assert stats.counters() == {"x.n": 7}
    assert x.n == 7


def test_counter_handle_equivalent_to_string_counters():
    """The same increment sequence kept as plain attributes and as one dict
    family publishes identical names and values."""
    attributes, family = StatsRegistry(), StatsRegistry()
    plain = _Counts(attributes, "a", counters=(("b", "b"), ("c", "c")), b=0.0, c=0.0)
    keyed = _Counts(family, "a", counters=(("", "by_key"),), by_key={})
    amounts = [1.0, 0.5, 3.25, 7.0, 0.125]
    for amount in amounts:
        plain.b += amount
        plain.c += 2 * amount
        keyed.by_key["b"] = keyed.by_key.get("b", 0.0) + amount
        keyed.by_key["c"] = keyed.by_key.get("c", 0.0) + 2 * amount
    assert list(attributes.counters("a.").items()) == list(family.counters("a.").items())
    assert attributes.snapshot() == family.snapshot()


def test_unused_handle_is_invisible_like_a_missing_counter():
    stats = StatsRegistry()
    _Counts(stats, "never", counters=(("touched", "n"), ("family.", "d")), n=0, d={"k": 0})
    assert stats.counters() == {}
    assert "never.touched" not in stats.snapshot()
    assert stats.counter("never.touched") == 0.0
    assert stats.counter("never.family.k") == 0.0


class _Bank(Publisher):
    """A slotted publisher, as DRAM banks and HMC vaults are."""

    COUNTERS = (("row_hit", "_n_row_hit"), ("accesses", "_n_accesses"),
                ("tsv.busy_cycles", "_n_busy"))

    __slots__ = ("name", "_n_row_hit", "_n_accesses", "_n_busy")

    def __init__(self, stats, name):
        self.name = name
        self._n_row_hit = 0
        self._n_accesses = 0
        self._n_busy = 0.0
        stats.register(self)


def test_counter_group_visible_through_string_api():
    stats = StatsRegistry()
    early = _Counts(stats, "early", counters=(("n", "n"),), n=0)
    bank = _Bank(stats, "bank")
    late = _Counts(stats, "late", counters=(("n", "n"),), n=0)
    bank._n_row_hit += 4
    bank._n_busy += 2.5
    bank._n_accesses += 3
    late.n += 1
    early.n += 1
    assert not hasattr(bank, "__dict__")
    assert stats.counter("bank.tsv.busy_cycles") == 2.5
    assert stats.counter("bank.accesses") == 3
    assert stats.counter("bank.missing") == 0.0
    assert stats.counter("bank") == 0.0
    # Readers walk the publishers in registration order.
    assert list(stats.counters().items()) == [
        ("early.n", 1), ("bank.row_hit", 4), ("bank.accesses", 3),
        ("bank.tsv.busy_cycles", 2.5), ("late.n", 1)]
    assert sum(stats.counters("bank.").values()) == 9.5
    assert stats.snapshot()["bank.row_hit"] == 4


def test_zero_group_totals_are_invisible_like_untouched_handles():
    stats = StatsRegistry()
    _Bank(stats, "bank")
    assert stats.counters() == {}
    assert stats.snapshot() == {}


def test_counter_handles_bind_a_prefix_in_one_call():
    """One ``register`` call publishes every ``<prefix>.<stat>`` of a
    publisher; a sibling whose name only shares the prefix's characters
    stays separate, and a publisher named under another's name
    (``bank.tsv``) keeps its own names."""
    stats = StatsRegistry()
    bank = _Bank(stats, "bank")
    sibling = _Bank(stats, "bankx")
    nested = _Bank(stats, "bank.tsv")
    bank._n_row_hit += 5
    bank._n_accesses += 1
    bank._n_busy += 1.5
    sibling._n_row_hit += 9
    nested._n_accesses += 2
    assert stats.counters("bank.") == {
        "bank.row_hit": 5, "bank.accesses": 1, "bank.tsv.busy_cycles": 1.5,
        "bank.tsv.accesses": 2}
    assert stats.counter("bankx.row_hit") == 9
    assert stats.counter("bank.tsv.accesses") == 2
    assert stats.counter("bank.tsv.busy_cycles") == 1.5
    assert sum(stats.counters("bank").values()) == 18.5


def test_register_rejects_a_duplicate_name():
    """Two publishers with one name would overwrite each other's names in
    every read, so the second registration fails and names the first."""
    sim = Simulator()
    Component(sim, "widget")
    with pytest.raises(ValueError, match="'widget'"):
        Component(sim, "widget")
    stats = StatsRegistry()
    _Bank(stats, "hmc.cube0.vault0.bank3")
    with pytest.raises(ValueError, match="hmc.cube0.vault0.bank3"):
        _Bank(stats, "hmc.cube0.vault0.bank3")


#: Marker for a registry read inside a value stream.
_READ = "read"


class _Engine:
    """An engine's running round-trip count and totals."""

    def __init__(self):
        self._latency_count = 0
        for part in ("request", "stall", "response", "total"):
            setattr(self, f"_latency_{part}", 0.0)


@settings(max_examples=200, deadline=None)
@given(stream=st.lists(st.one_of(st.tuples(st.integers(0, 2),
                                           st.floats(-1e6, 1e6, allow_nan=False)),
                                 st.just(_READ)),
                       max_size=60))
def test_appended_samples_fold_like_per_value_add(stream):
    """Three engines add each sample to their own running count and total;
    the ``ar.update_latency`` histogram equals one eager add per sample into
    a per-engine reference, summed in engine order, at every read and at
    the end."""
    sim = Simulator()
    engines = [_Engine() for _ in range(3)]
    UpdateLatency(sim, engines)
    references = [[0, 0.0] for _ in engines]

    def check():
        count, total = 0, 0.0
        for reference in references:
            count += reference[0]
            total += reference[1]
        assert sim.stats.histogram("ar.update_latency.stall") == (count, total)

    for item in stream:
        if item == _READ:
            check()
            continue
        index, value = item
        engines[index]._latency_count += 1
        engines[index]._latency_stall += value
        references[index][0] += 1
        references[index][1] += value
    check()
