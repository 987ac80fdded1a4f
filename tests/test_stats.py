"""Unit and property tests for the statistics registry."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import FoldedHistogram, Histogram, StatsRegistry, geometric_mean


def test_counters_and_prefix_sum():
    stats = StatsRegistry()
    stats.add("cache.l1_hits", 3)
    stats.add("cache.l1_hits", 2)
    stats.add("cache.l2_hits", 7)
    assert stats.counter("cache.l1_hits") == 5
    assert stats.sum("cache.") == 12
    assert stats.counters("cache.") == {"cache.l1_hits": 5, "cache.l2_hits": 7}


def test_gauges():
    stats = StatsRegistry()
    stats.set_gauge("occupancy", 4)
    stats.set_gauge("occupancy", 9)
    assert stats.gauge("occupancy") == 9
    assert stats.gauge("missing", default=-1) == -1


def test_histograms_and_snapshot():
    stats = StatsRegistry()
    for v in (1.0, 2.0, 3.0):
        stats.observe("lat", v)
    hist = stats.histogram("lat")
    assert hist.count == 3
    assert hist.mean == pytest.approx(2.0)
    snap = stats.snapshot()
    assert snap["lat.mean"] == pytest.approx(2.0)
    assert snap["lat.count"] == 3


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


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200))
def test_histogram_mean_is_bounded(values):
    hist = Histogram()
    for v in values:
        hist.add(v)
    assert hist.count == len(values)
    slack = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
    assert min(values) - slack <= hist.mean <= max(values) + slack
    assert hist.total == pytest.approx(math.fsum(values), rel=1e-9, abs=1e-6)


def test_histogram_sample_cap_keeps_summary_exact():
    """Past the 65,536 samples that histograms once retained, the summary is
    still exact and no sample is kept: count and total are the whole state."""
    hist = Histogram()
    for v in range(70_000):
        hist.add(float(v))
    assert hist.count == 70_000
    assert hist.total == sum(range(70_000))
    assert hist.mean == pytest.approx(34_999.5)
    assert Histogram.__slots__ == ("count", "total")
    assert not hasattr(hist, "__dict__")


# -- bound counter handles (the hot-path fast path) -----------------------------

def test_counter_handle_visible_through_string_api():
    stats = StatsRegistry()
    handle = stats.counter_handle("net.hops")
    handle.value += 3
    handle.add(2)
    assert stats.counter("net.hops") == 5
    assert stats.counters("net.") == {"net.hops": 5}
    assert stats.sum("net.") == 5
    assert stats.snapshot()["net.hops"] == 5


def test_counter_handle_migrates_existing_value():
    stats = StatsRegistry()
    stats.add("x", 4)
    handle = stats.counter_handle("x")
    assert handle.value == 4
    handle.value += 1
    stats.add("x", 2)          # slow path routes into the bound cell
    assert stats.counter("x") == 7
    assert stats.counter_handle("x") is handle   # one cell per name


def test_counter_handle_equivalent_to_string_counters():
    """The same increment sequence through handles and through the string API
    must produce identical readbacks."""
    via_strings, via_handles = StatsRegistry(), StatsRegistry()
    amounts = [1.0, 0.5, 3.25, 7.0, 0.125]
    for amount in amounts:
        via_strings.add("a.b", amount)
        via_strings.add("a.c", 2 * amount)
    h_b = via_handles.counter_handle("a.b")
    h_c = via_handles.counter_handle("a.c")
    for amount in amounts:
        h_b.value += amount
        h_c.value += 2 * amount
    assert via_strings.counters("a.") == via_handles.counters("a.")
    assert via_strings.sum("a.") == via_handles.sum("a.")
    assert via_strings.snapshot() == via_handles.snapshot()


def test_unused_handle_is_invisible_like_a_missing_counter():
    stats = StatsRegistry()
    stats.counter_handle("never.touched")
    assert stats.counters() == {}
    assert "never.touched" not in stats.snapshot()
    assert stats.counter("never.touched") == 0.0


class _Group:
    """A counter group as banks and vaults are: a name, a stat tuple and one
    list of totals in stat order."""

    counter_stats = ("row_hit", "accesses", "tsv.busy_cycles")

    def __init__(self, name):
        self.name = name
        self.counter_totals = [0.0] * len(self.counter_stats)


def test_counter_group_visible_through_string_api():
    stats = StatsRegistry()
    stats.add("bank.row_hit", 4)
    before = stats.counter_handle("early")
    group = _Group("bank")
    stats.register_counter_group(group)
    after = stats.counter_handle("late")
    assert group.counter_totals == [4.0, 0.0, 0.0]   # string-keyed value migrates
    group.counter_totals[2] += 2.5
    stats.add("bank.accesses", 3)                    # slow path routes into the group
    before.value += 1
    after.value += 1
    assert stats.counter("bank.tsv.busy_cycles") == 2.5
    assert stats.counter("bank.accesses") == 3
    assert stats.counter("bank.missing") == 0.0
    assert stats.counter("bank") == 0.0
    # Readers walk handles and groups in binding order.
    assert list(stats.counters().items()) == [
        ("early", 1), ("bank.row_hit", 4), ("bank.accesses", 3),
        ("bank.tsv.busy_cycles", 2.5), ("late", 1)]
    assert stats.sum("bank.") == 9.5
    assert stats.snapshot()["bank.row_hit"] == 4


def test_zero_group_totals_are_invisible_like_untouched_handles():
    stats = StatsRegistry()
    stats.register_counter_group(_Group("bank"))
    assert stats.counters() == {}
    assert stats.snapshot() == {}


def test_counter_handles_bind_a_prefix_in_one_call():
    """One ``register_counter_group`` call binds every ``<prefix>.<stat>`` of
    a group, as banks and vaults publish theirs, and leaves sibling names that
    only share the prefix's characters on the string-keyed path."""
    stats = StatsRegistry()
    stats.add("bank.row_hit", 4)
    stats.add("bank.tsv.busy_cycles", 1.5)
    stats.add("bankx.row_hit", 9)
    group = _Group("bank")
    stats.register_counter_group(group)
    assert group.counter_totals == [4.0, 0.0, 1.5]   # string-keyed values migrate
    group.counter_totals[1] += 1
    stats.add("bank.row_hit", 1)                     # slow path routes into the group
    assert group.counter_totals == [5.0, 1.0, 1.5]
    assert stats.counters("bank.") == {
        "bank.row_hit": 5, "bank.accesses": 1, "bank.tsv.busy_cycles": 1.5}
    assert stats.counter("bankx.row_hit") == 9
    assert stats.sum("bank") == 16.5


#: Marker for a registry read inside a value stream.
_READ = "read"


class _Writer:
    """A hot writer's running count and total, as cores and engines keep."""

    def __init__(self):
        self.count = 0
        self.total = 0.0


@settings(max_examples=200, deadline=None)
@given(stream=st.lists(st.one_of(st.tuples(st.integers(0, 2),
                                           st.floats(-1e6, 1e6, allow_nan=False)),
                                 st.just(_READ)),
                       max_size=60))
def test_appended_samples_fold_like_per_value_add(stream):
    """Three writers add each sample to their own running count and total;
    the folded aggregate equals one ``add()`` per sample into a per-writer
    histogram, summed in attach order, at every read and at the end."""
    writers = [_Writer() for _ in range(3)]
    references = [Histogram() for _ in writers]
    folded = FoldedHistogram()
    for writer in writers:
        folded.attach(writer, "count", "total")

    def check():
        folded.flush()
        count, total = 0, 0.0
        for reference in references:
            count += reference.count
            total += reference.total
        assert (folded.count, folded.total) == (count, total)

    for item in stream:
        if item == _READ:
            check()
            continue
        index, value = item
        writers[index].count += 1
        writers[index].total += value
        references[index].add(value)
    check()
