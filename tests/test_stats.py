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


def test_merge_combines_everything():
    a, b = StatsRegistry(), StatsRegistry()
    a.add("x", 1)
    b.add("x", 2)
    b.observe("h", 5.0)
    b.set_gauge("g", 7)
    a.merge(b)
    assert a.counter("x") == 3
    assert a.histogram("h").count == 1
    assert a.gauge("g") == 7


def test_histogram_percentile_and_bounds():
    hist = Histogram()
    for v in range(1, 101):
        hist.add(float(v))
    assert hist.minimum == 1
    assert hist.maximum == 100
    assert hist.percentile(0.5) == pytest.approx(50, abs=2)
    with pytest.raises(ValueError):
        hist.percentile(1.5)
    with pytest.raises(ValueError):
        hist.percentile(-0.1)


def test_percentile_linear_interpolation_even_population():
    hist = Histogram()
    for v in range(1, 101):        # 100 samples: 1..100
        hist.add(float(v))
    assert hist.percentile(0.0) == 1.0
    assert hist.percentile(1.0) == 100.0
    assert hist.percentile(0.5) == pytest.approx(50.5)
    assert hist.percentile(0.95) == pytest.approx(95.05)
    assert hist.percentile(0.99) == pytest.approx(99.01)


def test_percentile_linear_interpolation_odd_population():
    hist = Histogram()
    for v in range(1, 102):        # 101 samples: 1..101
        hist.add(float(v))
    # Exact ranks: no banker's-rounding flip between even and odd sizes.
    assert hist.percentile(0.5) == 51.0
    assert hist.percentile(0.95) == pytest.approx(96.0)
    assert hist.percentile(0.99) == pytest.approx(100.0)


def test_percentile_two_samples_interpolates():
    hist = Histogram()
    hist.add(10.0)
    hist.add(20.0)
    assert hist.percentile(0.5) == pytest.approx(15.0)
    assert hist.percentile(0.25) == pytest.approx(12.5)


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
    slack = 1e-9 * max(1.0, abs(hist.minimum), abs(hist.maximum))
    assert hist.minimum - slack <= hist.mean <= hist.maximum + slack
    assert hist.total == pytest.approx(math.fsum(values), rel=1e-9, abs=1e-6)


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


def test_counter_handles_bind_a_prefix_in_one_call():
    stats = StatsRegistry()
    stats.add("bank.row_hit", 4)
    existing = stats.counter_handle("bank.accesses")
    hit, accesses, miss = stats.counter_handles("bank", ("row_hit", "accesses", "row_miss"))
    assert hit.value == 4                          # string-keyed value migrates
    assert accesses is existing                    # one cell per name
    assert stats.counter_handle("bank.row_miss") is miss
    miss.value += 1
    assert stats.counters("bank.") == {"bank.row_hit": 4, "bank.row_miss": 1}


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


def test_merge_sees_bound_handles():
    a, b = StatsRegistry(), StatsRegistry()
    b.counter_handle("x").value += 5
    a.counter_handle("x").value += 1
    a.merge(b)
    assert a.counter("x") == 6


# -- histogram retained-sample cap ----------------------------------------------

def test_histogram_sample_cap_keeps_summary_exact():
    hist = Histogram(max_samples=10)
    for v in range(100):
        hist.add(float(v))
    assert hist.count == 100
    assert hist.total == sum(range(100))
    assert hist.minimum == 0 and hist.maximum == 99
    assert hist.mean == pytest.approx(49.5)
    assert len(hist.samples) == 10
    assert hist.truncated


def test_histogram_below_cap_is_not_truncated():
    hist = Histogram(max_samples=10)
    for v in range(10):
        hist.add(float(v))
    assert not hist.truncated
    assert hist.percentile(1.0) == 9.0


def test_histogram_merge_respects_cap():
    a = Histogram(max_samples=5)
    b = Histogram(max_samples=5)
    for v in range(4):
        a.add(float(v))
        b.add(float(10 + v))
    a.merge(b)
    assert a.count == 8
    assert len(a.samples) <= 5
    assert a.truncated
    assert a.maximum == 13.0


def test_reservoir_keeps_a_spread_not_a_prefix():
    """Truncation must not keep only the first max_samples observations."""
    hist = Histogram(max_samples=50)
    for v in range(1000):
        hist.add(float(v))
    assert hist.truncated
    assert len(hist.samples) == 50
    assert set(hist.samples) <= {float(v) for v in range(1000)}
    # A first-N prefix would top out at 49; the reservoir sees late values too.
    assert max(hist.samples) > 900
    assert hist.count == 1000 and hist.mean == pytest.approx(499.5)


def test_reservoir_is_deterministic():
    a, b = Histogram(max_samples=16), Histogram(max_samples=16)
    for v in range(500):
        a.add(float(v))
        b.add(float(v))
    assert a.samples == b.samples


def test_reservoir_merge_sees_both_sides():
    a = Histogram(max_samples=8)
    b = Histogram(max_samples=8)
    for v in range(8):
        a.add(float(v))
        b.add(float(100 + v))
    a.merge(b)
    assert a.count == 16
    assert len(a.samples) == 8
    assert a.truncated
    # The merged reservoir retains observations from both populations.
    assert any(v >= 100 for v in a.samples)
    assert any(v < 100 for v in a.samples)


#: Marker for a registry read inside a value stream.
_READ = "read"


def _summary(hist):
    return (hist.count, hist.total, hist.minimum, hist.maximum, list(hist.samples),
            hist._seen, hist.truncated)


@settings(max_examples=200, deadline=None)
@given(stream=st.lists(st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.just(_READ)),
                       max_size=60),
       cap=st.integers(1, 8))
def test_appended_samples_fold_like_per_value_add(stream, cap):
    """A hot writer appends below the cap and folds on read; past the cap it
    folds and falls back to add().  Every field must equal one add() per
    value, at every read and at the end, as the cap is crossed."""
    reference = Histogram(max_samples=cap)
    part = Histogram(max_samples=cap)
    folded = FoldedHistogram()
    folded.attach(part)
    for item in stream:
        if item == _READ:
            folded.flush()
            assert _summary(part) == _summary(reference)
            assert (folded.count, folded.total, folded.samples) == \
                (reference.count, reference.total, reference.samples)
            continue
        reference.add(item)
        if len(part.samples) < part.max_samples:
            part.samples.append(item)
        else:
            part.fold_appended()
            part.add(item)
    folded.flush()
    assert _summary(part) == _summary(reference)
