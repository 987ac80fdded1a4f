"""Property tests for the pluggable quantile-summary backends.

Two contracts are pinned here:

* **Agreement** — on identical (untruncated) data, the sketch's quantiles
  land within its documented relative-error bound of the reservoir's: the
  sketch returns a log-bucket midpoint within ``alpha`` of the true
  rank-``floor(q*(n-1))`` order statistic, while the reservoir interpolates
  between the two ranks adjacent to ``q*(n-1)`` — so the sketch value must
  fall within ``alpha`` (relative) of the envelope spanned by the order
  statistics one rank either side of the target.
* **Merge-order invariance** — the sketch accumulates integer bucket counts,
  so merging the same parts in any order yields *exactly* the same
  quantiles, not merely close ones.  (A reservoir cannot promise this once
  truncated.)
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SUMMARY_BACKENDS, QuantileSketch, make_summary
from repro.sim.stats import DEFAULT_SKETCH_ALPHA, Histogram

QUANTILES = (0.50, 0.95, 0.99)

#: Positive magnitudes well clear of the sketch's zero-collapse threshold.
values_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=300)


def _rank_envelope(ordered, q):
    """The order statistics one rank either side of the ``q`` target rank."""
    position = q * (len(ordered) - 1)
    lower = max(0, math.floor(position) - 1)
    upper = min(len(ordered) - 1, math.ceil(position) + 1)
    return ordered[lower], ordered[upper]


@settings(max_examples=60, deadline=None)
@given(values=values_strategy)
def test_sketch_quantiles_agree_with_reservoir_within_alpha(values):
    reservoir = Histogram()
    sketch = QuantileSketch()
    for value in values:
        reservoir.add(value)
        sketch.add(value)
    assert sketch.count == reservoir.count == len(values)
    assert math.isclose(sketch.total, reservoir.total, rel_tol=1e-12)

    ordered = sorted(values)
    alpha = DEFAULT_SKETCH_ALPHA
    for q in QUANTILES:
        estimate = sketch.percentile(q)
        low, high = _rank_envelope(ordered, q)
        assert low * (1.0 - 2 * alpha) <= estimate <= high * (1.0 + 2 * alpha), (
            q, estimate, low, high)
        # The reservoir interpolates inside the same envelope, so the two
        # backends agree within the documented bound on untruncated data.
        # (ulp slack: (1-f)*lo + f*hi can round one ulp past hi.)
        exact = reservoir.percentile(q)
        assert low * (1.0 - 1e-12) <= exact <= high * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(values=values_strategy, seed=st.integers(min_value=0, max_value=2**16),
       shards=st.integers(min_value=2, max_value=5))
def test_sketch_merge_is_exactly_order_invariant(values, seed, shards):
    import random

    parts = [QuantileSketch() for _ in range(shards)]
    for index, value in enumerate(values):
        parts[index % shards].add(value)

    def merged(order):
        out = QuantileSketch()
        for index in order:
            out.merge(parts[index])
        return out

    forward = merged(range(shards))
    shuffled_order = list(range(shards))
    random.Random(seed).shuffle(shuffled_order)
    shuffled = merged(shuffled_order)

    assert forward.count == shuffled.count == len(values)
    assert forward.buckets == shuffled.buckets
    for q in QUANTILES:
        # Integer bucket counts merge associatively and commutatively: the
        # quantiles are bit-equal, not merely within tolerance.
        assert forward.percentile(q) == shuffled.percentile(q)


def test_make_summary_builds_every_registered_backend():
    for name, cls in SUMMARY_BACKENDS.items():
        summary = make_summary(name)
        assert type(summary) is cls
        summary.add(1.0)
        summary.add(3.0)
        assert summary.count == 2
        assert summary.as_dict()["mean"] == 2.0
