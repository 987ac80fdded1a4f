"""Statistics primitives shared by every simulated component.

The registry is intentionally simple: counters (monotonic sums), scalar gauges,
and histograms with summary statistics.  Components register their stats under a
dotted name (``"network.link.cube3->cube7.bytes"``) so the experiment harness can
aggregate by prefix.

Counters have two access paths:

* the string-keyed slow path (:meth:`StatsRegistry.add`) used by cold code and
  by anything that only increments occasionally, and
* bound :class:`CounterHandle` cells (:meth:`StatsRegistry.counter_handle`)
  resolved once at component construction, gem5-style, so hot loops increment
  a plain attribute instead of hashing a dotted string per event.

Both paths are transparently visible to every reader (``counter()``,
``counters()``, ``sum()``, ``snapshot()``, ``merge()``).

Components that batch their hottest counters in plain local accumulators
(epoch-batched stats, e.g. :class:`~repro.network.link.Link`) register
themselves with :meth:`StatsRegistry.register_flushable`; every reader calls
:meth:`StatsRegistry.flush` first, which folds the pending accumulators into
the bound cells, so batching is invisible to the string API.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Default retained-sample cap for histograms (see :class:`Histogram`).
DEFAULT_HISTOGRAM_SAMPLES = 65_536

#: Fixed seed for the histogram sampling reservoirs: every run draws the same
#: pseudo-random replacement sequence, keeping simulations reproducible.
DEFAULT_RESERVOIR_SEED = 0x5EED


class CounterHandle:
    """A mutable counter cell bound to one registry name.

    Hot code increments ``handle.value`` directly; the owning registry reads
    the cell back whenever the counter is queried by name.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterHandle {self.name}={self.value}>"


@dataclass
class Histogram:
    """Streaming summary of a sample population (mean, min, max, percentiles).

    ``count``/``total``/``min``/``max`` (and therefore ``mean``) are always
    exact.  Retained samples are capped at ``max_samples`` so long simulations
    cannot grow memory without bound; once the cap is hit ``truncated`` is set
    and :meth:`percentile` becomes approximate.  Beyond the cap the retained
    set is maintained as a seeded reservoir (Algorithm R), so it stays a
    uniform sample of *every* observation instead of an early-simulation
    prefix, and the same observation sequence always keeps the same samples.
    """

    samples: List[float] = field(default_factory=list)
    keep_samples: bool = True
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    max_samples: Optional[int] = DEFAULT_HISTOGRAM_SAMPLES
    truncated: bool = False
    seed: int = DEFAULT_RESERVOIR_SEED
    #: Observations offered to the reservoir (>= len(samples); merge() replays
    #: the other side's retained samples, so this can be < count).
    _seen: int = field(default=0, repr=False, compare=False)
    _rng: Optional[random.Random] = field(default=None, repr=False, compare=False)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self.keep_samples:
            self._offer_sample(value)

    def _offer_sample(self, value: float) -> None:
        """Retain ``value`` outright below the cap, else reservoir-replace."""
        self._seen += 1
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append(value)
            return
        self.truncated = True
        if self._rng is None:
            self._rng = random.Random(self.seed)
        slot = self._rng.randrange(self._seen)
        if slot < self.max_samples:
            self.samples[slot] = value

    def fold_appended(self) -> None:
        """Account for samples a hot writer appended straight to ``samples``.

        Below the cap a writer may ``samples.append(value)`` and leave the
        rest of :meth:`add` to this fold: the tail past ``_seen`` updates
        ``count``/``total``/``minimum``/``maximum``/``_seen`` in append order,
        which gives exactly the fields one ``add()`` per value would.  The
        writer must fold before it calls :meth:`add` at the cap.
        """
        samples = self.samples
        seen = self._seen
        if len(samples) <= seen:
            return
        # An explicit left-to-right loop: sum() rounds differently on
        # interpreters that compensate float sums.  islice, not a slice: no
        # copy of the tail.
        total = self.total
        minimum = self.minimum
        maximum = self.maximum
        for value in islice(samples, seen, None):
            total += value
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.count += len(samples) - seen
        self.total = total
        self.minimum = minimum
        self.maximum = maximum
        self._seen = len(samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Return the ``fraction`` quantile (0..1) of the retained samples.

        Quantiles interpolate linearly between the two closest ranks (the
        same convention as ``statistics.quantiles(..., method='inclusive')``
        and numpy's default), so even- and odd-sized populations behave
        consistently.  Exact while every observation is retained; once
        ``truncated`` is set the result is an estimate over the reservoir.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must be within [0, 1]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        position = fraction * (len(ordered) - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        if lower == upper:
            return ordered[lower]
        weight = position - lower
        return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

    def merge(self, other: "Histogram") -> None:
        population_self, population_other = self.count, other.count
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.truncated = self.truncated or other.truncated
        if not (self.keep_samples and other.keep_samples):
            return
        if (self.max_samples is None
                or (not self.truncated
                    and len(self.samples) + len(other.samples) <= self.max_samples)):
            # Both sides retain their full populations and the union fits:
            # concatenating stays exact.
            self.samples.extend(other.samples)
            self._seen += len(other.samples)
            return
        # Truncating merge: stratified draw where each side contributes in
        # proportion to the population its retained set represents, so the
        # result approximates a uniform sample of the union rather than
        # re-weighting the other side as if it were len(other.samples)
        # observations.
        if self._rng is None:
            self._rng = random.Random(self.seed)
        capacity = self.max_samples
        population = population_self + population_other
        take_other = min(len(other.samples),
                         round(capacity * population_other / population) if population else 0)
        take_self = min(len(self.samples), capacity - take_other)
        take_other = min(len(other.samples), capacity - take_self)
        self.samples[:] = (self._subsample(self.samples, take_self)
                           + self._subsample(other.samples, take_other))
        self.truncated = True
        # Future add()s continue Algorithm R over the whole merged population.
        self._seen = population

    def _subsample(self, pool: List[float], size: int) -> List[float]:
        """A seeded uniform without-replacement draw of ``size`` from ``pool``."""
        if size >= len(pool):
            return list(pool)
        return self._rng.sample(pool, size)

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class FoldedHistogram(Histogram):
    """A histogram re-derived from per-writer part histograms.

    Multiple hot writers (one Active-Routing engine per cube) each own a
    private :class:`Histogram` and the registry-visible aggregate is folded
    from those parts in attach order on every :meth:`flush`.  Folding in a
    fixed part order makes the aggregate's float fields (``total`` above all)
    independent of how the writers' observations interleaved in time.  The
    golden digests were captured under this per-part-then-fold summation
    order: feeding one shared histogram in event order instead rounds
    ``total`` differently and moves the Active-Routing golden digests.

    The folded object must never be fed through :meth:`Histogram.add`; it is
    rebuilt wholesale from its parts.
    """

    def __init__(self) -> None:
        super().__init__()
        self.parts: List[Histogram] = []

    def attach(self, part: Histogram) -> None:
        """Register one writer's private histogram.  Attach order is the fold
        order and must be deterministic (components attach at construction)."""
        self.parts.append(part)

    def flush(self) -> None:
        """Re-derive the aggregate fields from the parts, in attach order.

        Each part first folds the samples its writer appended since the last
        read (:meth:`Histogram.fold_appended`).  The fold runs here rather
        than in the writers' own ``flush()``: a writer may register as a
        flushable after this aggregate, and the aggregate must not read a
        part before it is folded.
        """
        count = 0
        total = 0.0
        minimum = math.inf
        maximum = -math.inf
        truncated = False
        samples: List[float] = []
        for part in self.parts:
            part.fold_appended()
            count += part.count
            total += part.total
            if part.minimum < minimum:
                minimum = part.minimum
            if part.maximum > maximum:
                maximum = part.maximum
            truncated = truncated or part.truncated
            samples.extend(part.samples)
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum
        self.truncated = truncated
        self.samples[:] = samples


class StatsRegistry:
    """A flat namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        self._handles: Dict[str, CounterHandle] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._flushables: List[object] = []
        self._flushable_ids: set = set()

    # -- epoch-batched sources ----------------------------------------------
    def register_flushable(self, source: object) -> None:
        """Register a component whose ``flush()`` folds locally-batched stat
        accumulators into the registry.  Every reader flushes first, so batched
        counters stay observationally identical to per-event increments.

        Membership is tracked by identity in a side set: hundreds of lazily
        created components (e.g. DRAM banks) register here, and a linear
        ``in`` scan per registration would be quadratic."""
        if id(source) not in self._flushable_ids:
            self._flushable_ids.add(id(source))
            self._flushables.append(source)

    def flush(self) -> None:
        """Fold every registered component's pending accumulators in."""
        for source in self._flushables:
            source.flush()

    # -- counters -----------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        handle = self._handles.get(name)
        if handle is not None:
            handle.value += amount
        else:
            self._counters[name] += amount

    def counter_handle(self, name: str) -> CounterHandle:
        """Return the bound counter cell for ``name``, creating it on first use.

        Any value already accumulated through the string-keyed path migrates
        into the cell, so there is exactly one storage location per name.
        """
        handle = self._handles.get(name)
        if handle is None:
            handle = CounterHandle(name, self._counters.pop(name, 0.0))
            self._handles[name] = handle
        return handle

    def counter_handles(self, prefix: str, stats: Iterable[str]) -> List[CounterHandle]:
        """Bound cells for ``<prefix>.<stat>`` of every stat, in one call.

        The bulk form of :meth:`counter_handle` for objects that bind their
        cells the first time they have something to count: same migration of
        string-keyed values, one call per object instead of one per name.
        """
        handles = self._handles
        counters = self._counters
        cells = []
        for stat in stats:
            name = f"{prefix}.{stat}"
            handle = handles.get(name)
            if handle is None:
                handle = CounterHandle(name, counters.pop(name, 0.0))
                handles[name] = handle
            cells.append(handle)
        return cells

    def counter(self, name: str) -> float:
        """Value of counter ``name``.

        Every call flushes every registered source first; a caller that reads
        many names should take one :meth:`counters` copy instead.
        """
        if self._flushables:
            self.flush()
        handle = self._handles.get(name)
        if handle is not None:
            return handle.value
        return self._counters.get(name, 0.0)

    def _iter_counters(self) -> Iterator[Tuple[str, float]]:
        """Every counter (slow-path and bound-handle) as ``(name, value)``.

        Bound cells whose accumulated total is 0.0 are skipped, so pre-binding
        a handle at construction does not make the counter visible to readers
        (``counters()``/``sum()``/``snapshot()``) before it counts anything.
        Known corner: a counter fed *only* zero-amount increments is visible
        through the string-keyed path (the dict materializes the key) but not
        through a handle; a zero total is treated as "never counted", which is
        the meaningful reading for monotonic counters.
        """
        yield from self._counters.items()
        for name, handle in self._handles.items():
            if handle.value != 0.0:
                yield name, handle.value

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Return all counters whose name starts with ``prefix``.

        One flush of every registered source and one walk over every counter,
        in registry order: the read a run's result collection makes once.
        """
        if self._flushables:
            self.flush()
        return {k: v for k, v in self._iter_counters() if k.startswith(prefix)}

    def sum(self, prefix: str) -> float:
        """Sum every counter whose name starts with ``prefix``.

        Flushes every registered source and walks every counter per call.
        """
        if self._flushables:
            self.flush()
        return sum(v for k, v in self._iter_counters() if k.startswith(prefix))

    # -- gauges -------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    def gauges(self, prefix: str = "") -> Dict[str, float]:
        return {k: v for k, v in self._gauges.items() if k.startswith(prefix)}

    # -- histograms ---------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram()
            self._histograms[name] = hist
        hist.add(value)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name``, created empty if missing.

        Resolving an existing histogram flushes every registered source, so
        folded aggregates are current; readers that must not create a
        histogram look it up in :attr:`_histograms` after their own
        :meth:`flush`.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram()
            self._histograms[name] = hist
        elif self._flushables:
            # Folded histograms re-derive their aggregate fields on flush;
            # readers resolving an existing histogram by name must see the
            # folded state, exactly like counter readers see batched cells.
            self.flush()
        return hist

    def folded_histogram(self, name: str) -> FoldedHistogram:
        """Return the :class:`FoldedHistogram` registered under ``name``,
        creating (and registering it as a flushable) on first use."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = FoldedHistogram()
            self._histograms[name] = hist
            self.register_flushable(hist)
        elif not isinstance(hist, FoldedHistogram):
            raise ValueError(f"histogram {name!r} already exists and is not folded")
        return hist

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        if self._flushables:
            self.flush()
        return {k: v for k, v in self._histograms.items() if k.startswith(prefix)}

    # -- bulk helpers ---------------------------------------------------------
    def merge(self, other: "StatsRegistry") -> None:
        """Fold another registry into this one (used to combine per-run stats)."""
        if self._flushables:
            self.flush()
        if other._flushables:
            other.flush()
        for name, value in other._iter_counters():
            self.add(name, value)
        for name, value in other._gauges.items():
            self._gauges[name] = value
        for name, hist in other._histograms.items():
            if isinstance(hist, FoldedHistogram):
                # Folded aggregates are re-derived from their parts; merging
                # the fold itself would double-count once the receiving side's
                # parts are updated, so folded names are skipped.
                continue
            self.histogram(name).merge(hist)

    def snapshot(self) -> Dict[str, float]:
        """Flatten everything into a single scalar mapping (histograms -> mean)."""
        if self._flushables:
            self.flush()
        flat: Dict[str, float] = dict(self._iter_counters())
        flat.update(self._gauges)
        for name, hist in self._histograms.items():
            if hist.count == 0:
                # Pre-bound but never-sampled histograms stay invisible, like
                # never-incremented counter handles.
                continue
            flat[f"{name}.mean"] = hist.mean
            flat[f"{name}.count"] = float(hist.count)
        return flat

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(self.snapshot().items())


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (0 if the iterable is empty)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
