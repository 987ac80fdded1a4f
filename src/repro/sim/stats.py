"""Statistics primitives shared by every simulated component.

The registry is intentionally simple: counters (monotonic sums), scalar gauges,
and histograms that keep a count and a running total (so a mean) and no
samples.  Components register their stats under a dotted name
(``"network.link.cube3->cube7.bytes"``) so the experiment harness can
aggregate by prefix.

Counters have three storage forms:

* the string-keyed slow path (:meth:`StatsRegistry.add`) used by cold code and
  by anything that only increments occasionally,
* bound :class:`CounterHandle` cells (:meth:`StatsRegistry.counter_handle`)
  resolved once at component construction, gem5-style, so hot loops increment
  a plain attribute instead of hashing a dotted string per event, and
* counter groups (:meth:`StatsRegistry.register_counter_group`) for objects
  created lazily by the thousand (DRAM banks, vaults): the object keeps its
  totals in one plain list and the registry names each ``<name>.<stat>`` only
  while it reads, so a group costs no cell and no stored name per counter.

All three are transparently visible to every reader (``counter()``,
``counters()``, ``sum()``, ``snapshot()``).

Components that batch their hottest counters in plain local accumulators
(epoch-batched stats, e.g. :class:`~repro.network.link.Link`) register
themselves with :meth:`StatsRegistry.register_flushable`; every reader calls
:meth:`StatsRegistry.flush` first, which folds the pending accumulators into
the bound cells and group totals, so batching is invisible to the string API.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


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


class Histogram:
    """Streaming summary of a sample population: count, running total, mean.

    No sample is retained.  ``total`` adds the values in observation order,
    so a writer that keeps its own ``count += 1; total += value`` and hands
    the two over at read time produces exactly the same fields.
    """

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class FoldedHistogram(Histogram):
    """A histogram re-derived from writers' own running totals.

    Hot writers keep a plain count and total as attributes on themselves (one
    Active-Routing engine per cube, one core, one HMC controller) and the
    registry-visible aggregate sums them in attach order on every
    :meth:`flush`.  Folding in a fixed part order makes the aggregate's
    ``total`` independent of how the writers' observations interleaved in
    time.  The golden digests were captured under this per-part-then-fold
    summation order: feeding one shared histogram in event order instead
    rounds ``total`` differently and moves the Active-Routing golden digests.

    The folded object must never be fed through :meth:`Histogram.add`; it is
    rebuilt wholesale from its parts.
    """

    __slots__ = ("parts",)

    def __init__(self) -> None:
        super().__init__()
        self.parts: List[Tuple[object, str, str]] = []

    def attach(self, writer: object, count_attr: str, total_attr: str) -> None:
        """Fold ``writer.<count_attr>`` and ``writer.<total_attr>`` into this
        aggregate.  Attach order is the fold order and must be deterministic
        (components attach at construction)."""
        self.parts.append((writer, count_attr, total_attr))

    def flush(self) -> None:
        """Re-derive ``count`` and ``total`` from the parts, in attach order."""
        count = 0
        total = 0.0
        for writer, count_attr, total_attr in self.parts:
            count += getattr(writer, count_attr)
            total += getattr(writer, total_attr)
        self.count = count
        self.total = total


class StatsRegistry:
    """A flat namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        self._handles: Dict[str, CounterHandle] = {}
        #: Counter groups by name (see :meth:`register_counter_group`).
        self._groups: Dict[str, object] = {}
        #: Bound handles and counter groups in binding order: the order every
        #: reader walks them in.
        self._bound: List[object] = []
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
            return
        slot = self._group_slot(name)
        if slot is None:
            self._counters[name] += amount
        else:
            group, index = slot
            group.counter_totals[index] += amount

    def counter_handle(self, name: str) -> CounterHandle:
        """Return the bound counter cell for ``name``, creating it on first use.

        Any value already accumulated through the string-keyed path migrates
        into the cell, so there is exactly one storage location per name.
        """
        handle = self._handles.get(name)
        if handle is None:
            handle = CounterHandle(name, self._counters.pop(name, 0.0))
            self._handles[name] = handle
            self._bound.append(handle)
        return handle

    def register_counter_group(self, group: object) -> None:
        """Publish ``<group.name>.<stat>`` for every stat of a counter group.

        ``group.counter_stats`` is a tuple of stat names and
        ``group.counter_totals`` a list of totals in the same order, which the
        group adds into itself (typically from its ``flush()``).  The registry
        keeps only the group: it names a total when it reads it, and skips a
        total of 0.0 exactly as it skips an untouched handle.  Values already
        accumulated through the string-keyed path migrate into the totals.
        A group owns its names; none of them may be bound as a handle.
        """
        counters = self._counters
        if counters:
            totals = group.counter_totals
            for index, stat in enumerate(group.counter_stats):
                totals[index] += counters.pop(f"{group.name}.{stat}", 0.0)
        self._groups[group.name] = group
        self._bound.append(group)

    def _group_slot(self, name: str) -> Optional[Tuple[object, int]]:
        """``(group, index)`` of the group total named ``name``, if any."""
        groups = self._groups
        if not groups:
            return None
        dot = name.rfind(".")
        while dot > 0:
            group = groups.get(name[:dot])
            if group is not None:
                stat = name[dot + 1:]
                if stat in group.counter_stats:
                    return group, group.counter_stats.index(stat)
            dot = name.rfind(".", 0, dot)
        return None

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
        slot = self._group_slot(name)
        if slot is not None:
            group, index = slot
            return group.counter_totals[index]
        return self._counters.get(name, 0.0)

    def _iter_counters(self) -> Iterator[Tuple[str, float]]:
        """Every counter (slow-path, bound-handle and group) as ``(name, value)``.

        Bound cells and group totals of 0.0 are skipped, so pre-binding a
        handle at construction does not make the counter visible to readers
        (``counters()``/``sum()``/``snapshot()``) before it counts anything.
        Known corner: a counter fed *only* zero-amount increments is visible
        through the string-keyed path (the dict materializes the key) but not
        through a handle or a group; a zero total is treated as "never
        counted", which is the meaningful reading for monotonic counters.
        """
        yield from self._counters.items()
        for cell in self._bound:
            if cell.__class__ is CounterHandle:
                if cell.value != 0.0:
                    yield cell.name, cell.value
                continue
            prefix = cell.name
            for stat, value in zip(cell.counter_stats, cell.counter_totals):
                if value != 0.0:
                    yield f"{prefix}.{stat}", value

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
