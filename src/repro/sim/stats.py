"""Statistics: components keep plain numbers, the registry reads them.

Every number a run reports lives on the object that produces it, in one
form: a plain attribute (hot code does ``self._n_hits += 1``), one dict per
dynamic family (stall reasons, opcodes, ports, access types), or a property
that derives a total from those at read time.  A publisher declares once, at
class level, which ``<name>.<stat>`` it publishes from which attribute:

* ``COUNTERS``: ``(stat, attribute)`` pairs.  The attribute is a number or a
  property.  A dict publishes one ``<stat><key>`` per entry, in insertion
  order; the stat carries its own separator (``"stall."``, ``"ops."``,
  ``"updates_port"``).
* ``GAUGES``: ``(stat, attribute)`` pairs for levels such as peaks.  Only
  :meth:`StatsRegistry.snapshot` shows them, as stored.
* ``HISTOGRAMS``: ``(stat, count attribute, total attribute)`` triples.  The
  snapshot shows ``<stat>.mean`` and ``<stat>.count``.

A publisher registers when it is constructed (a lazily created DRAM bank
when it is created).  The registry keeps only the publishers, in
registration order, and names a stat only while it reads.  Counters read as
floats, and a value of zero is invisible: a counter that never counted, or a
histogram without samples, is not published.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple


class Publisher:
    """Anything the registry reads: a ``name`` plus the class-level
    declarations of what it publishes (none by default)."""

    __slots__ = ()

    COUNTERS: Tuple[Tuple[str, str], ...] = ()
    GAUGES: Tuple[Tuple[str, str], ...] = ()
    HISTOGRAMS: Tuple[Tuple[str, str, str], ...] = ()


class Histogram(NamedTuple):
    """One histogram read: the sample count and the running total."""

    count: int
    total: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _counters_of(publisher: Publisher) -> Iterator[Tuple[str, float]]:
    """``(name, value)`` of every non-zero counter ``publisher`` declares."""
    prefix = publisher.name + "."
    for stat, attr in publisher.COUNTERS:
        value = getattr(publisher, attr)
        if value.__class__ is dict:
            for key, part in value.items():
                if part:
                    yield f"{prefix}{stat}{key}", float(part)
        elif value:
            yield prefix + stat, float(value)


class StatsRegistry:
    """The publishers of one simulated machine, read by name on demand."""

    def __init__(self) -> None:
        #: Publishers in registration order: the order every reader walks.
        self._publishers: List[Publisher] = []
        #: Their names.  Banks register during a run, and a set of names
        #: grows in smaller steps than a name-to-publisher dict would.
        self._names: Set[str] = set()

    def register(self, publisher: Publisher) -> None:
        """Add ``publisher``; its name must be new."""
        name = publisher.name
        if name in self._names:
            raise ValueError(f"a stats publisher named {name!r} is already registered")
        self._names.add(name)
        self._publishers.append(publisher)

    def _owners(self, name: str) -> Iterator[Tuple[Publisher, str]]:
        """``(publisher, stat)`` for every registered publisher whose name is
        a dotted prefix of ``name``, the longest first."""
        dot = name.rfind(".")
        while dot > 0:
            owner = name[:dot]
            if owner in self._names:
                for publisher in self._publishers:
                    if publisher.name == owner:
                        yield publisher, name[dot + 1:]
                        break
            dot = name.rfind(".", 0, dot)

    def _iter_counters(self) -> Iterator[Tuple[str, float]]:
        for publisher in self._publishers:
            yield from _counters_of(publisher)

    def counter(self, name: str) -> float:
        """Value of counter ``name`` (0.0 when nothing publishes it)."""
        for publisher, _stat in self._owners(name):
            for published, value in _counters_of(publisher):
                if published == name:
                    return value
        return 0.0

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Every non-zero counter whose name starts with ``prefix``, in
        publisher registration order."""
        return {k: v for k, v in self._iter_counters() if k.startswith(prefix)}

    def histogram(self, name: str) -> Optional[Histogram]:
        """The histogram declared as ``name``, or ``None`` if none is."""
        for publisher, stat in self._owners(name):
            for declared, count_attr, total_attr in publisher.HISTOGRAMS:
                if declared == stat:
                    return Histogram(getattr(publisher, count_attr),
                                     getattr(publisher, total_attr))
        return None

    def snapshot(self) -> Dict[str, float]:
        """Everything as one flat mapping: counters, gauges, and each
        histogram as ``<name>.mean`` and ``<name>.count``."""
        flat: Dict[str, float] = dict(self._iter_counters())
        for publisher in self._publishers:
            prefix = publisher.name + "."
            for stat, attr in publisher.GAUGES:
                value = getattr(publisher, attr)
                if value:
                    flat[prefix + stat] = value
            for stat, count_attr, total_attr in publisher.HISTOGRAMS:
                count = getattr(publisher, count_attr)
                if count:
                    flat[f"{prefix}{stat}.mean"] = getattr(publisher, total_attr) / count
                    flat[f"{prefix}{stat}.count"] = float(count)
        return flat


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (0 if the iterable is empty)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
