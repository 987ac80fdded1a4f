"""Traffic drivers: how request streams are fed into the simulated system.

The paper's kernels are *closed-loop*: each thread issues its next operation
as soon as the previous one allows, so offered load always equals completed
load and saturation is unobservable.  This module lifts that choice into a
pluggable driver family:

* ``closed`` (default) — the existing kernels, verbatim.  Labels, cache keys
  and traces are bit-identical to a world without drivers.
* ``open`` — a synthesized *open-loop* request stream: arrivals follow a
  seeded bursty on/off process at a configured offered rate, keys are drawn
  from a zipfian popularity distribution over each tenant's slice of the
  address space, and a multi-tenant mix of kernel-shaped requests shares one
  memory network.  Arrival pacing is injected through :class:`ArrivalOp`
  markers in the per-thread traces, so scheduling still flows through the
  deterministic ``[time, seq]`` event queue.

Open-loop latency is measured from the *intended* arrival time of each
request, not from when the core got around to issuing it; under saturation
the two diverge and measuring from issue would hide exactly the queueing the
tail percentiles are meant to expose (coordinated omission).
"""

from __future__ import annotations

import bisect
import functools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.backends import BackendRegistry
from ..isa import (ArrivalOp, ChunkedThreadTrace, ComputeOp, GatherOp, LoadOp,
                   Operation, ProgramTrace, StoreOp, TraceBuilder, UpdateOp)
from .base import ELEMENT_SIZE, Workload, WorkloadConfig, make_workload, workload_names

#: Mean requests per thread per 1000 cycles while a burst is ON.
DEFAULT_ARRIVAL_RATE = 8.0

#: Zipf popularity exponent over each tenant's key space (1.0-ish: web-like).
DEFAULT_ZIPF_S = 1.1

#: Requests synthesized per thread.
DEFAULT_STREAM_REQUESTS = 512

#: Keys (elements) per tenant operand array.
DEFAULT_STREAM_KEYS = 4096

#: Mean ON / OFF period lengths (cycles) of the bursty arrival process.
DEFAULT_BURST_ON = 2000.0
DEFAULT_BURST_OFF = 500.0

#: Operations held in memory per thread while a chunked open stream executes
#: (see OpenStreamWorkload.chunk_ops; 0 materializes the whole trace).
DEFAULT_CHUNK_OPS = 4096

#: Request shape by tenant kernel: (operand streams, writes an output word).
#: One-operand tenants reduce into their accumulator ("add" updates / one
#: load); two-operand tenants multiply-accumulate ("mac" updates / two
#: loads); writers store a private output element in baseline mode.
TENANT_FLAVORS: Dict[str, Tuple[int, bool]] = {
    "reduce": (1, False),
    "rand_reduce": (1, False),
    "mac": (2, False),
    "rand_mac": (2, False),
    "pagerank": (1, False),
    "spmv": (2, False),
    "sgemm": (2, False),
    "backprop": (2, True),
    "lud": (1, True),
}

#: Names of the driver parameters that travel inside run/cache params dicts.
DRIVER_PARAM_NAMES = ("driver", "arrival_rate", "zipf_s", "tenant_mix",
                      "stream_requests", "stream_keys")


def _normalize_mix(tenant_mix) -> str:
    """Canonical comma-joined tenant mix from a string or name sequence."""
    if tenant_mix is None:
        return ""
    if isinstance(tenant_mix, str):
        names = [n.strip() for n in tenant_mix.split(",") if n.strip()]
    else:
        names = [str(n).strip() for n in tenant_mix]
    known = set(workload_names())
    for name in names:
        if name not in known:
            raise ValueError(f"unknown tenant workload {name!r}; "
                             f"known: {sorted(known)}")
    return ",".join(names)


@dataclass(frozen=True)
class TrafficSpec:
    """One resolved choice of traffic driver plus its knobs.

    ``params()`` folds the spec into run-parameter / cache-key dicts — empty
    for the default closed driver, so every pre-existing label and cache key
    stays byte-identical; the full effective spec when the driver is open,
    so changing any knob (or a default) can never alias a cached result.
    """

    driver: str = "closed"
    arrival_rate: float = DEFAULT_ARRIVAL_RATE
    zipf_s: float = DEFAULT_ZIPF_S
    tenant_mix: str = ""
    stream_requests: int = DEFAULT_STREAM_REQUESTS
    stream_keys: int = DEFAULT_STREAM_KEYS

    def __post_init__(self) -> None:
        object.__setattr__(self, "driver", resolve_driver(self.driver))
        object.__setattr__(self, "tenant_mix", _normalize_mix(self.tenant_mix))
        if self.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf exponent must be non-negative")
        if self.stream_requests < 1 or self.stream_keys < 1:
            raise ValueError("stream_requests and stream_keys must be >= 1")

    @property
    def is_default(self) -> bool:
        return self.driver == DEFAULT_DRIVER

    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(self.tenant_mix.split(",")) if self.tenant_mix else ()

    def params(self) -> Dict[str, object]:
        if self.is_default:
            return {}
        return {
            "driver": self.driver,
            "arrival_rate": self.arrival_rate,
            "zipf_s": self.zipf_s,
            "tenant_mix": self.tenant_mix,
            "stream_requests": self.stream_requests,
            "stream_keys": self.stream_keys,
        }

    @classmethod
    def from_args(cls, driver: Optional[str] = None,
                  arrival_rate: Optional[float] = None,
                  zipf_s: Optional[float] = None,
                  tenant_mix=None,
                  stream_requests: Optional[int] = None,
                  stream_keys: Optional[int] = None) -> "TrafficSpec":
        """Build a spec from optional CLI-style arguments.

        Open-only knobs imply ``--driver open``; giving them with an explicit
        closed driver is an error rather than a silent no-op.
        """
        open_knobs = [name for name, value in
                      (("arrival-rate", arrival_rate), ("zipf-s", zipf_s),
                       ("tenant-mix", tenant_mix),
                       ("stream-requests", stream_requests),
                       ("stream-keys", stream_keys))
                      if value is not None]
        if driver is None:
            driver = "open" if open_knobs else resolve_driver(None)
        driver = resolve_driver(driver)
        if driver == "closed" and open_knobs:
            raise ValueError(
                f"--{open_knobs[0]} only applies to the open traffic driver "
                "(pass --driver open or drop the flag)")
        return cls(
            driver=driver,
            arrival_rate=DEFAULT_ARRIVAL_RATE if arrival_rate is None else float(arrival_rate),
            zipf_s=DEFAULT_ZIPF_S if zipf_s is None else float(zipf_s),
            tenant_mix=tenant_mix,
            stream_requests=(DEFAULT_STREAM_REQUESTS if stream_requests is None
                             else int(stream_requests)),
            stream_keys=DEFAULT_STREAM_KEYS if stream_keys is None else int(stream_keys),
        )


def split_driver_params(params: Dict[str, object]) -> Tuple[TrafficSpec, Dict[str, object]]:
    """Split a run-parameter dict into (traffic spec, remaining kernel params).

    The driver knobs travel inside the ordinary params dict (so cache keys
    fold them automatically); the runner pops them back out here before the
    kernel sees its overrides.
    """
    rest = dict(params)
    driver = rest.pop("driver", None)
    spec = TrafficSpec.from_args(
        driver=None if driver is None else str(driver),
        arrival_rate=rest.pop("arrival_rate", None),
        zipf_s=rest.pop("zipf_s", None),
        tenant_mix=rest.pop("tenant_mix", None),
        stream_requests=rest.pop("stream_requests", None),
        stream_keys=rest.pop("stream_keys", None),
    )
    return spec, rest


class _TenantStream:
    """Per-tenant synthesized state: operand arrays, values, key popularity."""

    __slots__ = ("name", "sources", "source_values", "dst", "target",
                 "permutation", "cumulative")

    def __init__(self, index: int, name: str, workload: "OpenStreamWorkload",
                 cumulative: List[float]) -> None:
        num_sources, writes = TENANT_FLAVORS.get(name, (1, False))
        keys = workload.stream_keys
        self.name = name
        self.sources = [workload.layout.allocate(f"t{index}.{name}.src{j}", keys,
                                                 ELEMENT_SIZE)
                        for j in range(num_sources)]
        self.source_values = [[workload.value() for _ in range(keys)]
                              for _ in self.sources]
        self.dst = (workload.layout.allocate(f"t{index}.{name}.dst", keys,
                                             ELEMENT_SIZE) if writes else None)
        self.target = workload.layout.allocate(f"t{index}.{name}.acc", 1,
                                               ELEMENT_SIZE).addr(0)
        # Rank -> key permutation: hot ranks land at tenant-specific physical
        # strides instead of every tenant hammering its array prefix.
        permutation = list(range(keys))
        random.Random(workload.config.seed * 7919 + index).shuffle(permutation)
        self.permutation = permutation
        self.cumulative = cumulative

    def draw_key(self, rng: random.Random) -> int:
        point = rng.random() * self.cumulative[-1]
        rank = bisect.bisect_right(self.cumulative, point)
        if rank >= len(self.permutation):
            rank = len(self.permutation) - 1
        return self.permutation[rank]


class OpenStreamWorkload(Workload):
    """Seeded open-loop multi-tenant request stream (see module docstring).

    Deliberately *not* in the workload registry: instances are synthesized by
    the open driver (or experiment scripts) with explicit knobs, and the
    instance ``name`` — ``open:mac+pagerank`` — carries the tenant mix into
    program labels and reports.
    """

    name = "open"
    is_micro = False

    def __init__(self, config: Optional[WorkloadConfig] = None, *,
                 tenants: Sequence[str] = ("mac",),
                 arrival_rate: float = DEFAULT_ARRIVAL_RATE,
                 zipf_s: float = DEFAULT_ZIPF_S,
                 stream_requests: int = DEFAULT_STREAM_REQUESTS,
                 stream_keys: int = DEFAULT_STREAM_KEYS,
                 burst_on: float = DEFAULT_BURST_ON,
                 burst_off: float = DEFAULT_BURST_OFF,
                 chunk_ops: int = DEFAULT_CHUNK_OPS) -> None:
        if not tenants:
            raise ValueError("open driver needs at least one tenant workload")
        if arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if burst_on <= 0 or burst_off < 0:
            raise ValueError("burst periods must be positive (off may be 0)")
        self.tenants = tuple(tenants)
        self.arrival_rate = float(arrival_rate)
        self.zipf_s = float(zipf_s)
        self.stream_requests = int(stream_requests)
        self.stream_keys = int(stream_keys)
        self.burst_on = float(burst_on)
        self.burst_off = float(burst_off)
        #: Memory bound (operations) of the lazily-synthesized per-thread
        #: traces; ``0`` materializes each trace as a plain list instead.
        #: The two paths are bit-identical (pinned by test).
        self.chunk_ops = int(chunk_ops)
        super().__init__(config)
        self.name = "open:" + "+".join(self.tenants)

    @classmethod
    def from_spec(cls, spec: TrafficSpec, base_workload: str,
                  config: Optional[WorkloadConfig] = None) -> "OpenStreamWorkload":
        """Instantiate from a :class:`TrafficSpec`; an empty tenant mix means
        a single tenant shaped like ``base_workload``."""
        return cls(config, tenants=spec.tenants or (base_workload,),
                   arrival_rate=spec.arrival_rate, zipf_s=spec.zipf_s,
                   stream_requests=spec.stream_requests,
                   stream_keys=spec.stream_keys)

    # -- Workload hooks -------------------------------------------------------
    def _build(self) -> None:
        # One shared zipf CDF (same s and key count for every tenant); the
        # per-tenant rank->key permutation de-correlates the hot sets.
        cumulative: List[float] = []
        acc = 0.0
        for rank in range(self.stream_keys):
            acc += 1.0 / (rank + 1) ** self.zipf_s
            cumulative.append(acc)
        self._streams = [_TenantStream(index, name, self, cumulative)
                         for index, name in enumerate(self.tenants)]
        # Threads round-robin over tenants; with fewer threads than tenants
        # the trailing tenants simply stay silent.
        self._tenant_thread_count = [0] * len(self.tenants)
        for tid in range(self.num_threads):
            self._tenant_thread_count[tid % len(self.tenants)] += 1

    def metadata(self) -> Dict[str, object]:
        meta = super().metadata()
        duty = self.burst_on / (self.burst_on + self.burst_off)
        meta.update({
            "driver": "open",
            "tenants": ",".join(self.tenants),
            "arrival_rate": self.arrival_rate,
            "zipf_s": self.zipf_s,
            "stream_requests": self.stream_requests,
            "stream_keys": self.stream_keys,
            "duty_cycle": duty,
            # Time-averaged offered load, requests per 1000 cycles, all threads.
            "offered_rate": self.num_threads * self.arrival_rate * duty,
        })
        return meta

    def _thread_ops(self, thread_id: int, mode: str,
                    record: bool = True) -> Iterator[Operation]:
        """Yield one thread's operations in order, one at a time.

        The sequence is a pure function of the workload knobs and seed, so
        the chunked path can replay it from scratch whenever the executing
        core's sliding window needs refilling.  ``record`` accumulates the
        expected reduction results; replays pass ``False`` so flows are not
        double-counted.  Every request starts with an :class:`ArrivalOp`, so
        adjacent ComputeOps (the one case TraceBuilder coalesces) never occur
        and emitting raw operations is bit-identical to building through it.
        """
        tenant_index = thread_id % len(self.tenants)
        stream = self._streams[tenant_index]
        rng = random.Random(self.config.seed * 100003 + thread_id * 257 + 1)
        now = 0.0
        remaining_on = rng.expovariate(1.0 / self.burst_on)
        gap_mean = 1000.0 / self.arrival_rate
        issued_updates = False
        for _ in range(self.stream_requests):
            # Bursty on/off Poisson arrivals: exponential gaps while ON,
            # exponential OFF pauses spliced in when a burst ends.
            gap = rng.expovariate(1.0 / gap_mean)
            while gap > remaining_on:
                gap -= remaining_on
                now += remaining_on
                if self.burst_off > 0:
                    now += rng.expovariate(1.0 / self.burst_off)
                remaining_on = rng.expovariate(1.0 / self.burst_on)
            now += gap
            remaining_on -= gap
            key = stream.draw_key(rng)
            yield ArrivalOp(now)
            if mode == "active":
                if len(stream.sources) >= 2:
                    value0 = stream.source_values[0][key]
                    value1 = stream.source_values[1][key]
                    yield UpdateOp("mac", stream.sources[0].addr(key),
                                   stream.sources[1].addr(key), stream.target,
                                   src1_value=value0, src2_value=value1)
                    if record:
                        self.record_expected(stream.target, value0 * value1)
                else:
                    value0 = stream.source_values[0][key]
                    yield UpdateOp("add", stream.sources[0].addr(key), None,
                                   stream.target, src1_value=value0)
                    if record:
                        self.record_expected(stream.target, value0)
                issued_updates = True
            else:
                for source in stream.sources:
                    yield LoadOp(source.addr(key))
                yield ComputeOp(0.5, instructions=len(stream.sources))
                if stream.dst is not None:
                    yield StoreOp(stream.dst.addr(key))
        if mode == "active" and issued_updates:
            yield GatherOp(stream.target, self._tenant_thread_count[tenant_index])

    def _generate_thread(self, builder: TraceBuilder, thread_id: int, mode: str) -> None:
        builder.ops.extend(self._thread_ops(thread_id, mode))

    def generate(self, mode: str = "baseline") -> ProgramTrace:
        """Chunked synthesis: bounded memory per thread instead of full lists.

        One streaming pass counts each thread's operations and accumulates the
        expected reduction results; execution then re-synthesizes operations
        on demand through :class:`ChunkedThreadTrace`, holding at most
        ``chunk_ops`` of them at a time.  ``chunk_ops=0`` falls back to the
        materialized base-class path — the traces are bit-identical either
        way, only peak memory differs.
        """
        if self.chunk_ops <= 0:
            return super().generate(mode)
        if mode not in ("baseline", "active"):
            raise ValueError(f"unknown mode {mode!r}")
        self._expected = {}
        threads = []
        for tid in range(self.num_threads):
            length = sum(1 for _ in self._thread_ops(tid, mode, record=True))
            threads.append(ChunkedThreadTrace(
                functools.partial(self._thread_ops, tid, mode, False),
                length, chunk=self.chunk_ops))
        unknown = sorted(set(self.config.extra) - self._params_read)
        if unknown:
            valid = ", ".join(sorted(self._params_read)) or "(none)"
            raise ValueError(
                f"unknown parameter(s) {', '.join(repr(n) for n in unknown)} "
                f"for workload {self.name!r}; valid parameters: {valid}")
        program = ProgramTrace(name=self.name, mode=mode, threads=threads,
                               metadata=self.metadata(),
                               expected_results=dict(self._expected))
        program.validate()
        return program


# ---------------------------------------------------------------------- drivers
class TrafficDriver:
    """Turns (workload name, config, spec, kernel params) into a Workload."""

    name = "abstract"

    def build(self, workload_name: str, config: Optional[WorkloadConfig],
              spec: TrafficSpec, **workload_params) -> Workload:
        raise NotImplementedError


class ClosedDriver(TrafficDriver):
    """The paper's fixed closed-loop kernels, unchanged."""

    name = "closed"

    def build(self, workload_name: str, config: Optional[WorkloadConfig],
              spec: TrafficSpec, **workload_params) -> Workload:
        return make_workload(workload_name, config, **workload_params)


class OpenDriver(TrafficDriver):
    """Synthesized open-loop request streams (:class:`OpenStreamWorkload`)."""

    name = "open"

    def build(self, workload_name: str, config: Optional[WorkloadConfig],
              spec: TrafficSpec, **workload_params) -> Workload:
        if workload_params:
            raise ValueError(
                "closed-kernel problem sizes "
                f"({', '.join(sorted(workload_params))}) do not apply to the "
                "open driver; size the stream with --arrival-rate / "
                "stream_requests / stream_keys instead")
        return OpenStreamWorkload.from_spec(spec, workload_name, config)


DRIVER_BACKENDS: Dict[str, type] = {
    "closed": ClosedDriver,
    "open": OpenDriver,
}

DEFAULT_DRIVER = "closed"

DRIVER_ENV = "REPRO_DRIVER"

DRIVER_REGISTRY = BackendRegistry("traffic driver", DRIVER_BACKENDS,
                                  DEFAULT_DRIVER, DRIVER_ENV)


def resolve_driver(name: Optional[str] = None) -> str:
    """Canonical driver name (explicit > $REPRO_DRIVER > default)."""
    return DRIVER_REGISTRY.resolve(name)


def make_driver(name: Optional[str] = None) -> TrafficDriver:
    """Instantiate the selected traffic driver."""
    return DRIVER_REGISTRY.make(name)


def driver_env(name: Optional[str]):
    """Temporarily export a driver choice through $REPRO_DRIVER."""
    return DRIVER_REGISTRY.env(name)
