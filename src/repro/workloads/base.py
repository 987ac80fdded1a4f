"""Workload framework.

Each workload re-implements (at trace level) one of the paper's Pthread
kernels.  A workload owns its data layout (arrays placed in the physical
address space) and can generate two trace variants:

* ``baseline`` — the loads/stores/atomics the original kernel performs; this is
  what the DRAM and HMC configurations execute;
* ``active`` — the Active-Routing variant where the optimized region is replaced
  by ``Update``/``Gather`` offloads (Section 3.1.1), while the non-optimized
  phases keep their host-side memory accesses.

Workloads also compute the numerically-expected value of every reduction flow
so that end-to-end runs can be verified functionally, not just structurally.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

from ..mem import DataLayout
from ..isa import ProgramTrace, TraceBuilder, make_program

#: Word size used by every workload (double-precision elements).
ELEMENT_SIZE = 8


@dataclass
class WorkloadConfig:
    """Knobs shared by all workloads; concrete workloads add their own sizes."""

    num_threads: int = 4
    seed: int = 7
    #: Scale factor applied to the default problem sizes (1.0 = scaled default).
    scale: float = 1.0
    extra: Dict[str, object] = field(default_factory=dict)


def split_range(total: int, num_threads: int, thread_id: int) -> Tuple[int, int]:
    """Contiguous [start, end) partition of ``total`` items for ``thread_id``."""
    if num_threads < 1:
        raise ValueError("num_threads must be positive")
    if not 0 <= thread_id < num_threads:
        raise ValueError("thread_id out of range")
    base = total // num_threads
    remainder = total % num_threads
    start = thread_id * base + min(thread_id, remainder)
    end = start + base + (1 if thread_id < remainder else 0)
    return start, end


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an integer problem dimension, never going below ``minimum``."""
    return max(minimum, int(round(value * scale)))


class Workload(abc.ABC):
    """Base class of every benchmark and microbenchmark."""

    #: Short name used by the registry, experiment tables and reports.
    name: str = "workload"
    #: True for the Section 4.2.2 microbenchmarks (plotted separately).
    is_micro: bool = False

    def __init__(self, config: Optional[WorkloadConfig] = None, **overrides) -> None:
        self.config = config or WorkloadConfig()
        for key, value in overrides.items():
            if hasattr(self.config, key):
                setattr(self.config, key, value)
            else:
                self.config.extra[key] = value
        seed = self.config.seed
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self.rng = random.Random(seed)
        self.layout = DataLayout()
        self._expected: Dict[int, float] = {}
        #: Parameter names the kernel has declared by reading them (see
        #: :meth:`param`); anything left over in ``config.extra`` at
        #: trace-generation time is an unknown override and fails fast.
        self._params_read: set = set()
        self._build()

    # -- subclass hooks -------------------------------------------------------------
    @abc.abstractmethod
    def _build(self) -> None:
        """Allocate arrays and precompute any input data (graph, sparsity, values)."""

    @abc.abstractmethod
    def _generate_thread(self, builder: TraceBuilder, thread_id: int, mode: str) -> None:
        """Emit the operations of one thread into ``builder``."""

    # -- public API --------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        return self.config.num_threads

    def generate(self, mode: str = "baseline") -> ProgramTrace:
        """Generate the per-thread traces for ``mode`` (``baseline`` or ``active``)."""
        if mode not in ("baseline", "active"):
            raise ValueError(f"unknown mode {mode!r}")
        self._expected = {}
        builders = [TraceBuilder(tid) for tid in range(self.num_threads)]
        for tid, builder in enumerate(builders):
            self._generate_thread(builder, tid, mode)
        # Every param() read — build-time sizes and lazily-read knobs like
        # gather_batch — has happened by now, so any override name the kernel
        # never consulted is a typo or a mis-targeted parameter.
        unknown = sorted(set(self.config.extra) - self._params_read)
        if unknown:
            valid = ", ".join(sorted(self._params_read)) or "(none)"
            raise ValueError(
                f"unknown parameter(s) {', '.join(repr(n) for n in unknown)} "
                f"for workload {self.name!r}; valid parameters: {valid}")
        return make_program(self.name, mode, builders,
                            metadata=self.metadata(),
                            expected_results=dict(self._expected))

    def metadata(self) -> Dict[str, object]:
        """Problem-size metadata recorded into the trace (overridable)."""
        return {"num_threads": self.num_threads, "seed": self.config.seed,
                "scale": self.config.scale}

    # -- helpers for subclasses ------------------------------------------------------------
    def param(self, name: str, default: int, minimum: int = 1) -> int:
        """Integer problem dimension: explicit override, else default * scale.

        An override must be integral (``2.0`` reads as ``2``; ``1.5`` or a
        string raises ``ValueError``).  Reading a parameter declares it:
        names never read by the kernel are rejected at trace-generation time
        (see :meth:`generate`).
        """
        self._params_read.add(name)
        override = self.config.extra.get(name)
        if override is not None:
            if isinstance(override, float) and override.is_integer():
                override = int(override)
            if isinstance(override, bool) or not isinstance(override, int):
                raise ValueError(f"{name} must be an integer, got {override!r}")
            return override
        return scaled(default, self.config.scale, minimum=minimum)

    def float_param(self, name: str, default: float) -> float:
        """Unscaled float parameter (densities, rates): override or default."""
        self._params_read.add(name)
        override = self.config.extra.get(name)
        if override is not None:
            return float(override)
        return default

    def record_expected(self, target: int, value: float) -> None:
        self._expected[target] = self._expected.get(target, 0.0) + value

    def queue_gather(self, builder: TraceBuilder, pending: List[int], target: int,
                     batch: int) -> None:
        """Software-pipelined per-element Gathers.

        Kernels with one reduction flow per output element (sgemm, lud,
        backprop, spmv, the PageRank score phase) would serialize on the Gather
        round-trip if they gathered each element immediately.  Since the flow
        table explicitly supports many concurrent flows (Section 3.2.2), the
        optimized kernels issue Updates for a batch of output elements before
        collecting their Gathers; this helper queues targets and flushes the
        batch when it is full.  Call :meth:`flush_gathers` at the end.
        """
        pending.append(target)
        if len(pending) >= max(1, batch):
            self.flush_gathers(builder, pending)

    @staticmethod
    def flush_gathers(builder: TraceBuilder, pending: List[int]) -> None:
        """Emit a Gather for every queued per-element flow and clear the queue."""
        for target in pending:
            builder.gather(target, 1)
        pending.clear()

    def value(self) -> float:
        """A deterministic pseudo-random operand value in (0, 1)."""
        return self.rng.random()


# ---------------------------------------------------------------------------- registry
_REGISTRY: Dict[str, Type[Workload]] = {}


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the global registry."""
    if not cls.name or cls.name in _REGISTRY:
        raise ValueError(f"workload name {cls.name!r} is missing or already registered")
    _REGISTRY[cls.name] = cls
    return cls


def workload_names(micro: Optional[bool] = None) -> List[str]:
    """All registered workload names, optionally filtered by micro/benchmark."""
    names = []
    for name, cls in _REGISTRY.items():
        if micro is None or cls.is_micro == micro:
            names.append(name)
    return sorted(names)


def make_workload(name: str, config: Optional[WorkloadConfig] = None, **overrides) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(_REGISTRY)}")
    return cls(config, **overrides)
