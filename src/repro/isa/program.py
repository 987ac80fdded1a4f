"""Program traces and the builder the workload kernels use to emit them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .operations import (
    AtomicOp,
    BarrierOp,
    ComputeOp,
    GatherOp,
    LoadOp,
    Operation,
    PhaseMarkerOp,
    StoreOp,
    ThreadTrace,
    UpdateOp,
    count_instructions,
)


@dataclass
class ProgramTrace:
    """Per-thread operation traces for one workload run.

    ``mode`` is ``"baseline"`` (loads/stores/atomics) or ``"active"``
    (Update/Gather offloads); ``metadata`` carries workload-specific knobs so
    experiments can report the exact inputs they used.
    """

    name: str
    mode: str
    threads: List[ThreadTrace]
    metadata: Dict[str, object] = field(default_factory=dict)
    expected_results: Dict[int, float] = field(default_factory=dict)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def total_instructions(self) -> int:
        return sum(count_instructions(t) for t in self.threads)

    def total_operations(self) -> int:
        return sum(len(t) for t in self.threads)

    def operations_of(self, kind: type) -> int:
        return sum(1 for t in self.threads for op in t if isinstance(op, kind))

    def validate(self) -> None:
        """Structural sanity checks (every trace non-None, gathers follow updates)."""
        if not self.threads:
            raise ValueError(f"program {self.name!r} has no threads")
        if self.mode not in ("baseline", "active"):
            raise ValueError(f"unknown trace mode {self.mode!r}")
        # Store-class opcodes write memory and never create a reduction flow, so
        # they may legitimately target an address that was already gathered.
        store_opcodes = {"mov", "const_assign"}
        for tid, trace in enumerate(self.threads):
            seen_gather_targets = set()
            for op in trace:
                if not isinstance(op, Operation):
                    raise TypeError(f"thread {tid} contains a non-operation: {op!r}")
                if (isinstance(op, UpdateOp) and op.opcode not in store_opcodes
                        and op.target in seen_gather_targets):
                    raise ValueError(
                        f"thread {tid} issues an Update to flow 0x{op.target:x} after "
                        "already gathering it"
                    )
                if isinstance(op, GatherOp):
                    seen_gather_targets.add(op.target)


class TraceBuilder:
    """Builds one thread's operation list with a fluent interface.

    The workloads use one builder per thread.  All emit methods return ``self``
    so kernels read like straight-line pseudocode.
    """

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.ops: ThreadTrace = []

    # -- host-side operations ---------------------------------------------------
    def compute(self, cycles: float, instructions: Optional[int] = None) -> "TraceBuilder":
        if cycles > 0 and self.ops and isinstance(self.ops[-1], ComputeOp):
            # Coalesce adjacent compute bursts to keep traces small.
            last = self.ops[-1]
            merged = ComputeOp(last.cycles + cycles,
                               last.instructions + (instructions if instructions is not None
                                                    else max(1, round(cycles))))
            self.ops[-1] = merged
            return self
        self.ops.append(ComputeOp(cycles, instructions))
        return self

    def load(self, addr: int) -> "TraceBuilder":
        self.ops.append(LoadOp(addr))
        return self

    def store(self, addr: int) -> "TraceBuilder":
        self.ops.append(StoreOp(addr))
        return self

    def atomic(self, addr: int) -> "TraceBuilder":
        self.ops.append(AtomicOp(addr))
        return self

    # -- Active-Routing ISA extension ---------------------------------------------
    def update(self, opcode: str, src1: Optional[int], src2: Optional[int], target: int,
               src1_value: float = 1.0, src2_value: float = 1.0,
               imm: float = 0.0) -> "TraceBuilder":
        self.ops.append(UpdateOp(opcode, src1, src2, target,
                                 src1_value=src1_value, src2_value=src2_value, imm=imm))
        return self

    def gather(self, target: int, num_threads: int) -> "TraceBuilder":
        self.ops.append(GatherOp(target, num_threads))
        return self

    # -- synchronization and structure ----------------------------------------------
    def barrier(self, barrier_id: int, participants: int) -> "TraceBuilder":
        self.ops.append(BarrierOp(barrier_id, participants))
        return self

    def phase(self, label: str) -> "TraceBuilder":
        self.ops.append(PhaseMarkerOp(label))
        return self

    def build(self) -> ThreadTrace:
        return self.ops


def make_program(name: str, mode: str, builders: List[TraceBuilder],
                 metadata: Optional[Dict[str, object]] = None,
                 expected_results: Optional[Dict[int, float]] = None) -> ProgramTrace:
    """Assemble the per-thread builders into a validated :class:`ProgramTrace`."""
    program = ProgramTrace(name=name, mode=mode,
                           threads=[b.build() for b in builders],
                           metadata=metadata or {},
                           expected_results=expected_results or {})
    program.validate()
    return program
