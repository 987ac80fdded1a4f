"""Per-thread operation traces: the instruction-level contract between the
workloads and the trace-driven cores.

A workload kernel is compiled (at trace-generation time) into one operation
list per thread.  Baseline configurations execute the loads/stores/atomics a
Pthreads kernel would perform; Active-Routing configurations replace the
optimized region with ``Update``/``Gather`` offloads, mirroring the ISA
extension of Section 3.1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class Operation:
    """Base class of every trace operation."""

    __slots__ = ()

    #: Number of dynamic instructions this operation represents (for IPC).
    instructions = 1

    @property
    def kind(self) -> str:
        return type(self).__name__


class ComputeOp(Operation):
    """Pure ALU work: occupies the issue stage for ``cycles`` cycles."""

    __slots__ = ("cycles", "instructions")

    def __init__(self, cycles: float, instructions: Optional[int] = None) -> None:
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.cycles = float(cycles)
        self.instructions = int(instructions if instructions is not None else max(1, round(cycles)))

    def __repr__(self) -> str:
        return f"ComputeOp(cycles={self.cycles}, instructions={self.instructions})"


class LoadOp(Operation):
    """A demand load of one word at ``addr``."""

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def __repr__(self) -> str:
        return f"LoadOp(addr=0x{self.addr:x})"


class StoreOp(Operation):
    """A demand store of one word at ``addr``."""

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def __repr__(self) -> str:
        return f"StoreOp(addr=0x{self.addr:x})"


class AtomicOp(Operation):
    """An atomic read-modify-write on a shared variable (lock/atomic add).

    These serialize the issuing core and trigger coherence invalidations; the
    paper's motivation section identifies them as a key scaling limiter of the
    baseline implementation.
    """

    __slots__ = ("addr",)
    instructions = 2

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def __repr__(self) -> str:
        return f"AtomicOp(addr=0x{self.addr:x})"


class UpdateOp(Operation):
    """The ``Update(src1, src2, target, op)`` ISA extension (Section 3.1.1)."""

    __slots__ = ("opcode", "src1", "src2", "target", "src1_value", "src2_value", "imm")
    instructions = 1

    def __init__(self, opcode: str, src1: Optional[int], src2: Optional[int], target: int,
                 src1_value: float = 1.0, src2_value: float = 1.0, imm: float = 0.0) -> None:
        self.opcode = opcode
        self.src1 = src1
        self.src2 = src2
        self.target = target
        self.src1_value = src1_value
        self.src2_value = src2_value
        self.imm = imm

    @property
    def num_operands(self) -> int:
        return int(self.src1 is not None) + int(self.src2 is not None)

    def __repr__(self) -> str:
        return (f"UpdateOp({self.opcode}, src1={self.src1}, src2={self.src2}, "
                f"target=0x{self.target:x})")


class GatherOp(Operation):
    """The ``Gather(target, num_threads)`` ISA extension: blocks the thread until
    the network-side reduction of the flow identified by ``target`` finishes."""

    __slots__ = ("target", "num_threads")
    instructions = 1

    def __init__(self, target: int, num_threads: int) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be at least 1")
        self.target = target
        self.num_threads = num_threads

    def __repr__(self) -> str:
        return f"GatherOp(target=0x{self.target:x}, num_threads={self.num_threads})"


class BarrierOp(Operation):
    """A software barrier across ``participants`` threads."""

    __slots__ = ("barrier_id", "participants")
    instructions = 1

    def __init__(self, barrier_id: int, participants: int) -> None:
        if participants < 1:
            raise ValueError("participants must be at least 1")
        self.barrier_id = barrier_id
        self.participants = participants

    def __repr__(self) -> str:
        return f"BarrierOp(id={self.barrier_id}, participants={self.participants})"


class PhaseMarkerOp(Operation):
    """Zero-cost marker delimiting program phases (used by the Fig. 5.8 analysis)."""

    __slots__ = ("label",)
    instructions = 0

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"PhaseMarkerOp({self.label!r})"


ThreadTrace = List[Operation]


def count_instructions(trace: Sequence[Operation]) -> int:
    """Total dynamic instructions represented by a thread trace."""
    return sum(op.instructions for op in trace)


def count_kinds(trace: Sequence[Operation]) -> dict:
    """Histogram of operation kinds in a trace (useful for tests/debugging)."""
    histogram: dict = {}
    for op in trace:
        histogram[op.kind] = histogram.get(op.kind, 0) + 1
    return histogram
