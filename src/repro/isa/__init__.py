"""ISA extension and trace format: Update/Gather operations, program traces."""

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
    count_kinds,
)
from .program import ProgramTrace, TraceBuilder, make_program

__all__ = [
    "AtomicOp",
    "BarrierOp",
    "ComputeOp",
    "GatherOp",
    "LoadOp",
    "Operation",
    "PhaseMarkerOp",
    "StoreOp",
    "ThreadTrace",
    "UpdateOp",
    "count_instructions",
    "count_kinds",
    "ProgramTrace",
    "TraceBuilder",
    "make_program",
]
