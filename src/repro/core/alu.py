"""Opcode semantics and the per-engine ALU.

Update opcodes fall into two classes:

* **reduce** opcodes accumulate a value into the flow's partial result, which
  is later aggregated along the ARTree by the Gather phase
  (``sum += A[i] * B[i]`` style);
* **store** opcodes write a value to the target memory location and need no
  flow bookkeeping (the ``mov``/``const_assign`` Updates of the PageRank
  pseudocode in Figure 3.2).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..sim import Component, Simulator


class OpClass(enum.Enum):
    REDUCE = "reduce"
    STORE = "store"


@dataclass(frozen=True)
class OpcodeSpec:
    """Semantics of one Update opcode."""

    name: str
    op_class: OpClass
    num_operands: int
    #: Combine the (up to two) source operands into the value to accumulate/store.
    combine: Callable[[float, float], float]
    #: Merge a combined value (or a child's partial result) into an accumulator.
    accumulate: Callable[[float, float], float]
    #: Identity element of ``accumulate``.
    identity: float


def _first(a: float, _b: float) -> float:
    return a


# operator.add/mul instead of lambdas: the same arithmetic, without a Python
# frame per Update.
OPCODES: Dict[str, OpcodeSpec] = {
    "add": OpcodeSpec("add", OpClass.REDUCE, 1, _first, operator.add, 0.0),
    "mac": OpcodeSpec("mac", OpClass.REDUCE, 2, operator.mul, operator.add, 0.0),
    "mult": OpcodeSpec("mult", OpClass.REDUCE, 2, operator.mul, operator.add, 0.0),
    "abs_diff": OpcodeSpec("abs_diff", OpClass.REDUCE, 2, lambda a, b: abs(a - b),
                           operator.add, 0.0),
    "min": OpcodeSpec("min", OpClass.REDUCE, 1, _first, min, math.inf),
    "max": OpcodeSpec("max", OpClass.REDUCE, 1, _first, max, -math.inf),
    "mov": OpcodeSpec("mov", OpClass.STORE, 1, _first, _first, 0.0),
    "const_assign": OpcodeSpec("const_assign", OpClass.STORE, 0, _first, _first, 0.0),
}


# Each opcode's shape, resolved once from OPCODES for the per-Update paths of
# the engine and the host (a plain dict probe instead of a spec attribute
# chase and an OpClass comparison per Update).
#: Opcodes of the reduce class.
REDUCE_OPCODES = frozenset(name for name, spec in OPCODES.items()
                           if spec.op_class is OpClass.REDUCE)
#: Source-operand count per opcode.
NUM_OPERANDS: Dict[str, int] = {name: spec.num_operands for name, spec in OPCODES.items()}
#: ``combine`` per opcode.
COMBINE: Dict[str, Callable[[float, float], float]] = {
    name: spec.combine for name, spec in OPCODES.items()}
#: ``accumulate`` per opcode.
ACCUMULATE: Dict[str, Callable[[float, float], float]] = {
    name: spec.accumulate for name, spec in OPCODES.items()}


def opcode_spec(name: str) -> OpcodeSpec:
    """Look up an opcode; raises ``ValueError`` for unknown names."""
    try:
        return OPCODES[name]
    except KeyError:
        raise ValueError(f"unknown Update opcode {name!r}; known: {sorted(OPCODES)}")


def is_reduce_opcode(name: str) -> bool:
    return opcode_spec(name).op_class is OpClass.REDUCE


class ALU(Component):
    """The arithmetic unit of one Active-Routing engine."""

    def __init__(self, sim: Simulator, name: str, latency: float = 2.0) -> None:
        super().__init__(sim, name)
        self.latency = latency
        # combine()/accumulate() run once per Update and count on plain
        # attributes (per opcode in a small dict, in first-use order).
        self._n_ops = 0
        self._n_reductions = 0
        self._n_ops_by_opcode: Dict[str, int] = {}

    COUNTERS = (("ops", "_n_ops"), ("reductions", "_n_reductions"),
                ("ops.", "_n_ops_by_opcode"))

    def combine(self, opcode: str, a: float, b: float = 0.0) -> float:
        """Execute the data-processing part of an Update (e.g. the multiply of a MAC)."""
        # Direct table probe on the hot path; the opcode_spec() wrapper (and
        # its friendly error) only runs for unknown names.
        combine = COMBINE.get(opcode)
        if combine is None:
            combine = opcode_spec(opcode).combine
        self._n_ops += 1
        by_opcode = self._n_ops_by_opcode
        by_opcode[opcode] = by_opcode.get(opcode, 0) + 1
        return combine(a, b)

    def accumulate(self, opcode: str, accumulator: Optional[float], value: float) -> float:
        """Fold ``value`` into ``accumulator`` using the opcode's reduction."""
        accumulate = ACCUMULATE.get(opcode)
        if accumulate is None:
            accumulate = opcode_spec(opcode).accumulate
        if accumulator is None:
            accumulator = OPCODES[opcode].identity
        self._n_reductions += 1
        return accumulate(accumulator, value)
