"""Data-placement helper used by the workloads.

Workloads allocate their arrays through a :class:`DataLayout`, which hands out
non-overlapping physical address ranges.  Because the address mappings rotate
interleave granules across cubes/channels, large arrays automatically spread
over the whole memory network exactly like the paper's workloads do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Array:
    """A named, contiguous allocation of ``num_elements`` fixed-size elements."""

    name: str
    base: int
    num_elements: int
    element_size: int

    @property
    def size_bytes(self) -> int:
        return self.num_elements * self.element_size

    @property
    def end(self) -> int:
        """One past the last byte of the allocation."""
        return self.base + self.size_bytes

    def addr(self, index: int) -> int:
        """Physical address of element ``index`` (supports negative indexing)."""
        if index < 0:
            index += self.num_elements
        if not 0 <= index < self.num_elements:
            raise IndexError(
                f"index {index} out of range for array {self.name!r} "
                f"of {self.num_elements} elements"
            )
        return self.base + index * self.element_size

    def addr2d(self, row: int, col: int, num_cols: int) -> int:
        """Row-major 2-D addressing convenience for matrix workloads."""
        return self.addr(row * num_cols + col)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class DataLayout:
    """Sequential allocator of physical address space for workload data."""

    def __init__(self, base: int = 0x1000_0000, alignment: int = 4096) -> None:
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise ValueError("alignment must be a positive power of two")
        self._next = self._align(base, alignment)
        self.alignment = alignment
        self.arrays: Dict[str, Array] = {}

    @staticmethod
    def _align(value: int, alignment: int) -> int:
        return (value + alignment - 1) // alignment * alignment

    def allocate(self, name: str, num_elements: int, element_size: int = 8) -> Array:
        """Reserve a new array.  Names must be unique within a layout."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already allocated")
        if num_elements <= 0:
            raise ValueError("num_elements must be positive")
        if element_size <= 0:
            raise ValueError("element_size must be positive")
        array = Array(name=name, base=self._next, num_elements=num_elements,
                      element_size=element_size)
        self.arrays[name] = array
        self._next = self._align(array.end, self.alignment)
        return array

    def allocate_matrix(self, name: str, rows: int, cols: int, element_size: int = 8) -> Array:
        """Allocate a row-major matrix as a flat array of ``rows * cols`` elements."""
        return self.allocate(name, rows * cols, element_size)

    def array(self, name: str) -> Array:
        return self.arrays[name]

    @property
    def total_bytes(self) -> int:
        return sum(a.size_bytes for a in self.arrays.values())

    def owner_of(self, addr: int) -> Optional[Array]:
        """Return the array containing ``addr`` or ``None``."""
        for array in self.arrays.values():
            if array.contains(addr):
                return array
        return None

    def summary(self) -> List[str]:
        """Human-readable allocation table."""
        lines = []
        for array in self.arrays.values():
            lines.append(
                f"{array.name:>16s}  base=0x{array.base:012x}  "
                f"elements={array.num_elements:>10d}  bytes={array.size_bytes:>12d}"
            )
        return lines
