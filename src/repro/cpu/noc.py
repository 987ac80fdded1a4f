"""On-chip 2-D mesh network latency/energy model (4x4 mesh, Table 4.1).

The on-chip network is not the bottleneck in any of the paper's experiments,
so it is modelled analytically: per-hop latency and per-byte-hop energy, with
cores, L2 banks and memory controllers placed on mesh tiles.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim import Component, Simulator


class MeshNoC(Component):
    """Analytical latency/energy model of the host's mesh interconnect."""

    def __init__(self, sim: Simulator, rows: int = 4, cols: int = 4,
                 hop_latency: float = 2.0, energy_pj_per_byte_hop: float = 0.8) -> None:
        super().__init__(sim, "noc")
        if rows < 1 or cols < 1:
            raise ValueError("mesh dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.hop_latency = hop_latency
        self.energy_pj_per_byte_hop = energy_pj_per_byte_hop
        # transfer() runs twice per L2 probe: pre-bind its counters.
        self._h_transfers = self.counter_handle("transfers")
        self._h_byte_hops = self.counter_handle("byte_hops")
        self._h_bytes = self.counter_handle("bytes")
        self._h_energy_pj = self.counter_handle("energy_pj")
        #: ``[src][dst]`` hop counts: :meth:`round_trip` runs once per L2
        #: probe and does no geometry (nor range checks) of its own.
        tiles = [divmod(tile, cols) for tile in range(rows * cols)]
        self._hop_table = [[abs(sr - dr) + abs(sc - dc) for dr, dc in tiles]
                           for sr, sc in tiles]

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def coords(self, tile: int) -> Tuple[int, int]:
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} out of range for a {self.rows}x{self.cols} mesh")
        return divmod(tile, self.cols)

    def hops(self, src_tile: int, dst_tile: int) -> int:
        """Manhattan distance between two tiles (dimension-ordered routing)."""
        sr, sc = self.coords(src_tile)
        dr, dc = self.coords(dst_tile)
        return abs(sr - dr) + abs(sc - dc)

    def corner_tiles(self) -> List[int]:
        """The four corner tiles where the memory controllers sit."""
        corners = [0, self.cols - 1, (self.rows - 1) * self.cols, self.num_tiles - 1]
        unique: List[int] = []
        for c in corners:
            if c not in unique:
                unique.append(c)
        return unique

    def core_tile(self, core_id: int) -> int:
        return core_id % self.num_tiles

    def bank_tile(self, bank_id: int) -> int:
        return bank_id % self.num_tiles

    def mc_tile(self, mc_id: int) -> int:
        corners = self.corner_tiles()
        return corners[mc_id % len(corners)]

    def transfer(self, src_tile: int, dst_tile: int, size_bytes: int) -> float:
        """Account a one-way transfer and return its latency in cycles."""
        hops = self.hops(src_tile, dst_tile)
        latency = hops * self.hop_latency
        self._h_transfers.value += 1
        self._h_byte_hops.value += size_bytes * hops
        self._h_bytes.value += size_bytes
        self._h_energy_pj.value += size_bytes * hops * self.energy_pj_per_byte_hop
        return latency

    def round_trip(self, src_tile: int, dst_tile: int, req_bytes: int, resp_bytes: int) -> float:
        """Request/response pair latency between two tiles.

        Equivalent to two :meth:`transfer` calls (the stat updates are kept as
        separate additions so the accumulated floats match exactly), fused
        because this runs once per L2 probe.
        """
        hops = self._hop_table[src_tile][dst_tile]
        latency = hops * self.hop_latency
        self._h_transfers.value += 2
        self._h_byte_hops.value += req_bytes * hops
        self._h_byte_hops.value += resp_bytes * hops
        self._h_bytes.value += req_bytes
        self._h_bytes.value += resp_bytes
        self._h_energy_pj.value += req_bytes * hops * self.energy_pj_per_byte_hop
        self._h_energy_pj.value += resp_bytes * hops * self.energy_pj_per_byte_hop
        return latency + latency
