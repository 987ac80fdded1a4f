"""On-chip 2-D mesh network latency/energy model (4x4 mesh, Table 4.1).

The on-chip network is not the bottleneck in any of the paper's experiments,
so it is modelled analytically: per-hop latency and per-byte-hop energy, with
cores, L2 banks and memory controllers placed on mesh tiles.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim import Component, Simulator


class MeshNoC(Component):
    """Analytical latency/energy model of the host's mesh interconnect.

    L2 probes, one request/response pair per L1 miss, are the only traffic
    on the hot path.  Their caller looks the hop count up itself and appends
    it to :attr:`probe_log` (see :meth:`probe_log_for`).  Reading a total
    first replays the log into the totals with the additions and the order
    that one eager request-then-response update per probe would make, so the
    float ``energy_pj`` total is bit-identical however the reads fall.  A hop
    count is one byte: the log costs a byte per probe until the next read.
    """

    COUNTERS = (("transfers", "transfers"), ("byte_hops", "byte_hops"),
                ("bytes", "total_bytes"), ("energy_pj", "energy_pj"))

    def __init__(self, sim: Simulator, rows: int = 4, cols: int = 4,
                 hop_latency: float = 2.0, energy_pj_per_byte_hop: float = 0.8) -> None:
        super().__init__(sim, "noc")
        if rows < 1 or cols < 1:
            raise ValueError("mesh dimensions must be positive")
        if rows + cols - 2 > 255:
            raise ValueError("mesh is too large: a hop count must fit in one byte")
        self.rows = rows
        self.cols = cols
        self.hop_latency = hop_latency
        self.energy_pj_per_byte_hop = energy_pj_per_byte_hop
        self._transfers = 0
        self._byte_hops = 0
        self._bytes = 0
        self._energy_pj = 0.0
        #: Hop count of every L2 probe not yet replayed into the totals.
        self.probe_log = bytearray()
        #: ``(request, response)`` bytes of one probe, fixed by the first
        #: :meth:`probe_log_for` call.
        self.probe_bytes: Optional[Tuple[int, int]] = None

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
        self._replay_probes()  # logged probes came first
        hops = self.hops(src_tile, dst_tile)
        latency = hops * self.hop_latency
        self._transfers += 1
        self._byte_hops += size_bytes * hops
        self._bytes += size_bytes
        self._energy_pj += size_bytes * hops * self.energy_pj_per_byte_hop
        return latency

    def probe_log_for(self, req_bytes: int, resp_bytes: int) -> bytearray:
        """The log of probes of ``req_bytes`` out and ``resp_bytes`` back.

        A probe between tiles ``hops`` apart is one ``probe_log.append(hops)``
        by the caller and takes ``hops * 2 * hop_latency`` cycles, the same
        float as two one-way ``hops * hop_latency`` legs.  One mesh has one
        probe size.
        """
        if self.probe_bytes not in (None, (req_bytes, resp_bytes)):
            raise ValueError(f"the probe log already records {self.probe_bytes} "
                             f"byte probes, not {(req_bytes, resp_bytes)}")
        self.probe_bytes = (req_bytes, resp_bytes)
        return self.probe_log

    def _replay_probes(self) -> None:
        """Move the logged probes into the totals: request then response, per probe."""
        log = self.probe_log
        if not log:
            return
        req_bytes, resp_bytes = self.probe_bytes
        per_byte_hop = self.energy_pj_per_byte_hop
        energy = self._energy_pj
        for hops in log:
            energy += req_bytes * hops * per_byte_hop
            energy += resp_bytes * hops * per_byte_hop
        self._energy_pj = energy
        self._transfers += 2 * len(log)
        self._byte_hops += (req_bytes + resp_bytes) * sum(log)
        self._bytes += (req_bytes + resp_bytes) * len(log)
        log.clear()

    @property
    def transfers(self) -> int:
        self._replay_probes()
        return self._transfers

    @property
    def byte_hops(self) -> int:
        self._replay_probes()
        return self._byte_hops

    @property
    def total_bytes(self) -> int:
        self._replay_probes()
        return self._bytes

    @property
    def energy_pj(self) -> float:
        self._replay_probes()
        return self._energy_pj
