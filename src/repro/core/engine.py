"""The Active-Routing Engine (ARE) that lives on every cube's logic layer.

The engine implements the three-phase protocol of Section 3.3:

1. **Tree construction** — every Update packet that crosses the cube registers
   (or refreshes) a flow-table entry, recording the incoming link as the tree
   parent and the outgoing link as a child, so the ARTree materializes as a
   side effect of routing.
2. **Near-data processing (Update phase)** — Updates whose compute point is
   this cube reserve an operand buffer (two-operand operations), fetch their
   operands from the local vaults or from remote cubes, execute in the ALU and
   commit into the flow entry's partial result.
3. **Active-Routing reduction (Gather phase)** — Gather requests sweep down
   the recorded children; once a subtree's committed-update count matches the
   number of Updates that passed through, the partial result is sent to the
   parent and the entry is released.

Packet handling follows the flow charts of Figure 3.4.

Hot-path conventions: packets are constructed directly and nothing recycles
them, so a packet that retires here (a consumed request or response, a
committed update) is simply dropped, and a continuation may read a packet's
fields when it fires instead of copying them out first.  Per-event counters
are plain integer accumulators folded into the bound stat handles by the
``flush()`` protocol.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Optional, Tuple, TYPE_CHECKING

from ..network.packet import (
    GatherRequestPacket,
    GatherResponsePacket,
    OperandRequestPacket,
    OperandResponsePacket,
    PacketType,
    UpdatePacket,
)
from ..sim import Component, Simulator
from .alu import ALU, NUM_OPERANDS, REDUCE_OPCODES
from .config import AREConfig
from .flow_table import FlowTable, FlowTableEntry
from .operand_buffer import OperandBufferEntry, OperandBufferPool

if TYPE_CHECKING:  # pragma: no cover
    from ..hmc.cube import HMCCube
    from ..network.network import MemoryNetwork
    from .host import ActiveRoutingHost


class ActiveRoutingEngine(Component):
    """Per-cube engine: packet decoder + flow table + operand buffers + ALU."""

    def __init__(self, sim: Simulator, cube: "HMCCube", network: "MemoryNetwork",
                 host: "ActiveRoutingHost", config: Optional[AREConfig] = None) -> None:
        super().__init__(sim, f"are{cube.node_id}")
        self.cube = cube
        self.network = network
        self.host = host
        self.config = config or AREConfig()
        self.node_id = cube.node_id
        self.mapping = cube.mapping
        self.flow_table = FlowTable(sim, f"{self.name}.flowtable",
                                    capacity=self.config.flow_table_slots)
        self.operand_buffers = OperandBufferPool(sim, f"{self.name}.opbuf",
                                                 capacity=self.config.operand_buffer_slots)
        self.alu = ALU(sim, f"{self.name}.alu", latency=self.config.alu_latency)
        self._stalled_updates: Deque[Tuple[UpdatePacket, float]] = deque()
        # The flow-table and operand-buffer dicts, probed directly on the
        # per-Update paths (both objects keep their dict for life).
        self._flow_entries = self.flow_table.entries
        self._opbuf_entries = self.operand_buffers.entries
        # Forwarding decisions index the dense next-hop row for this cube.
        self._next_row = network.routing.next_hop_table[self.node_id]
        # Dense dispatch indexed by the packet type's small int code (cheaper
        # than a chain of enum comparisons or an enum-hashed dict lookup).
        self._dispatch = [None] * len(PacketType)
        for ptype, handler in (
                (PacketType.UPDATE, self._handle_update),
                (PacketType.OPERAND_REQ, self._handle_operand_request),
                (PacketType.OPERAND_RESP, self._handle_operand_response),
                (PacketType.GATHER_REQ, self._handle_gather_request),
                (PacketType.GATHER_RESP, self._handle_gather_response)):
            self._dispatch[ptype._code] = handler
        # The cube dispatches every active packet that crosses it, so counting
        # runs on plain integer accumulators; flush() folds them into the
        # bound handles on demand (the same epoch batching the links use).
        names = ("active_packets", "updates_seen", "updates_forwarded",
                 "updates_received", "stores_forwarded", "stores_received",
                 "operand_buffer_stalls", "local_operand_reads",
                 "operand_reads_served", "remote_operand_requests",
                 "operands_arrived", "updates_committed", "store_writes",
                 "stores_committed", "gathers_received", "gathers_replicated",
                 "gather_responses_merged", "gather_responses_sent")
        pairs = []
        for counter in names:
            setattr(self, "_n_" + counter, 0)
            pairs.append(("_n_" + counter, self.counter_handle(counter)))
        self._register_batched_counters(*pairs)
        # Round-trip latencies go into PRIVATE per-engine running totals; the
        # shared "ar.update_latency.*" aggregates sum them in
        # engine-construction (= cube) order at flush time.  That fold fixes
        # the float summation order the golden digests were captured under;
        # one shared total fed in event order would round differently.  Every
        # round trip feeds all four components, so one count serves all four.
        self._latency_count = 0
        self._latency_request = 0.0
        self._latency_stall = 0.0
        self._latency_response = 0.0
        self._latency_total = 0.0
        for suffix in ("request", "stall", "response", "total"):
            sim.stats.folded_histogram(f"ar.update_latency.{suffix}").attach(
                self, "_latency_count", f"_latency_{suffix}")

    # ---------------------------------------------------------------- update phase
    def _handle_update(self, packet: UpdatePacket, from_node: int) -> None:
        # Table probes only: this fires once per Update *hop*, and the opcode
        # was validated when the host offloaded it (same in the other
        # per-Update paths below).
        if packet.opcode in REDUCE_OPCODES:
            entry = self._flow_entries.get((packet.flow_id, packet.root_node))
            if entry is None:
                entry = self.flow_table.get_or_create(packet.flow_id, packet.root_node,
                                                      packet.opcode, parent=from_node)
            elif entry.parent is None:
                entry.parent = from_node
            entry.req_counter += 1
            self._n_updates_seen += 1
            dst = packet.dst
            if dst != self.node_id:
                entry.children.add(self._next_row[dst])
                self._n_updates_forwarded += 1
                self.network._hop(packet, self.node_id)
                return
            self._n_updates_received += 1
            self._start_update_processing(packet, self.sim.now)
            return

        # Store-class Updates (mov / const_assign): no flow bookkeeping needed.
        if packet.dst != self.node_id:
            self._n_stores_forwarded += 1
            self.network._hop(packet, self.node_id)
            return
        self._n_stores_received += 1
        self._start_store_processing(packet, self.sim.now)

    def _start_update_processing(self, packet: UpdatePacket, arrival: float) -> None:
        if NUM_OPERANDS[packet.opcode] <= 1:
            self._process_single_operand(packet, arrival)
            return
        entry = self.operand_buffers.reserve(packet.flow_id, packet.root_node,
                                             packet.opcode, packet, arrival,
                                             num_operands=2)
        if entry is None:
            self._n_operand_buffer_stalls += 1
            self._stalled_updates.append((packet, arrival))
            return
        self._issue_operand_fetches(entry)

    def _start_store_processing(self, packet: UpdatePacket, arrival: float) -> None:
        if NUM_OPERANDS[packet.opcode] == 0:
            # const_assign: write the immediate to the (local) target.
            finish = self.cube.local_access(packet.target_addr,
                                            self.config.store_write_bytes, is_write=True)
            self._n_store_writes += 1
            self.sim.schedule_at(finish, partial(self._commit_store, packet, arrival))
            return
        # mov: fetch the source operand, then write the target locally.
        entry = self.operand_buffers.reserve(packet.flow_id, packet.root_node,
                                             packet.opcode, packet, arrival,
                                             num_operands=1)
        if entry is None:
            self._n_operand_buffer_stalls += 1
            self._stalled_updates.append((packet, arrival))
            return
        entry.is_store = True
        self._issue_operand_fetches(entry)

    def _process_single_operand(self, packet: UpdatePacket, arrival: float) -> None:
        """Single-operand reductions bypass the operand buffers (Section 3.2.3)."""
        addr = packet.src1_addr
        if addr is None:
            value = self.alu.combine(packet.opcode, packet.imm_value)
            self._commit_reduce(packet, arrival, arrival, value)
            return
        if self.mapping.cube_of(addr) != self.node_id:
            # The host always targets the operand's cube, but stay safe and use
            # the buffered remote-fetch path if a mapping mismatch ever occurs.
            entry = self.operand_buffers.reserve(packet.flow_id, packet.root_node,
                                                 packet.opcode, packet, arrival,
                                                 num_operands=1)
            if entry is None:
                self._n_operand_buffer_stalls += 1
                self._stalled_updates.append((packet, arrival))
                return
            self._issue_operand_fetches(entry)
            return
        finish = self.cube.local_access(addr, self.config.operand_read_bytes, is_write=False)
        self._n_local_operand_reads += 1
        value = self.alu.combine(packet.opcode, packet.src1_value)
        # The commit event fires after the ALU latency has already elapsed, so
        # the roundtrip ends exactly at the commit time; _record_roundtrip must
        # not add alu_latency a second time (that would overstate the response
        # component relative to the buffered two-operand path).
        commit_time = finish + self.config.alu_latency
        self.sim.schedule_at(commit_time, partial(self._commit_reduce, packet, arrival,
                                                  arrival, value, commit_time))

    def _issue_operand_fetches(self, entry: OperandBufferEntry) -> None:
        entry.operand_issue_time = self.sim.now
        packet = entry.update
        for index in range(entry.num_operands):
            if index:
                addr = packet.src2_addr
                value = packet.src2_value
            else:
                addr = packet.src1_addr
                value = packet.src1_value
            if addr is None:
                entry.set_operand(index, value)
                continue
            owner = self.mapping.cube_of(addr)
            if owner == self.node_id:
                finish = self.cube.local_access(addr, self.config.operand_read_bytes,
                                                is_write=False)
                self._n_local_operand_reads += 1
                self._n_operand_reads_served += 1
                self.sim.schedule_at(
                    finish, partial(self._operand_arrived, entry.slot, index, value))
            else:
                request = OperandRequestPacket(
                    src=self.node_id, dst=owner, addr=addr,
                    buffer_slot=entry.slot, operand_index=index,
                    compute_node=self.node_id, value=value,
                    flow_id=packet.flow_id)
                self._n_remote_operand_requests += 1
                self.network.inject(request, self.node_id)
        if entry.op_ready1 and (entry.op_ready2 or entry.num_operands == 1):
            self._commit_buffered(entry)

    # -------------------------------------------------------- operand traffic handling
    # The cube hops operand requests and responses in transit on itself, so
    # these handlers only see packets addressed to this cube.
    def _handle_operand_request(self, packet: OperandRequestPacket, from_node: int) -> None:
        finish = self.cube.local_access(packet.addr, self.config.operand_read_bytes,
                                        is_write=False)
        self._n_operand_reads_served += 1
        self.sim.schedule_at(finish, partial(self._respond_operand, packet))

    def _respond_operand(self, packet: OperandRequestPacket) -> None:
        """The operand read finished: send the value to the compute cube."""
        response = OperandResponsePacket(
            src=self.node_id, dst=packet.compute_node, addr=packet.addr,
            buffer_slot=packet.buffer_slot,
            operand_index=packet.operand_index, value=packet.value,
            flow_id=packet.flow_id)
        self.network.inject(response, self.node_id)

    def _handle_operand_response(self, packet: OperandResponsePacket, from_node: int) -> None:
        self._operand_arrived(packet.buffer_slot, packet.operand_index, packet.value)

    def _operand_arrived(self, slot: int, index: int, value: float) -> None:
        entry = self._opbuf_entries[slot]
        if index:
            entry.op_value2 = value
            entry.op_ready2 = True
        else:
            entry.op_value1 = value
            entry.op_ready1 = True
        self._n_operands_arrived += 1
        if entry.op_ready1 and (entry.op_ready2 or entry.num_operands == 1):
            self._commit_buffered(entry)

    # ----------------------------------------------------------------- commit paths
    def _commit_buffered(self, entry: OperandBufferEntry) -> None:
        # Copy the entry out before releasing its slot: a released slot may be
        # re-reserved (and the entry re-initialised in place) by the stalled
        # updates drained below or by any continuation.
        packet = entry.update
        arrival = entry.arrival_time
        operand_issue = entry.operand_issue_time
        is_store = entry.is_store
        value1 = entry.op_value1
        value2 = entry.op_value2
        self.operand_buffers.release(entry.slot)
        if is_store:
            finish = self.cube.local_access(packet.target_addr,
                                            self.config.store_write_bytes, is_write=True)
            self._n_store_writes += 1
            self.sim.schedule_at(finish, partial(self._commit_store, packet, arrival))
        else:
            value = self.alu.combine(packet.opcode, value1, value2)
            self._commit_reduce(packet, arrival, operand_issue, value)
        if self._stalled_updates:
            self._drain_stalled()

    def _drain_stalled(self) -> None:
        while self._stalled_updates and self.operand_buffers.free_slots > 0:
            packet, arrival = self._stalled_updates.popleft()
            if packet.opcode in REDUCE_OPCODES:
                self._start_update_processing(packet, arrival)
            else:
                self._start_store_processing(packet, arrival)

    def _commit_reduce(self, packet: UpdatePacket, arrival: float,
                       operand_issue: float, value: float,
                       response_end: Optional[float] = None) -> None:
        entry = self._flow_entries.get((packet.flow_id, packet.root_node))
        if entry is None:
            raise RuntimeError(
                f"{self.name}: commit for flow 0x{packet.flow_id:x} (root {packet.root_node}) "
                "but no flow-table entry exists; Gather must not overtake Updates"
            )
        entry.result = self.alu.accumulate(packet.opcode, entry.result, value)
        entry.resp_counter += 1
        self._n_updates_committed += 1
        self._record_roundtrip(packet, arrival, operand_issue, response_end)
        self.host.notify_update_commit(packet.update_id)
        if entry.gflag:
            self._check_flow_completion(entry)

    def _commit_store(self, packet: UpdatePacket, arrival: float) -> None:
        self._n_stores_committed += 1
        # Stores commit at the write-finish event and never double-count: the
        # default response_end adds one alu_latency here, modelling the
        # engine's commit-pipeline stage (stores skip alu.combine but not the
        # pipeline), which matches the seed accounting.
        self._record_roundtrip(packet, arrival, arrival)
        self.host.notify_update_commit(packet.update_id)

    def _record_roundtrip(self, packet: UpdatePacket, arrival: float,
                          operand_issue: float,
                          response_end: Optional[float] = None) -> None:
        """Record the Figure 5.6-style latency breakdown for one Update.

        ``response_end`` is the cycle at which the update's result is
        available.  Commit paths whose event fires *before* the ALU has run
        (the buffered two-operand path commits at operand arrival) leave it
        ``None`` and the ALU latency is added here; paths whose commit event
        already includes the ALU latency pass the commit time explicitly so it
        is counted exactly once.
        """
        request_latency = arrival - packet.issue_time
        if request_latency < 0.0:
            request_latency = 0.0
        stall_latency = operand_issue - arrival
        if stall_latency < 0.0:
            stall_latency = 0.0
        if response_end is None:
            response_end = self.sim.now + self.config.alu_latency
        response_latency = response_end - operand_issue
        if response_latency < 0.0:
            response_latency = 0.0
        total_latency = request_latency + stall_latency + response_latency
        self._latency_count += 1
        self._latency_request += request_latency
        self._latency_stall += stall_latency
        self._latency_response += response_latency
        self._latency_total += total_latency

    # ----------------------------------------------------------------- gather phase
    def _handle_gather_request(self, packet: GatherRequestPacket, from_node: int) -> None:
        self._n_gathers_received += 1
        # Gather requests travel exactly one hop (src to a recorded child —
        # tree-routed packets are pinned to the pristine routes, so this
        # holds under fault injection too) and every arrival consumes the
        # packet; replication below builds new ones.  The requester is read
        # from the packet header rather than the delivering link all the same.
        requester = packet.src
        flow_id = packet.flow_id
        root_node = packet.root_node
        target_addr = packet.target_addr
        num_threads = packet.num_threads
        entry = self._flow_entries.get((flow_id, root_node))
        if entry is None:
            # No Update of this flow ever crossed this cube through this tree:
            # answer immediately with an empty partial result.
            response = GatherResponsePacket(
                src=self.node_id, dst=requester, target_addr=target_addr,
                partial_result=0.0, completed_updates=0,
                root_node=root_node, flow_id=flow_id)
            self.network.inject(response, self.node_id)
            return
        entry.gflag = True
        if entry.parent is None:
            entry.parent = requester
        if entry.children:
            entry.pending_children = set(entry.children)
            for child in sorted(entry.children):
                request = GatherRequestPacket(
                    src=self.node_id, dst=child, target_addr=target_addr,
                    num_threads=num_threads, root_node=root_node,
                    flow_id=flow_id)
                self._n_gathers_replicated += 1
                self.network.inject(request, self.node_id)
            entry.children.clear()
        self._check_flow_completion(entry)

    def _handle_gather_response(self, packet: GatherResponsePacket, from_node: int) -> None:
        # Responses in transit are hopped on by the cube, like operand traffic.
        entry = self._flow_entries.get((packet.flow_id, packet.root_node))
        if entry is None:
            raise RuntimeError(
                f"{self.name}: Gather response for unknown flow 0x{packet.flow_id:x} "
                f"(root {packet.root_node})"
            )
        entry.resp_counter += packet.completed_updates
        entry.result = self.alu.accumulate(entry.opcode, entry.result, packet.partial_result)
        # Key on the originating child, not the last hop: under fault
        # injection a response may detour around a dead link and arrive from
        # a neighbour that is not the child that sent it (without faults the
        # two are always the same node).
        entry.pending_children.discard(packet.src)
        self._n_gather_responses_merged += 1
        self._check_flow_completion(entry)

    def _check_flow_completion(self, entry: FlowTableEntry) -> None:
        # FlowTableEntry.complete, tested inline.
        if (not entry.gflag or entry.pending_children
                or entry.req_counter != entry.resp_counter):
            return
        if entry.parent is None:
            raise RuntimeError(f"{self.name}: completed flow entry has no parent")
        response = GatherResponsePacket(
            src=self.node_id, dst=entry.parent, target_addr=entry.flow_id,
            partial_result=entry.result, completed_updates=entry.resp_counter,
            root_node=entry.root, flow_id=entry.flow_id)
        self._n_gather_responses_sent += 1
        self.flow_table.release((entry.flow_id, entry.root))
        self.network.inject(response, self.node_id)
