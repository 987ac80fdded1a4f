"""Host-side Active-Routing logic.

The :class:`ActiveRoutingHost` is the offload backend behind every core's
Message Interface.  It owns the global view of flows:

* for each ``Update`` it picks a port (per the configured scheme), computes the
  compute point (operand cube or split point) and injects the Update packet
  through the corresponding HMC controller;
* for each flow it remembers which ports were used, collects the per-thread
  ``Gather`` calls (the implicit barrier of Section 3.1.1), then launches one
  Gather per tree root and combines the per-tree partial results into the final
  value returned to the blocked threads.

It also installs an Active-Routing engine on every cube and registers itself
as the Gather-response listener of every controller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from ..hmc.hmc_controller import HMCController
from ..hmc.hmc_memory import HMCMemorySystem
from ..isa import GatherOp, UpdateOp
from ..network.packet import GatherRequestPacket, GatherResponsePacket, UpdatePacket
from ..sim import Component, Simulator
from .alu import NUM_OPERANDS, REDUCE_OPCODES, opcode_spec
from .config import AREConfig
from .engine import ActiveRoutingEngine, UpdateLatency
from .schemes import PortSelector, Scheme


@dataclass
class _FlowState:
    """Host-side bookkeeping for one reduction flow."""

    flow_id: int
    opcode: Optional[str] = None
    ports_used: Set[int] = field(default_factory=set)
    gather_waiters: List[Callable[[float], None]] = field(default_factory=list)
    gathers_arrived: int = 0
    expected_threads: int = 0
    responses_pending: Set[int] = field(default_factory=set)
    gathers_sent: bool = False
    result: Optional[float] = None
    completed_updates: int = 0
    updates_offloaded: int = 0


class ActiveRoutingHost(Component):
    """Implements the OffloadBackend protocol on top of the HMC memory network."""

    def __init__(self, sim: Simulator, hmc_memory: HMCMemorySystem, scheme: Scheme,
                 are_config: Optional[AREConfig] = None, install_engines: bool = True) -> None:
        super().__init__(sim, "arhost")
        self.hmc = hmc_memory
        self.scheme = scheme
        self.are_config = are_config or AREConfig()
        self.selector = PortSelector(scheme, hmc_memory)
        self.engines: List[ActiveRoutingEngine] = []
        if install_engines:
            for cube in hmc_memory.cubes:
                engine = ActiveRoutingEngine(sim, cube, hmc_memory.network, self,
                                             self.are_config)
                cube.install_engine(engine)
                self.engines.append(engine)
            UpdateLatency(sim, self.engines)
        for controller in hmc_memory.controllers:
            controller.set_gather_listener(self._on_gather_response)
        self._controllers = hmc_memory.controllers
        self._mapping = hmc_memory.mapping
        self._split_point = hmc_memory.network.routing.split_point

        self._update_ids = itertools.count()
        # offload_update()/notify_update_commit() run once per Update packet
        # and count on plain attributes (per port in a small dict keyed by
        # port id, in first-use order).
        self._n_updates_offloaded = 0
        self._n_updates_committed = 0
        self._n_updates_by_port: Dict[int, int] = {}
        self._n_gathers_requested = 0
        self._n_gather_packets_sent = 0
        self._n_gather_responses_received = 0
        self._n_flows_completed = 0
        self._update_commits: Dict[int, Callable[[], None]] = {}
        self._flows: Dict[int, _FlowState] = {}
        #: Final reduction results, kept for functional verification.
        self.flow_results: Dict[int, float] = {}
        self.flow_history: Dict[int, List[float]] = {}

    COUNTERS = (("updates_offloaded", "_n_updates_offloaded"),
                ("updates_committed", "_n_updates_committed"),
                ("gathers_requested", "_n_gathers_requested"),
                ("gather_packets_sent", "_n_gather_packets_sent"),
                ("gather_responses_received", "_n_gather_responses_received"),
                ("flows_completed", "_n_flows_completed"),
                ("updates_port", "_n_updates_by_port"))

    # -------------------------------------------------------------- Update offload
    def offload_update(self, core_id: int, op: UpdateOp,
                       on_commit: Callable[[], None]) -> None:
        opcode = op.opcode
        num_operands = NUM_OPERANDS.get(opcode)
        if num_operands is None:
            opcode_spec(opcode)  # raises the friendly unknown-opcode error
        port = self.selector.select(core_id, op)
        controllers = self._controllers
        controller = controllers[port % len(controllers)]
        root = controller.attached_cube
        # The compute destination: the target's cube for a store; for a
        # reduce, the operand's cube, or the split point of the routes
        # toward two operands.
        mapping = self._mapping
        is_reduce = opcode in REDUCE_OPCODES
        if not is_reduce:
            dst = mapping.cube_of(op.target)
        elif num_operands <= 1 or op.src2 is None:
            dst = mapping.cube_of(op.src1 if op.src1 is not None else op.target)
        else:
            dst = self._split_point(root, mapping.cube_of(op.src1),
                                    mapping.cube_of(op.src2))

        update_id = next(self._update_ids)
        self._update_commits[update_id] = on_commit
        if is_reduce:
            # get-then-insert rather than setdefault: this runs once per
            # Update and setdefault would build a throwaway _FlowState
            # (ten fields, two set factories) on every existing-flow hit.
            state = self._flows.get(op.target)
            if state is None:
                state = self._flows[op.target] = _FlowState(flow_id=op.target)
            state.opcode = opcode
            state.ports_used.add(port)
            state.updates_offloaded += 1

        packet = UpdatePacket(
            src=controller.node_id, dst=dst, opcode=opcode,
            target_addr=op.target, src1_addr=op.src1, src2_addr=op.src2,
            src1_value=op.src1_value, src2_value=op.src2_value,
            imm_value=op.imm, thread_id=core_id, root_node=root,
            update_id=update_id, issue_time=self.sim.now,
            flow_id=op.target)
        self._n_updates_offloaded += 1
        by_port = self._n_updates_by_port
        by_port[port] = by_port.get(port, 0) + 1
        controller.inject(packet)

    def notify_update_commit(self, update_id: int) -> None:
        """Credit return from an engine: one offloaded Update has committed."""
        callback = self._update_commits.pop(update_id, None)
        if callback is None:
            raise RuntimeError(f"commit notification for unknown update {update_id}")
        self._n_updates_committed += 1
        callback()

    # -------------------------------------------------------------- Gather handling
    def offload_gather(self, core_id: int, op: GatherOp,
                       on_result: Callable[[float], None]) -> None:
        state = self._flows.get(op.target)
        if state is None:
            state = self._flows[op.target] = _FlowState(flow_id=op.target)
        state.gather_waiters.append(on_result)
        state.gathers_arrived += 1
        state.expected_threads = op.num_threads
        self._n_gathers_requested += 1
        if state.gathers_arrived < op.num_threads:
            return
        self._launch_gather(state, op)

    def _launch_gather(self, state: _FlowState, op: GatherOp) -> None:
        state.gathers_sent = True
        if not state.ports_used:
            # The flow never offloaded an Update (e.g. an empty loop partition);
            # complete immediately with the opcode identity.
            self.sim.schedule(1.0, partial(self._finalize_flow, state))
            return
        for port in sorted(state.ports_used):
            controller = self.hmc.controller_for_port(port)
            request = GatherRequestPacket(
                src=controller.node_id, dst=controller.attached_cube,
                target_addr=state.flow_id, num_threads=op.num_threads,
                root_node=controller.attached_cube, flow_id=state.flow_id)
            state.responses_pending.add(port)
            self._n_gather_packets_sent += 1
            controller.inject(request)

    def _on_gather_response(self, packet: GatherResponsePacket,
                            controller: HMCController) -> None:
        state = self._flows.get(packet.flow_id)
        if state is None or not state.gathers_sent:
            raise RuntimeError(f"unexpected Gather response for flow 0x{packet.flow_id:x}")
        opcode = state.opcode or "add"
        spec = opcode_spec(opcode)
        if state.result is None:
            state.result = spec.identity
        state.result = spec.accumulate(state.result, packet.partial_result)
        state.completed_updates += packet.completed_updates
        state.responses_pending.discard(controller.port_id)
        self._n_gather_responses_received += 1
        if not state.responses_pending:
            self._finalize_flow(state)

    def _finalize_flow(self, state: _FlowState) -> None:
        opcode = state.opcode or "add"
        result = state.result if state.result is not None else opcode_spec(opcode).identity
        if state.completed_updates != state.updates_offloaded:
            raise RuntimeError(
                f"flow 0x{state.flow_id:x} completed {state.completed_updates} updates "
                f"but {state.updates_offloaded} were offloaded"
            )
        self.flow_results[state.flow_id] = result
        self.flow_history.setdefault(state.flow_id, []).append(result)
        self._n_flows_completed += 1
        waiters = list(state.gather_waiters)
        del self._flows[state.flow_id]
        for callback in waiters:
            callback(result)

    # -------------------------------------------------------------- introspection
    @property
    def outstanding_updates(self) -> int:
        return len(self._update_commits)

    @property
    def active_flows(self) -> int:
        return len(self._flows)
