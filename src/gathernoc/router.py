"""Router state and the gather collection protocol.

Each router owns per-input-port, per-VC flit queues with credit-style
backpressure, a wormhole ownership table per output VC, round-robin switch
allocation state, and the PE-side gather unit that implements the
load/upload/timeout handshake.  The cycle-by-cycle rules that act on this
state live in :mod:`gathernoc.network`.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .config import MeshConfig
from .errors import SimulationError
from .packet import Flit, FlitType, PacketType, flit_has_room
from .topology import INPUT_PORTS, NodeId, Port


@dataclass(frozen=True)
class GatherPayload:
    origin: NodeId
    value: int
    dst: NodeId          # right-edge router of the origin's row


class GatherStatus(Enum):
    IDLE = "idle"
    WAITING = "waiting"
    ACKED = "acked"
    TIMED_OUT = "timed_out"


class GatherUnit:
    """PE-side holding register for one pending result payload.

    The output-stationary dataflow produces one result per node per round,
    so a single pending slot suffices.  The timeout budget counts from the
    cycle the payload is posted; a passing gather head that has space and a
    matching destination reserves the unit, the following body/tail flit
    absorbs the payload (ack), and a tail passing without a reservation is a
    nack that leaves the budget running.
    """

    def __init__(self, node: NodeId, timeout: int) -> None:
        self.node = node
        self.timeout = timeout
        self.pending: GatherPayload | None = None
        self.posted_at: int = -1
        self.reserved_by: int | None = None   # packet id granted the load
        self.status = GatherStatus.IDLE
        self.nacks = 0

    @property
    def has_unreserved_payload(self) -> bool:
        return self.pending is not None and self.reserved_by is None

    def post(self, payload: GatherPayload, now: int) -> None:
        if self.pending is not None:
            raise SimulationError(
                f"node {self.node} posted a payload while one is pending"
            )
        self.pending = payload
        self.posted_at = now
        self.reserved_by = None
        self.status = GatherStatus.WAITING

    def reserve(self, packet_id: int) -> None:
        self.reserved_by = packet_id

    def take_payload(self, packet_id: int) -> GatherPayload:
        if self.reserved_by != packet_id or self.pending is None:
            raise SimulationError(f"node {self.node}: upload without reservation")
        payload = self.pending
        self.pending = None
        self.reserved_by = None
        self.status = GatherStatus.ACKED
        return payload

    def nack(self) -> None:
        self.nacks += 1

    def take_for_self(self) -> GatherPayload:
        if self.pending is None:
            raise SimulationError(f"node {self.node}: nothing pending to send")
        payload = self.pending
        self.pending = None
        self.reserved_by = None
        self.status = GatherStatus.TIMED_OUT
        return payload

    def expired(self, now: int) -> bool:
        return (
            self.has_unreserved_payload
            and now - self.posted_at >= self.timeout
        )


def gather_load_check(head: Flit, unit: GatherUnit, config: MeshConfig) -> bool:
    """Decide whether this node piggybacks its payload onto a passing packet.

    The load is granted when the head is a gather head with enough free
    space, its destination matches the pending payload's, and the packet is
    still under its payload-count budget.  On a grant the head's free-space
    field is decremented here, before the head traverses the switch, and the
    unit is reserved for the packet's body/tail.
    """
    if head.ft != FlitType.HEAD:
        raise SimulationError("load check applies to head flits")
    if head.pt != PacketType.GATHER:
        return False
    if not unit.has_unreserved_payload:
        return False
    assert unit.pending is not None
    if head.dst != unit.pending.dst:
        return False
    if head.aspace < config.gather_payload_bits:
        return False
    capacity_used = (config.gather_payload_capacity_bits - head.aspace)
    count = capacity_used // config.gather_payload_bits
    if count >= config.resolved_gather_capacity():
        return False
    head.aspace -= config.gather_payload_bits
    unit.reserve(head.packet_id)
    return True


def upload_payload(flit: Flit, unit: GatherUnit, config: MeshConfig) -> bool:
    """Append the reserved payload into the first passing body/tail flit
    with room.  Returns True when the upload (and same-cycle ack) happened."""
    if flit.ft not in (FlitType.BODY, FlitType.TAIL):
        raise SimulationError("uploads target body or tail flits")
    if unit.reserved_by != flit.packet_id:
        return False
    if not flit_has_room(flit, config):
        return False
    payload = unit.take_payload(flit.packet_id)
    flit.payload_slots.append((payload.origin, payload.value))
    return True


class Router:
    """Per-node switching state, laid out flat for the network's cycle loop.

    ``queues[port * vc_count + vc]`` is the input queue of one (input port,
    VC) pair and holds ``(enter_cycle, flit)`` pairs; ``link_owner[port *
    vc_count + vc]`` is the wormhole owner (packet id or None) of one output
    VC; ``rr[port]`` is the round-robin pointer of one output port over the
    flat queue indices.
    """

    def __init__(self, node: NodeId, config: MeshConfig, timeout: int) -> None:
        self.node = node
        self.queues: list[deque[tuple[int, Flit]]] = [
            deque() for _ in range(len(INPUT_PORTS) * config.vc_count)
        ]
        self.link_owner: list[int | None] = [None] * (len(Port) * config.vc_count)
        # cached output port per packet id, set when the head is routed
        self.route_cache: dict[int, Port] = {}
        self.rr: list[int] = [0] * len(Port)
        self.unit = GatherUnit(node, timeout)
