"""The gather collection protocol: the PE-side gather unit of one node and
the load/upload/nack handshake between it and passing gather packets,
defined once, in ``gather_arrival``.

A network keeps one ``GatherUnit`` per router, next to its flat switching
tables; :mod:`gathernoc.network` holds those tables and the cycle-by-cycle
rules that act on them.  ``gather_load_check`` and ``upload_payload`` run
the handshake for a head and for a body or tail flit, the way the frozen
reference kernel of the differential tests (``tests/seed_kernel.py``)
calls it.
"""
from __future__ import annotations

from typing import NamedTuple

from .config import MeshConfig
from .errors import SimulationError
from .packet import Flit, FlitType, PacketType
from .topology import NodeId


_HEAD, _TAIL = FlitType.HEAD, FlitType.TAIL


class GatherPayload(NamedTuple):
    """One PE's pending result, immutable: a named tuple, built positionally
    or by keyword, since a round builds one per gather PE."""

    origin: NodeId
    value: int
    dst: NodeId          # right-edge router of the origin's row


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

    def nack(self) -> None:
        self.nacks += 1

    def take_for_self(self) -> GatherPayload:
        if self.pending is None:
            raise SimulationError(f"node {self.node}: nothing pending to send")
        payload = self.pending
        self.pending = None
        self.reserved_by = None
        return payload

    def expired(self, now: int) -> bool:
        return (
            self.has_unreserved_payload
            and now - self.posted_at >= self.timeout
        )


def gather_limits(config: MeshConfig) -> tuple[int, int, int, int]:
    """What the handshake reads of ``config``, resolved once per network:
    the bits of one payload, the payload bits and the payload budget of a
    gather packet, and the whole payloads one flit holds."""
    return (config.gather_payload_bits, config.gather_payload_capacity_bits,
            config.resolved_gather_capacity(), config.payload_slots_per_flit)


def gather_arrival(flit: Flit, unit: GatherUnit, limits: tuple[int, int, int, int]) -> str | None:
    """The load/upload/nack handshake of one gather flit arriving at
    ``unit``'s router, under ``gather_limits``: the one definition of the
    protocol, which the network calls once per gather arrival.

    * A head loads the unit's payload when the unit holds one unreserved,
      the head is bound for the payload's destination and has the free
      space, and the packet is under its payload budget: the head's
      free-space field is decremented here, before the head traverses the
      switch, and the unit is reserved for the packet's body/tail.
    * A body or tail flit of the reserving packet absorbs the payload if it
      has room for one more whole payload (upload, with a same-cycle ack);
      a reserving packet whose tail passes without room has lost the
      upload, which raises ``SimulationError``.
    * Any other tail that passes a unit holding an unreserved payload is a
      nack, which leaves the payload's give-up budget running.

    Returns ``"load"``, ``"upload"``, ``"nack"`` or None, what happened.
    """
    pending, pid = unit.pending, flit.packet_id
    if pending is None:
        return None
    if flit.ft is _HEAD:
        if unit.reserved_by is not None:
            return None
        bits, capacity_bits, capacity, _ = limits
        dst, aspace = flit.dst, flit.aspace
        if (dst.col != pending.dst.col or dst.row != pending.dst.row or aspace < bits
                or (capacity_bits - aspace) // bits >= capacity):
            return None
        flit.aspace = aspace - bits
        unit.reserved_by = pid
        return "load"
    if unit.reserved_by == pid:
        if len(flit.payload_slots) < limits[3]:
            flit.payload_slots.append((pending.origin, pending.value))
            unit.pending = unit.reserved_by = None
            return "upload"
        if flit.ft is _TAIL:
            raise SimulationError(f"reserved upload never completed at {unit.node}")
        return None
    if flit.ft is _TAIL and unit.reserved_by is None:
        unit.nack()
        return "nack"
    return None


def gather_load_check(head: Flit, unit: GatherUnit, config: MeshConfig) -> bool:
    """Whether this node piggybacks its payload onto a passing packet:
    ``gather_arrival`` of a head, True for a load."""
    if head.ft != FlitType.HEAD:
        raise SimulationError("load check applies to head flits")
    if head.pt != PacketType.GATHER:
        return False
    return gather_arrival(head, unit, gather_limits(config)) == "load"


def upload_payload(flit: Flit, unit: GatherUnit, config: MeshConfig) -> bool:
    """Append the reserved payload into a passing body/tail flit with room:
    ``gather_arrival`` of a body or tail flit of the reserving packet, True
    for an upload (and same-cycle ack); a reserving tail without room
    raises, as there."""
    if flit.ft not in (FlitType.BODY, FlitType.TAIL):
        raise SimulationError("uploads target body or tail flits")
    if unit.reserved_by != flit.packet_id:
        return False
    return gather_arrival(flit, unit, gather_limits(config)) == "upload"
