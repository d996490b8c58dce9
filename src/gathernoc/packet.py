"""Flit and packet wire format.

The simulator moves structured flits; the packed-bit layout they stand for
is documented in docs/wire-format.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from .config import MeshConfig
from .errors import CapacityError, ConfigError
from .topology import NodeId


class FlitType(IntEnum):
    HEAD = 0
    BODY = 1
    TAIL = 2


class PacketType(IntEnum):
    UNICAST = 0
    GATHER = 2      # 1 is reserved (docs/wire-format.md)


@dataclass(slots=True)
class Flit:
    """One flow-control unit.

    ``aspace`` (head flits) counts the payload bits still free across the
    packet's body/tail flits.  ``payload_slots`` (body/tail flits) holds the
    (origin, value) results the flit carries.
    """

    ft: FlitType
    pt: PacketType
    src: NodeId
    dst: NodeId
    packet_id: int
    vc: int
    aspace: int = 0
    to_buffer: bool = False
    payload_slots: list[tuple[NodeId, int]] = field(default_factory=list)

    @property
    def is_head(self) -> bool:
        return self.ft == FlitType.HEAD

    @property
    def is_tail(self) -> bool:
        return self.ft == FlitType.TAIL


def assign_vc(pt: PacketType, packet_id: int, config: MeshConfig) -> int:
    """Gather traffic owns VC 0; everything else rotates over the rest."""
    if pt == PacketType.GATHER or config.vc_count == 1:
        return 0
    return 1 + packet_id % (config.vc_count - 1)


def packet_length(pt: PacketType, config: MeshConfig) -> int:
    return config.gather_len if pt == PacketType.GATHER else config.unicast_len


def payload_bits(slots: list[tuple[NodeId, int]], config: MeshConfig) -> int:
    return len(slots) * config.gather_payload_bits


def flit_has_room(flit: Flit, config: MeshConfig) -> bool:
    """Whether one more whole payload fits in this flit's payload field."""
    if flit.is_head:
        return False
    return (len(flit.payload_slots) + 1) * config.gather_payload_bits <= config.flit_width


def build_packet(
    pt: PacketType,
    src: NodeId,
    dst: NodeId,
    payloads: list[tuple[NodeId, int]],
    config: MeshConfig,
    packet_id: int,
    vc: int | None = None,
) -> list[Flit]:
    """Assemble a packet as a list of flits.

    Payloads fill body flits first, then the tail, whole payloads per flit.
    For gather packets the head's ``aspace`` is initialized to the remaining
    bit capacity of the non-head flits.
    """
    length = packet_length(pt, config)
    slots_per_flit = config.payload_slots_per_flit
    slots = (length - 1) * slots_per_flit
    if len(payloads) > slots:
        raise CapacityError(f"{len(payloads)} payloads exceed the {slots} whole "
                            f"payload slots of a {length}-flit packet")
    for origin, value in payloads:
        if not 0 <= value < (1 << config.gather_payload_bits):
            raise CapacityError(f"payload value {value} exceeds the payload width")

    if vc is None:
        vc = assign_vc(pt, packet_id, config)
    if not 0 <= vc < config.vc_count:
        raise ConfigError(f"vc {vc} out of range for {config.vc_count} VCs")

    aspace = (config.gather_payload_capacity_bits - payload_bits(payloads, config)
              if pt == PacketType.GATHER else 0)
    flits = [
        Flit(ft=FlitType.HEAD, pt=pt, src=src, dst=dst, packet_id=packet_id,
             vc=vc, aspace=aspace)
    ]
    remaining = list(payloads)
    for i in range(1, length):
        ft = FlitType.TAIL if i == length - 1 else FlitType.BODY
        take = remaining[:slots_per_flit]
        remaining = remaining[slots_per_flit:]
        flits.append(
            Flit(ft=ft, pt=pt, src=src, dst=dst, packet_id=packet_id,
                 vc=vc, payload_slots=take)
        )
    return flits

