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


_HEAD, _BODY, _TAIL = FlitType.HEAD, FlitType.BODY, FlitType.TAIL
_GATHER = PacketType.GATHER


@dataclass(slots=True)
class Flit:
    """One flow-control unit.

    ``aspace`` (head flits) counts the payload bits still free across the
    packet's body/tail flits.  ``payload_slots`` (body/tail flits) holds the
    (origin, value) results the flit carries.  ``entered`` is simulator
    bookkeeping, not a header field: the cycle the flit entered the router
    input queue it is in (-1 before its first), which the network sets.
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
    entered: int = field(default=-1, compare=False)

    @property
    def is_head(self) -> bool:
        return self.ft == FlitType.HEAD

    @property
    def is_tail(self) -> bool:
        return self.ft == FlitType.TAIL


def payload_bits(slots: list[tuple[NodeId, int]], config: MeshConfig) -> int:
    return len(slots) * config.gather_payload_bits


def build_packet(
    pt: PacketType,
    src: NodeId,
    dst: NodeId,
    payloads: list[tuple[NodeId, int]],
    config: MeshConfig,
    packet_id: int,
    vc: int | None = None,
    to_buffer: bool = False,
) -> list[Flit]:
    """Assemble a packet as a list of flits, each marked ``to_buffer``.

    Payloads fill body flits first, then the tail, whole payloads per flit.
    For gather packets the head's ``aspace`` is initialized to the remaining
    bit capacity of the non-head flits.  Gather traffic owns VC 0, unless
    ``vc`` is given; everything else rotates over the rest by packet id.
    ``pt`` may be given as its integer value; the flits hold the
    ``PacketType`` member, which the network compares by identity.
    """
    try:
        pt = PacketType(pt)
    except ValueError:
        raise ConfigError(f"packet type {pt!r} is not a PacketType") from None
    gather = pt is _GATHER
    length = config.gather_len if gather else config.unicast_len
    per_flit = config.payload_slots_per_flit
    if len(payloads) > (length - 1) * per_flit:
        raise CapacityError(f"{len(payloads)} payloads exceed the {(length - 1) * per_flit} "
                            f"whole payload slots of a {length}-flit packet")
    bits = config.gather_payload_bits
    for _, value in payloads:
        if not 0 <= value < 1 << bits:
            raise CapacityError(f"payload value {value} exceeds the payload width")

    vcs = config.vc_count
    if vc is None:
        vc = 0 if gather or vcs == 1 else 1 + packet_id % (vcs - 1)
    elif not 0 <= vc < vcs:
        raise ConfigError(f"vc {vc} out of range for {vcs} VCs")

    aspace = config.gather_payload_capacity_bits - len(payloads) * bits if gather else 0
    head = Flit(_HEAD, pt, src, dst, packet_id, vc, aspace, to_buffer, [])
    # each flit's slots a list of its own, which uploads extend
    if length == 2:
        # a head and a tail, which holds every payload: the default unicast
        return [head, Flit(_TAIL, pt, src, dst, packet_id, vc, 0, to_buffer, list(payloads))]
    flits = [head]
    slots = list(payloads)
    for i in range(1, length):
        flits.append(Flit(_TAIL if i == length - 1 else _BODY, pt, src, dst,
                          packet_id, vc, 0, to_buffer, slots[(i - 1) * per_flit:i * per_flit]))
    return flits
