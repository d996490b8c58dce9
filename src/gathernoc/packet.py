"""Flit and packet wire format.

The simulator moves structured flits; the equivalent packed-bit header
layout is documented in docs/wire-format.md and exercised by
``pack_header`` / ``unpack_header``.
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


@dataclass
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


# --- packed header layout (documented in docs/wire-format.md) ---------------

def _field_widths(config: MeshConfig) -> tuple[int, int, int]:
    """(aspace_bits, row_bits, col_bits) for the packed head layout."""
    aspace_bits = max(1, config.gather_payload_capacity_bits.bit_length())
    row_bits = max(1, (config.rows - 1).bit_length())
    col_bits = max(1, (config.cols - 1).bit_length())
    return aspace_bits, row_bits, col_bits


def pack_header(flit: Flit, config: MeshConfig) -> int:
    """Pack a head flit's fields into the documented bit layout."""
    if not flit.is_head:
        raise ConfigError("only head flits carry the routed header")
    a_bits, r_bits, c_bits = _field_widths(config)
    total = 2 + 2 + a_bits + 2 * (r_bits + c_bits)
    if total > config.flit_width:
        raise ConfigError(
            f"header fields need {total} bits; flit width is {config.flit_width}"
        )
    word = int(flit.ft)
    word = (word << 2) | int(flit.pt)
    word = (word << a_bits) | flit.aspace
    word = (word << r_bits) | flit.src.row
    word = (word << c_bits) | flit.src.col
    word = (word << r_bits) | flit.dst.row
    word = (word << c_bits) | flit.dst.col
    return word


def unpack_header(word: int, config: MeshConfig) -> dict:
    a_bits, r_bits, c_bits = _field_widths(config)

    def take(n: int) -> int:
        nonlocal word
        val = word & ((1 << n) - 1)
        word >>= n
        return val

    dst_col = take(c_bits)
    dst_row = take(r_bits)
    src_col = take(c_bits)
    src_row = take(r_bits)
    aspace = take(a_bits)
    pt = PacketType(take(2))
    ft = FlitType(take(2))
    return {
        "ft": ft,
        "pt": pt,
        "aspace": aspace,
        "src": NodeId(src_row, src_col),
        "dst": NodeId(dst_row, dst_col),
    }
