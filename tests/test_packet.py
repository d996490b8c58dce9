import pytest
from hypothesis import given, strategies as st

from gathernoc.config import MeshConfig
from gathernoc.errors import CapacityError
from gathernoc.packet import FlitType, PacketType, build_packet
from gathernoc.topology import NodeId

CFG = MeshConfig()


def test_gather_head_aspace_one_payload():
    # capacity 3*98 = 294 bits, one 32-bit payload uploaded at build time
    flits = build_packet(PacketType.GATHER, NodeId(0, 0), NodeId(0, 7),
                         [(NodeId(0, 0), 7)], CFG, packet_id=0)
    assert flits[0].aspace == 3 * 98 - 32 == 262


def test_gather_empty_packet_aspace():
    flits = build_packet(PacketType.GATHER, NodeId(0, 0), NodeId(0, 7), [], CFG, packet_id=1)
    assert flits[0].aspace == 294


def test_unicast_is_head_plus_tail():
    flits = build_packet(PacketType.UNICAST, NodeId(1, 0), NodeId(1, 7),
                         [(NodeId(1, 0), 5)], CFG, packet_id=2)
    assert [f.ft for f in flits] == [FlitType.HEAD, FlitType.TAIL]
    assert flits[0].payload_slots == []
    assert flits[1].payload_slots == [(NodeId(1, 0), 5)]


def test_gather_packet_structure():
    flits = build_packet(PacketType.GATHER, NodeId(0, 0), NodeId(0, 7), [], CFG, packet_id=3)
    assert [f.ft for f in flits] == [FlitType.HEAD, FlitType.BODY, FlitType.BODY, FlitType.TAIL]


def test_payloads_fill_body_first_then_tail():
    payloads = [(NodeId(0, i), i) for i in range(8)]
    flits = build_packet(PacketType.GATHER, NodeId(0, 0), NodeId(0, 7),
                         payloads, CFG, packet_id=4)
    # three whole 32-bit slots per 98-bit flit
    assert [len(f.payload_slots) for f in flits] == [0, 3, 3, 2]
    assert [p for f in flits for p in f.payload_slots] == payloads


def test_capacity_overflow_rejected():
    too_many = [(NodeId(0, i % 8), i) for i in range(10)]
    with pytest.raises(CapacityError):
        build_packet(PacketType.GATHER, NodeId(0, 0), NodeId(0, 7), too_many, CFG, packet_id=5)


def test_unicast_payload_overflow_rejected():
    cfg = MeshConfig(gather_payload_bits=98)
    with pytest.raises(CapacityError):
        build_packet(PacketType.UNICAST, NodeId(0, 0), NodeId(0, 7),
                     [(NodeId(0, 0), 1), (NodeId(0, 1), 2)], cfg, packet_id=6)


def test_vc_assignment():
    g = build_packet(PacketType.GATHER, NodeId(0, 0), NodeId(0, 7), [], CFG, packet_id=9)
    assert all(f.vc == 0 for f in g)
    u = build_packet(PacketType.UNICAST, NodeId(0, 0), NodeId(0, 7), [], CFG, packet_id=9)
    assert u[0].vc == 1 + 9 % 3
    assert all(f.vc == u[0].vc for f in u)


def test_build_roundtrip_lossless():
    payloads = [(NodeId(0, 2), 1234), (NodeId(0, 3), 4321)]
    flits = build_packet(PacketType.GATHER, NodeId(0, 1), NodeId(0, 7),
                         payloads, CFG, packet_id=77)
    assert flits[0].pt == PacketType.GATHER
    assert flits[0].src == NodeId(0, 1)
    assert flits[0].dst == NodeId(0, 7)
    assert all(f.packet_id == 77 for f in flits)
    assert [p for f in flits for p in f.payload_slots] == payloads
    assert flits[0].aspace == 294 - 64


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=98))
def test_aspace_accounting_property(k, size):
    """Free space after k uploads of a given size is capacity - k*size."""
    cfg = MeshConfig(gather_payload_bits=size, gather_capacity=None)
    capacity = (cfg.gather_len - 1) * cfg.flit_width
    per_flit = cfg.flit_width // size
    if k > per_flit * (cfg.gather_len - 1) or k * size > capacity:
        return  # does not fit; build would reject
    payloads = [(NodeId(0, i % 8), 0) for i in range(k)]
    flits = build_packet(PacketType.GATHER, NodeId(0, 0), NodeId(0, 7), payloads, cfg, packet_id=0)
    assert flits[0].aspace == capacity - k * size
