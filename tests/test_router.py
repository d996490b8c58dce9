import pytest

from gathernoc.config import MeshConfig
from gathernoc.errors import SimulationError
from gathernoc.packet import PacketType, build_packet
from gathernoc.router import (
    GatherPayload,
    GatherUnit,
    gather_load_check,
    upload_payload,
)
from gathernoc.topology import NodeId

CFG = MeshConfig()


def _unit(node=NodeId(0, 2), timeout=5):
    return GatherUnit(node, timeout)


def _pending_unit(now=0, node=NodeId(0, 2), dst=NodeId(0, 7), value=42, timeout=5):
    unit = _unit(node, timeout)
    unit.post(GatherPayload(origin=node, value=value, dst=dst), now)
    return unit


def _gather_flits(payloads=None, pid=0):
    return build_packet(PacketType.GATHER, NodeId(0, 0), NodeId(0, 7),
                        payloads or [], CFG, packet_id=pid)


class TestLoadCheck:
    def test_matching_head_loads_and_decrements_aspace(self):
        head = _gather_flits([(NodeId(0, 0), 1)])[0]
        assert head.aspace == 262
        unit = _pending_unit()
        assert gather_load_check(head, unit, CFG) is True
        assert head.aspace == 230
        assert unit.reserved_by == head.packet_id

    def test_no_space_means_no_load(self):
        head = _gather_flits()[0]
        head.aspace = 0
        unit = _pending_unit()
        assert gather_load_check(head, unit, CFG) is False
        assert unit.reserved_by is None
        assert unit.pending is not None  # node will initiate its own later

    def test_unicast_head_never_loads(self):
        head = build_packet(PacketType.UNICAST, NodeId(0, 0), NodeId(0, 7),
                            [], CFG, packet_id=1)[0]
        unit = _pending_unit()
        assert gather_load_check(head, unit, CFG) is False

    def test_destination_mismatch_skips_node(self):
        head = _gather_flits()[0]
        unit = _pending_unit(dst=NodeId(5, 7))
        assert gather_load_check(head, unit, CFG) is False

    def test_capacity_count_bound(self):
        # aspace would admit a ninth payload (294-256=38 >= 32) but the
        # packet's payload budget is eight on an 8-wide mesh
        payloads = [(NodeId(0, i), i) for i in range(8)]
        head = _gather_flits(payloads)[0]
        assert head.aspace == 294 - 256
        unit = _pending_unit()
        assert gather_load_check(head, unit, CFG) is False

    def test_idle_unit_does_not_load(self):
        head = _gather_flits()[0]
        assert gather_load_check(head, _unit(), CFG) is False


class TestUpload:
    def test_upload_into_partially_filled_body(self):
        flits = _gather_flits([(NodeId(0, 0), 1), (NodeId(0, 1), 2)])
        head, body = flits[0], flits[1]
        unit = _pending_unit()
        assert gather_load_check(head, unit, CFG)
        assert len(body.payload_slots) == 2   # room for one more slot
        assert upload_payload(body, unit, CFG) is True
        assert body.payload_slots[-1] == (NodeId(0, 2), 42)
        assert unit.pending is None
        assert unit.reserved_by is None
        assert not unit.expired(100)

    def test_tail_without_load_is_nack_and_timer_keeps_counting(self):
        tail = _gather_flits()[3]
        unit = _pending_unit(now=3)
        assert upload_payload(tail, unit, CFG) is False
        unit.nack()
        assert unit.nacks == 1
        assert unit.pending is not None
        assert unit.posted_at == 3          # budget still measured from post

    def test_single_upload_rule(self):
        flits = _gather_flits()
        head, body, tail = flits[0], flits[1], flits[3]
        unit = _pending_unit()
        assert gather_load_check(head, unit, CFG)
        assert upload_payload(body, unit, CFG) is True
        # reservation consumed: the tail passes unchanged
        assert upload_payload(tail, unit, CFG) is False
        assert tail.payload_slots == []

    def test_full_flit_defers_to_next_one(self):
        payloads = [(NodeId(0, i), i) for i in range(3)]
        flits = _gather_flits(payloads)
        head, body1, body2 = flits[0], flits[1], flits[2]
        unit = _pending_unit()
        assert gather_load_check(head, unit, CFG)
        assert len(body1.payload_slots) == 3
        assert upload_payload(body1, unit, CFG) is False   # no room here
        assert upload_payload(body2, unit, CFG) is True


class TestGatherUnitTimer:
    def test_expires_after_budget_with_no_packet(self):
        unit = _pending_unit(now=10, timeout=5)
        assert not unit.expired(14)
        assert unit.expired(15)   # five cycles with nothing passing

    def test_ack_cancels_timeout(self):
        unit = _pending_unit(now=0, timeout=5)
        flits = _gather_flits()
        assert gather_load_check(flits[0], unit, CFG)
        assert upload_payload(flits[1], unit, CFG)
        assert not unit.expired(100)

    def test_zero_budget_fires_immediately(self):
        # row-start nodes have nothing upstream to wait for
        unit = _pending_unit(now=7, timeout=0)
        assert unit.expired(7)

    def test_take_for_self_marks_timed_out(self):
        unit = _pending_unit(now=0)
        payload = unit.take_for_self()
        assert payload.value == 42
        assert unit.pending is None
        assert not unit.expired(100)

    def test_double_post_rejected(self):
        unit = _pending_unit()
        with pytest.raises(SimulationError):
            unit.post(GatherPayload(NodeId(0, 2), 1, NodeId(0, 7)), 1)

    def test_reserved_unit_does_not_expire(self):
        unit = _pending_unit(now=0, timeout=5)
        assert gather_load_check(_gather_flits()[0], unit, CFG)
        assert not unit.expired(50)


def test_load_check_requires_head():
    unit = _pending_unit()
    with pytest.raises(SimulationError):
        gather_load_check(_gather_flits()[1], unit, CFG)


def test_upload_requires_body_or_tail():
    unit = _pending_unit()
    with pytest.raises(SimulationError):
        upload_payload(_gather_flits()[0], unit, CFG)
