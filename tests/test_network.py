import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gathernoc.config import MeshConfig, default_timeout_table, flat_timeout_table
from gathernoc.errors import ConfigError, DeadlockError, SimulationError
from gathernoc.network import MeshNetwork, mesh_tables
from gathernoc.packet import PacketType, build_packet
from gathernoc.topology import NodeId, Port
from scenario_utils import run_safety_scenario, scenario_outcome


def _drain(net, limit=5000):
    net.run_until_idle(limit)
    net.assert_drained()


def _send(net, src, dst, pid, payloads=None, pt=PacketType.UNICAST,
          cycle=0, to_buffer=False, vc=None):
    flits = build_packet(pt, src, dst, payloads or [], net.config, pid, vc=vc)
    net.schedule_injection(cycle, src, flits, to_buffer=to_buffer)
    return flits


class TestUncontendedLatency:
    def test_head_crosses_empty_row_in_cols_times_depth(self):
        # 8-router row to the buffer: M * pipeline_depth cycles for the head
        cfg = MeshConfig(rows=1, cols=8)
        net = MeshNetwork(cfg)
        _send(net, NodeId(0, 0), NodeId(0, 7), pid=0,
              payloads=[(NodeId(0, 0), 1)], to_buffer=True)
        _drain(net)
        pkt = net.delivered[0]
        assert pkt.head_arrival - pkt.inject_cycle == 8 * 5 == 40
        assert pkt.tail_arrival - pkt.inject_cycle == 41
        assert pkt.hops == 7

    @pytest.mark.parametrize("kappa", [3, 5])
    @pytest.mark.parametrize("hops", range(1, 8))
    def test_lone_packet_latency_is_hops_times_depth(self, kappa, hops):
        cfg = MeshConfig(rows=2, cols=8, pipeline_depth=kappa)
        net = MeshNetwork(cfg)
        dst = NodeId(0, hops - 1)  # hops = router traversals incl. ejection
        _send(net, NodeId(0, 0), dst, pid=0, payloads=[(NodeId(0, 0), 1)])
        _drain(net)
        pkt = net.delivered[0]
        assert pkt.head_arrival - pkt.inject_cycle == hops * kappa

    def test_vertical_and_turning_routes_deliver(self):
        cfg = MeshConfig(rows=6, cols=6)
        net = MeshNetwork(cfg)
        _send(net, NodeId(0, 3), NodeId(4, 3), pid=0, payloads=[(NodeId(0, 3), 9)])
        _send(net, NodeId(5, 0), NodeId(1, 4), pid=1, payloads=[(NodeId(5, 0), 8)], cycle=2)
        _drain(net)
        assert sorted(p.packet_id for p in net.delivered) == [0, 1]
        by_pid = {p.packet_id: p for p in net.delivered}
        assert by_pid[0].hops == 4
        assert by_pid[1].hops == 8
        assert by_pid[0].head_arrival - by_pid[0].inject_cycle == 5 * 5


class TestArbitration:
    def test_two_streams_share_one_link_alternately(self):
        # two long packets on different VCs become eligible for the same
        # output link at the same cycle; round-robin switch allocation
        # interleaves their flits one per cycle
        cfg = MeshConfig(rows=1, cols=3, unicast_len=4)
        net = MeshNetwork(cfg, trace_links=True)
        # A traverses (0,0) first and reaches (0,1) just as B injects there
        _send(net, NodeId(0, 0), NodeId(0, 2), pid=0, cycle=0, vc=1)
        _send(net, NodeId(0, 1), NodeId(0, 2), pid=1, cycle=5, vc=2)
        _drain(net)
        rid = NodeId(0, 1).index(cfg.cols)
        grants = sorted(
            (cycle, pid)
            for (r, port, _vc), events in net.link_trace.items()
            if r == rid and port == Port.EAST
            for cycle, pid in events
        )
        assert sorted(pid for _, pid in grants) == [0] * 4 + [1] * 4
        # one grant per cycle on the shared link, packets alternating
        cycles = [c for c, _ in grants]
        assert len(set(cycles)) == len(cycles)
        order = [pid for _, pid in grants]
        alternations = sum(1 for i in range(len(order) - 1) if order[i] != order[i + 1])
        assert alternations >= 4

    def test_zero_credit_stalls_flit_in_place(self):
        # block the east output of the middle router; upstream queue fills
        # to buffer_depth and the sender stalls without dropping anything
        cfg = MeshConfig(rows=1, cols=3, buffer_depth=2, unicast_len=4)
        blocked = {(NodeId(0, 1), Port.EAST)}
        stalls = {"until": 40}

        def stall_fn(cycle, node, port):
            return cycle < stalls["until"] and (node, port) in blocked

        net = MeshNetwork(cfg, stall_fn=stall_fn)
        _send(net, NodeId(0, 0), NodeId(0, 2), pid=0, payloads=[(NodeId(0, 0), 1)])
        _drain(net, limit=10_000)
        pkt = net.delivered[0]
        assert pkt.head_arrival - pkt.inject_cycle > 3 * 5
        assert pkt.payloads == [(NodeId(0, 0), 1)]

    def test_wormhole_contiguity_per_vc(self):
        cfg = MeshConfig(rows=4, cols=4, unicast_len=4)
        net = MeshNetwork(cfg, trace_links=True)
        for i in range(4):
            _send(net, NodeId(i, 0), NodeId(0, 3), pid=i, cycle=i, vc=1 + i % 3)
        _drain(net)
        for (_rid, _port, _vc), events in net.link_trace.items():
            # per VC on a link, a packet's flits are contiguous
            seen_done = set()
            current = None
            for _cycle, pid in events:
                if pid != current:
                    assert pid not in seen_done, "interleaved packet on one VC"
                    if current is not None:
                        seen_done.add(current)
                    current = pid


class TestConservation:
    def test_flit_conservation_and_drain(self):
        cfg = MeshConfig(rows=4, cols=4)
        net = MeshNetwork(cfg)
        for i in range(8):
            _send(net, NodeId(i % 4, i % 3), NodeId(i % 4, 3), pid=i,
                  payloads=[(NodeId(i % 4, i % 3), i)], cycle=i * 2, to_buffer=True)
        _drain(net)
        assert net.flits_injected == net.flits_ejected == 8 * cfg.unicast_len

    def test_watchdog_raises_on_artificial_wedge(self):
        cfg = MeshConfig(rows=1, cols=2)
        net = MeshNetwork(cfg)
        _send(net, NodeId(0, 0), NodeId(0, 1), pid=0)
        # wedge the network by never routing the head (fabricated state):
        # remove the route cache entry every cycle so no grant can happen
        for _ in range(5):
            net.step()
        net.routers[0].route_cache.clear()
        with pytest.raises(DeadlockError):
            for _ in range(200):
                net.step()
                net.routers[0].route_cache.clear()
                net.routers[1].route_cache.clear()


class TestClockAndScheduling:
    def test_jump_over_a_held_payloads_deadline_is_refused(self):
        # 1x4 row: (0,2) posts at cycle 0 and no packet passes it, so its
        # payload is held until its give-up deadline launches a packet
        cfg = MeshConfig(rows=1, cols=4)
        net = MeshNetwork(cfg)
        net.schedule_post(0, NodeId(0, 2), 5)
        net.step()
        unit = net.routers[2].unit
        assert net._holding == 1 and unit.posted_at + unit.timeout == 15
        with pytest.raises(SimulationError, match="give-up deadline"):
            net.jump_to(100)
        assert net.cycle == 1
        _drain(net)
        assert [p.inject_cycle for p in net.delivered] == [15]
        assert net.timeout_packets == 1
        net.jump_to(100)
        assert net.cycle == 100

    def test_buffer_traffic_off_the_buffer_column_is_refused_when_scheduled(self):
        # routing such a packet would fail only once it reached its
        # destination, in the middle of a cycle's commits
        cfg = MeshConfig(rows=2, cols=3)
        net = MeshNetwork(cfg)
        flits = build_packet(PacketType.UNICAST, NodeId(0, 0), NodeId(1, 1),
                             [(NodeId(0, 0), 1)], cfg, 0)
        with pytest.raises(ConfigError, match="column 2 only"):
            net.schedule_injection(0, NodeId(0, 0), flits, to_buffer=True)
        assert not net.busy()


class TestGatherProtocolOnMesh:
    def test_row_gather_collects_everyone(self):
        cfg = MeshConfig(rows=1, cols=8)
        net = MeshNetwork(cfg)
        for c in range(8):
            net.schedule_post(0, NodeId(0, c), 100 + c)
        _drain(net)
        assert len(net.delivered) == 1
        pkt = net.delivered[0]
        assert pkt.pt == PacketType.GATHER
        assert sorted(pkt.payloads) == [(NodeId(0, c), 100 + c) for c in range(8)]
        assert pkt.hops == 7

    def test_flat_timeout_splits_the_row(self):
        # a uniform short budget cannot cover five hops of pipeline delay,
        # so far-away nodes give up and launch their own packets
        cfg = MeshConfig(rows=1, cols=8)
        net = MeshNetwork(cfg, timeout_table=flat_timeout_table(cfg, 5))
        for c in range(8):
            net.schedule_post(0, NodeId(0, c), 100 + c)
        _drain(net)
        assert len(net.delivered) > 1
        got = sorted(p for pkt in net.delivered for p in pkt.payloads)
        assert got == [(NodeId(0, c), 100 + c) for c in range(8)]
        # with a flat budget even the row-start node waits it out
        assert net.timeout_packets == len(net.delivered)

    def test_capacity_overflow_starts_second_packet(self):
        # sixteen nodes, nine-payload capacity: exactly two gather packets
        cfg = MeshConfig(rows=1, cols=16)
        assert cfg.resolved_gather_capacity() == 9
        net = MeshNetwork(cfg)
        for c in range(16):
            net.schedule_post(c, NodeId(0, c), 200 + c)
        _drain(net, limit=20_000)
        assert len(net.delivered) == 2
        sizes = sorted(len(p.payloads) for p in net.delivered)
        assert sizes == [7, 9]
        got = sorted(p for pkt in net.delivered for p in pkt.payloads)
        assert got == [(NodeId(0, c), 200 + c) for c in range(16)]

    def test_aspace_consistent_at_delivery(self):
        cfg = MeshConfig(rows=1, cols=8)
        net = MeshNetwork(cfg)
        for c in range(8):
            net.schedule_post(0, NodeId(0, c), c)
        _drain(net)
        pkt = net.delivered[0]
        total_bits = len(pkt.payloads) * cfg.gather_payload_bits
        assert total_bits <= cfg.gather_payload_capacity_bits


class TestSharedTables:
    def test_networks_of_one_config_share_the_tables(self):
        cfg = MeshConfig(rows=3, cols=5)
        a, b = MeshNetwork(cfg), MeshNetwork(MeshConfig(rows=3, cols=5),
                                             timeout_table={(1, 2): 7})
        tables = mesh_tables(cfg)
        assert mesh_tables(MeshConfig(rows=3, cols=5)) is tables
        assert a._down is b._down is tables.down
        assert all(ra.node is rb.node is node
                   for ra, rb, node in zip(a.routers, b.routers, tables.nodes))
        # queues, owners, pointers and gather units stay per network
        for ra, rb in zip(a.routers, b.routers):
            assert ra.queues is not rb.queues and ra.link_owner is not rb.link_owner
            assert ra.rr is not rb.rr and ra.unit is not rb.unit
        # an explicit budget overlays the shared defaults of one network only
        assert [r.unit.timeout for r in b.routers][7] == 7
        defaults = default_timeout_table(cfg)
        assert tables.budgets == tuple(defaults[r, c] for r in range(3) for c in range(5))
        assert [r.unit.timeout for r in a.routers] == list(tables.budgets)

    def test_a_network_built_after_another_ran_steps_as_in_a_fresh_process(self):
        seeds = range(8)
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]))
        script = ("import json, sys; from scenario_utils import run_safety_scenario, "
                  "scenario_outcome; print(json.dumps([scenario_outcome("
                  "run_safety_scenario(int(s))) for s in sys.argv[1:]]))")
        fresh = subprocess.run([sys.executable, "-c", script, *map(str, seeds)], env=env,
                               capture_output=True, text=True, check=True)
        for seed, expected in zip(seeds, json.loads(fresh.stdout), strict=True):
            first = run_safety_scenario(seed)
            second = run_safety_scenario(seed)
            assert second._down is first._down
            assert json.loads(json.dumps(scenario_outcome(second))) == expected
