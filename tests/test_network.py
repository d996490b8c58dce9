import json
import os
import random
import subprocess
import sys
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gathernoc.config import (MeshConfig, default_timeout_table, flat_timeout_table,
                              give_up_budgets)
from gathernoc.errors import ConfigError, DeadlockError, SimulationError
from gathernoc import network, systolic
from gathernoc.network import OUTPUT_PORTS, MeshNetwork, mesh_tables
from gathernoc.packet import PacketType, build_packet
from gathernoc.systolic import buffer_commits
from gathernoc.topology import INPUT_PORTS, NodeId, Port
from gathernoc.workload import LayerConfig
from scenario_utils import run_safety_scenario, scenario_outcome


def _drain(net, limit=5000):
    net.run_until_idle(limit)
    net.assert_drained()


def _send(net, src, dst, pid, payloads=None, pt=PacketType.UNICAST,
          cycle=0, to_buffer=False, vc=None):
    flits = build_packet(pt, src, dst, payloads or [], net.config, pid, vc=vc,
                         to_buffer=to_buffer)
    net.schedule_injection(cycle, src, flits)
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
        # remove the cached routes every cycle so no grant can happen
        for _ in range(5):
            net.step()
        net._routes[0].clear()
        with pytest.raises(DeadlockError):
            for _ in range(200):
                net.step()
                net._routes[0].clear()
                net._routes[1].clear()


def _wake_up_scenario(seed: int) -> tuple[MeshNetwork, set[int]]:
    """A random ru or gather network with crossing unicasts, a stall window
    and, on even seeds, one input VC deep (every full queue credit-blocks the
    head behind it).  Returns the network and the routers whose cached
    routes the caller clears while stepping (a wedged route)."""
    rng = random.Random(seed)
    rows, cols = rng.choice(((2, 4), (3, 3), (4, 4)))
    cfg = MeshConfig(rows=rows, cols=cols, vc_count=rng.choice((1, 2)),
                     buffer_depth=1 if seed % 2 == 0 else rng.choice((2, 4)),
                     pipeline_depth=rng.choice((1, 2, 5)))
    node = NodeId(rng.randrange(rows), rng.randrange(cols))
    port = rng.choice((Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.LOCAL))
    start = rng.randrange(0, 30)
    end = start + rng.randrange(1, 20)

    def stall_fn(cycle, at, out):
        return at == node and out == port and start <= cycle < end

    net = MeshNetwork(cfg, timeout_table=flat_timeout_table(cfg, rng.randrange(0, 20)),
                      stall_fn=stall_fn)
    prev: dict[int, int | None] = {}
    for r in range(rows):
        for c in range(cols):
            at = rng.randrange(0, 15)
            if rng.random() < 0.5:
                prev[r] = net.schedule_unicast_result(NodeId(r, c), 0, at, prev.get(r))
            else:
                net.schedule_post(at, NodeId(r, c), 0)
    for _ in range(rng.randrange(2, 8)):
        src = NodeId(rng.randrange(rows), rng.randrange(cols))
        dst = NodeId(rng.randrange(rows), rng.randrange(cols))
        if src != dst:
            _send(net, src, dst, net.next_packet_id(), cycle=rng.randrange(0, 20))
    wedged = {rng.randrange(rows * cols)} if seed % 3 == 0 else set()
    return net, wedged


def _check_wake_ups(net: MeshNetwork) -> None:
    """Every non-empty input queue sits exactly once across the pending
    wake-up buckets, at or after the clock and not before its head clears
    the pipeline; no empty queue and no empty bucket is pending."""
    pending = [(cycle, key) for cycle, keys in net._wake.items() for key in keys]
    assert all(net._wake.values())
    counts: dict[int, int] = {}
    for cycle, key in pending:
        counts[key] = counts.get(key, 0) + 1
        queue = net._queues[key]
        assert queue, f"empty queue {key} woken at {cycle}"
        assert cycle >= net.cycle and cycle >= queue[0].entered + net.config.pipeline_depth
    assert all(n == 1 for n in counts.values()), "a queue woken more than once"
    assert set(counts) == {key for key, queue in enumerate(net._queues) if queue}


def _check_give_up_state(net: MeshNetwork) -> None:
    """Each gather unit holding a payload whose give-up deadline is still
    ahead sits once in that deadline's bucket, and no other unit sits in
    one; the expiring units hold a payload.  So the network keeps no count
    of the units holding one: each such unit is in its deadline's bucket,
    expiring, or reserved by a packet with flits still queued, and the
    network is busy while any unit holds a payload."""
    assert all(net._deadlines.values())
    pending = sorted((cycle, rid) for cycle, rids in net._deadlines.items() for rid in rids)
    holding = {rid: unit.posted_at + unit.timeout for rid, unit in enumerate(net.units)
               if unit.pending is not None}
    assert pending == sorted((deadline, rid) for rid, deadline in holding.items()
                             if deadline >= net.cycle)
    assert net._expiring <= set(holding)
    queued = {flit.packet_id for queue in (*net._queues, *net._ni) for flit in queue}
    for rid, deadline in holding.items():
        assert (deadline >= net.cycle or rid in net._expiring
                or net.units[rid].reserved_by in queued), rid
    assert net.busy() or not holding


class TestWakeUps:
    @pytest.mark.parametrize("seed", range(24))
    def test_one_wake_up_per_non_empty_queue(self, seed):
        net, wedged = _wake_up_scenario(seed)
        # a stall_fn exempts the network from the watchdog, so a wedged
        # route keeps it busy until the cycle cap
        while net.busy() and net.cycle < 400:
            net.step()
            if net.cycle < 60:
                for rid in wedged:
                    net._routes[rid].clear()
            _check_wake_ups(net)
            _check_give_up_state(net)
        if not wedged:
            net.assert_drained()

    def test_seeded_scenarios_exercise_every_arbitration_branch(self, monkeypatch):
        # the benchmark's rounds never refuse a head, so these scenarios are
        # what covers the retry, round-robin and stall branches of _arbitrate
        seen = Counter()
        pick = network._round_robin

        def round_robin(candidates, start):
            seen["round-robin grant"] += len(candidates) > 1
            return pick(candidates, start)

        monkeypatch.setattr(network, "_round_robin", round_robin)
        for seed in range(24):
            net, wedged = _wake_up_scenario(seed)
            _count_arbitration_branches(net, seen)
            while net.busy() and net.cycle < 400:
                net.step()
                if net.cycle < 60:
                    for rid in wedged:
                        net._routes[rid].clear()
        assert all(seen[branch] for branch in ("no credit", "VC owned by another packet",
                                                "round-robin grant", "stalled output")), seen


def _count_arbitration_branches(net: MeshNetwork, seen: Counter) -> None:
    """Make ``net`` count, in ``seen``, every woken head its arbitration
    refuses for want of credit or because another packet owns its output
    VC (each checked to be woken again the next cycle), and every output
    its ``stall_fn`` stalls."""
    arbitrate, stall_fn = net._arbitrate, net.stall_fn
    depth = net.config.buffer_depth

    def stalled(cycle, node, port):
        stall = stall_fn(cycle, node, port)
        seen["stalled output"] += stall
        return stall

    def counted(t):
        refused = {}
        for key in net._wake[t]:
            flit = net._queues[key][0]
            entry = net._routes[key // net._nq].get(flit.packet_id)
            if entry is None:
                continue
            owner = net._owners[entry[7]]
            if owner != flit.packet_id and (owner is not None or not flit.is_head):
                refused[key] = "VC owned by another packet"
            elif entry[8] >= 0 and len(net._queues[entry[8]]) >= depth:
                refused[key] = "no credit"
        moves = arbitrate(t)
        again = net._wake.get(t + 1, [])
        for key, branch in refused.items():
            assert key in again, (t, key, branch)
            seen[branch] += 1
        return moves

    net._arbitrate = counted
    if stall_fn is not None:
        net.stall_fn = stalled


class TestClockAndScheduling:
    def test_jump_over_a_held_payloads_deadline_is_refused(self):
        # 1x4 row: (0,2) posts at cycle 0 and no packet passes it, so its
        # payload is held until its give-up deadline launches a packet
        cfg = MeshConfig(rows=1, cols=4)
        net = MeshNetwork(cfg)
        net.schedule_post(0, NodeId(0, 2), 5)
        net.step()
        unit = net.units[2]
        assert unit.pending is not None and unit.posted_at + unit.timeout == 15
        with pytest.raises(SimulationError, match="give-up deadline"):
            net.jump_to(100)
        assert net.cycle == 1
        _drain(net)
        assert [p.inject_cycle for p in net.delivered] == [15]
        assert net.timeout_packets == 1
        net.jump_to(100)
        assert net.cycle == 100

    def test_a_drained_network_keeps_no_give_up_state(self):
        # two gather rounds of a 4x4 mesh on one network, as a replay=False
        # run steps them: each row's first PE sends at once and the others,
        # with budgets far past the round, upload into its packet; neither
        # their deadlines nor expiring units outlive the round or the jump
        cfg = MeshConfig(rows=4, cols=4)
        net = MeshNetwork(cfg, timeout_table={(r, c): 0 if c == 0 else 400
                                              for r in range(4) for c in range(4)})
        for start in (0, 1_000):
            if net.cycle < start:
                net.jump_to(start)
            assert not net._deadlines and not net._expiring
            for r in range(cfg.rows):
                for c in range(cfg.cols):
                    net.schedule_post(start + r + c, NodeId(r, c), r * cfg.cols + c)
            net.run_until_idle(start + 100)
            net.assert_drained()
            assert net.timeout_packets == 0 and len(net.delivered) == 4 * (start > 0) + 4
            assert not net._deadlines and not net._expiring

    def test_buffer_traffic_off_the_buffer_column_is_refused_when_scheduled(self):
        # routing such a packet would fail only once it reached its
        # destination, in the middle of a cycle's commits
        cfg = MeshConfig(rows=2, cols=3)
        net = MeshNetwork(cfg)
        flits = build_packet(PacketType.UNICAST, NodeId(0, 0), NodeId(1, 1),
                             [(NodeId(0, 0), 1)], cfg, 0, to_buffer=True)
        with pytest.raises(ConfigError, match="column 2 only"):
            net.schedule_injection(0, NodeId(0, 0), flits)
        assert not net.busy()

    def test_a_second_drain_chain_successor_is_refused_when_scheduled(self):
        # the second successor would never launch: the network would stay
        # busy until its cycle limit.  The refused send leaves no trace
        net = MeshNetwork(MeshConfig(rows=1, cols=4))
        first = net.schedule_unicast_result(NodeId(0, 0), 0, 0, None)
        net.schedule_unicast_result(NodeId(0, 1), 1, 0, first)
        with pytest.raises(ConfigError, match=(
                r"^packet 0 already has a drain-chain successor, packet 1$")):
            net.schedule_unicast_result(NodeId(0, 2), 2, 0, first)
        _drain(net, limit=500)
        assert [pkt.payloads for pkt in net.delivered] == [[(NodeId(0, 0), 0)],
                                                          [(NodeId(0, 1), 1)]]
        assert net.next_packet_id() == 2

    # outstanding work of a 1x4 row that a jump to cycle 100 would skip
    @staticmethod
    def _clock_ahead(net):
        net.jump_to(200)

    @staticmethod
    def _flit_queued(net):
        # the head of a packet sent at cycle 0 is in its local queue
        _send(net, NodeId(0, 0), NodeId(0, 3), net.next_packet_id(),
              payloads=[(NodeId(0, 0), 1)], to_buffer=True)
        net.step()

    @staticmethod
    def _held_payload(net):
        net.schedule_post(0, NodeId(0, 2), 5)     # give-up deadline 15
        net.step()

    @staticmethod
    def _scheduled_post(net):
        net.schedule_post(50, NodeId(0, 2), 5)

    @staticmethod
    def _due_send(net):
        net.schedule_unicast_result(NodeId(0, 0), 0, 50, None)

    @staticmethod
    def _chained_send(net):
        # the predecessor is due at 200, after the jump, and its successor,
        # ready at 50, waits for the predecessor's tail
        first = net.schedule_unicast_result(NodeId(0, 0), 0, 200, None)
        net.schedule_unicast_result(NodeId(0, 1), 1, 50, first)

    _REFUSALS = {
        "_clock_ahead": "cannot jump backwards",
        "_flit_queued": "jump requested while the network is busy",
        "_held_payload": "jump would skip a held payload's give-up deadline",
        "_scheduled_post": "jump would skip scheduled payload posts",
        "_due_send": "jump would skip scheduled packet sends",
        "_chained_send": "jump would skip scheduled packet sends",
    }

    @pytest.mark.parametrize("setup", list(_REFUSALS))
    def test_jump_over_outstanding_work_is_refused(self, setup):
        net = MeshNetwork(MeshConfig(rows=1, cols=4))
        getattr(self, setup)(net)
        start = net.cycle
        with pytest.raises(SimulationError, match=f"^{self._REFUSALS[setup]}$"):
            net.jump_to(100)
        assert net.cycle == start

    @pytest.mark.parametrize("setup", ["_scheduled_post", "_due_send", "_chained_send"])
    def test_jump_up_to_the_cycle_of_scheduled_work_is_allowed(self, setup):
        net = MeshNetwork(MeshConfig(rows=1, cols=4))
        getattr(self, setup)(net)
        net.jump_to(50)
        assert net.cycle == 50
        _drain(net)
        assert len(net.delivered) == 1 + (setup == "_chained_send")


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

    @pytest.mark.parametrize("by_hand", [False, True])
    def test_packet_types_given_as_integers_still_gather(self, by_hand):
        # the kernel compares flit and packet types by identity, so
        # build_packet and schedule_injection turn integers into members
        cfg = MeshConfig(rows=1, cols=8)
        net = MeshNetwork(cfg, timeout_table=flat_timeout_table(cfg, 100))
        net.schedule_post(0, NodeId(0, 4), 44)
        src = NodeId(0, 0)
        flits = build_packet(int(PacketType.GATHER), src, NodeId(0, 7), [(src, 40)], cfg, 0,
                             to_buffer=True)
        assert all(f.pt is PacketType.GATHER for f in flits)
        if by_hand:
            for f in flits:
                f.ft, f.pt = int(f.ft), int(f.pt)
        net.schedule_injection(0, src, flits)
        _drain(net)
        [pkt] = net.delivered
        assert pkt.pt is PacketType.GATHER and net.timeout_packets == 0
        assert sorted(pkt.payloads) == [(src, 40), (NodeId(0, 4), 44)]

    def test_a_reserved_packet_type_is_refused(self):
        with pytest.raises(ConfigError, match="not a PacketType"):
            build_packet(1, NodeId(0, 0), NodeId(0, 7), [], MeshConfig(rows=1, cols=8), 0)

    def test_aspace_consistent_at_delivery(self):
        cfg = MeshConfig(rows=1, cols=8)
        net = MeshNetwork(cfg)
        for c in range(8):
            net.schedule_post(0, NodeId(0, c), c)
        _drain(net)
        pkt = net.delivered[0]
        total_bits = len(pkt.payloads) * cfg.gather_payload_bits
        assert total_bits <= cfg.gather_payload_capacity_bits

    def test_no_event_line_is_built_without_a_log(self, monkeypatch):
        # two-flit gather packets and a flat budget (none at the row start)
        # make a 4x4 run reach every gather event kind
        layer = LayerConfig("t", "t", in_channels=2, kernels=6, kernel_side=1, layer_side=1,
                            input_vectors=7)
        cfg = MeshConfig(rows=4, cols=4, gather_len=2)
        table = {**flat_timeout_table(cfg, 13), (0, 0): 0}
        kinds, log_line = [], MeshNetwork._log

        def spy(self, cycle, node, kind):
            kinds.append(kind.split()[0])
            log_line(self, cycle, node, kind)

        monkeypatch.setattr(MeshNetwork, "_log", spy)
        systolic.run_convolution(layer, cfg, "gather", replay=False, timeout_table=table,
                                 event_log=[])
        assert set(kinds) == {"eject", "post", "load", "upload", "nack", "gather-init",
                              "timeout-init"}
        kinds.clear()
        for replay in (True, False):
            systolic.run_convolution(layer, cfg, "gather", replay=replay, timeout_table=table)
            for mode in ("gather", "ru"):
                systolic.run_convolution(layer, MeshConfig(rows=4, cols=4), mode, replay=replay)
        assert kinds == []


class TestBufferPort:
    # ejects are (eject cycle, router id, label); router ids 7, 15 and 23
    # are the buffer ports of rows 0-2 of an 8-column mesh

    @pytest.mark.parametrize("rate, cycles", [(1, [3, 4, 5]), (2, [3, 3, 4])])
    def test_rate_tails_per_cycle_first_in_first_out(self, rate, cycles):
        ejects = [(3, 7, "a"), (3, 15, "b"), (4, 7, "c")]
        assert buffer_commits(ejects, rate) == list(zip(cycles, ejects))

    def test_same_cycle_tails_queue_by_router_id(self):
        ejects = [(5, 23, "x"), (5, 7, "y"), (5, 15, "z")]
        assert buffer_commits(ejects, 2) == [(5, (5, 7, "y")), (5, (5, 15, "z")),
                                             (6, (5, 23, "x"))]

    def test_a_commit_after_an_idle_gap_waits_for_its_eject_cycle(self):
        ejects = [(2, 7, "a"), (2, 15, "b"), (2, 23, "c"), (10, 7, "d")]
        assert [t for t, _ in buffer_commits(ejects, 2)] == [2, 2, 3, 10]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 31)), min_size=1, max_size=40),
           st.sampled_from((1, 2, 3, 1024)))
    def test_matches_the_stepped_port_and_the_closed_form(self, pairs, rate):
        # a narrow range of eject cycles, so many tails eject in one cycle
        ejects = [(cycle, rid, label) for label, (cycle, rid) in enumerate(pairs)]
        commits = buffer_commits(ejects, rate)
        assert commits == _stepped_port(ejects, rate)
        # the last of n sorted ejects e_k commits at max_k (e_k + ceil((n - k) / R) - 1)
        cycles = sorted(cycle for cycle, _, _ in ejects)
        n = len(cycles)
        assert commits[-1][0] == max(e + -(-(n - k) // rate) - 1 for k, e in enumerate(cycles))


def _stepped_port(ejects, rate: int) -> list:
    """The buffer port stepped cycle by cycle from cycle 0: each cycle
    commits, first in first out, at most ``rate`` tails from the front of
    the (eject cycle, router id) queue whose eject cycle has come."""
    queue, commits, t = deque(sorted(ejects)), [], 0
    while queue:
        for _ in range(rate):
            if not queue or queue[0][0] > t:
                break
            commits.append((t, queue.popleft()))
        t += 1
    return commits


def _row_pairs(net) -> set[int]:
    """The (queue key, output) pairs, as ``key * len(Port) + output``, that
    the packets ``net`` delivered took: each entered at its source's local
    port and crossed its row eastwards through west input ports to the
    buffer port of the last column."""
    cfg = net.config
    nq, last = len(INPUT_PORTS) * cfg.vc_count, cfg.cols - 1
    pairs = set()
    for pkt in net.delivered:
        r, c0 = pkt.src.row, pkt.src.col
        for c in range(c0, cfg.cols):
            port = Port.LOCAL if c == c0 else Port.WEST
            out = Port.EAST if c < last else Port.BUFFER
            key = (r * cfg.cols + c) * nq + port * cfg.vc_count + pkt.vc
            pairs.add(key * len(Port) + out)
    return pairs


def _stalled_gather_round(net: MeshNetwork) -> dict:
    """Every node of ``net``'s mesh posts a result at cycle ``col``; the
    round is drained and its outcome returned (``scenario_outcome``)."""
    cfg = net.config
    for r in range(cfg.rows):
        for c in range(cfg.cols):
            net.schedule_post(c, NodeId(r, c), r * cfg.cols + c)
    _drain(net)
    return scenario_outcome(net)


class TestConstruction:
    @pytest.mark.parametrize("mode", list(systolic.CollectionMode))
    def test_commit_setup_still_holds_the_network_containers(self, mode):
        # _commit reads its containers from a tuple bound at construction,
        # so none of them may be reassigned, by a round (posts or sends,
        # launches, injections, deliveries) or by a clock jump
        cfg = MeshConfig(rows=2, cols=4)
        net = MeshNetwork(cfg, timeout_table=flat_timeout_table(cfg, 3))
        for _ in range(2):
            net.jump_to(net.cycle + 50)
            systolic._simulate_round(net, mode, (2, 4), "set-up probe", net.cycle, 3)
            net.assert_drained()
        assert sum(len(pkt.payloads) for pkt in net.delivered) == 16
        rec = net.counters.recorded
        held = (net._queues, net._entries, net.units, net._nodes, net._routes, net._owners,
                net._rr, net._meta, net._wake, net._tail_watch,
                net._due_sends, net.counters.moves,
                rec["va_arb"], rec["buffer_write"], rec["link_traversal"])
        bound = net._commit_setup
        assert len(bound) == len(held) + 2
        assert all(b is h for b, h in zip(bound, held))
        assert bound[len(held):] == (cfg.pipeline_depth, cfg.buffer_depth)

    def test_public_attributes_set_after_construction_take_effect(self):
        # _commit binds its containers once, but the event log, the stall
        # function and link tracing are read on every call
        cfg = MeshConfig(rows=2, cols=4)
        calls = []

        def stall_fn(cycle, node, port):
            calls.append(cycle)
            return cycle < 30 and node == NodeId(1, 2)

        built = MeshNetwork(cfg, stall_fn=stall_fn, event_log=[], trace_links=True)
        expected = _stalled_gather_round(built)
        stalled_calls = len(calls)
        later = MeshNetwork(cfg)
        later.stall_fn, later.event_log, later.trace_links = stall_fn, [], True
        assert _stalled_gather_round(later) == expected
        assert len(calls) == 2 * stalled_calls > 0
        assert expected["events"] and expected["link_trace"] != "[]"
        # the stall held the packets of row 1 back
        free = _stalled_gather_round(MeshNetwork(cfg))
        assert free["cycle"] < expected["cycle"]
        assert free["events"] is None and free["link_trace"] == "[]"


class TestSharedTables:
    def test_networks_of_one_config_share_the_tables(self):
        cfg = MeshConfig(rows=3, cols=5)
        a, b = MeshNetwork(cfg), MeshNetwork(MeshConfig(rows=3, cols=5),
                                             timeout_table={(1, 2): 7})
        tables = mesh_tables(3, 5, cfg.vc_count)
        assert mesh_tables(3, 5, MeshConfig(rows=3, cols=5).vc_count) is tables
        assert a._entries is b._entries is tables.entries
        assert a._nodes is b._nodes is tables.nodes
        assert all(ua.node is ub.node is node
                   for ua, ub, node in zip(a.units, b.units, tables.nodes, strict=True))
        # queues, owners, pointers, routes, gather units and NI queues stay
        # per network, each a flat table of one entry per index
        routers, ports, vcs = 15, len(Port), cfg.vc_count
        sizes = {"_queues": routers * 5 * vcs, "_owners": routers * ports * vcs,
                 "_rr": routers * ports, "_routes": routers, "units": routers, "_ni": routers}
        for name, size in sizes.items():
            ta, tb = getattr(a, name), getattr(b, name)
            assert ta is not tb and len(ta) == len(tb) == size, name
        # no route dict, unit or NI queue is shared between two networks, or
        # between two indices of one
        for name in ("_routes", "units", "_ni"):
            objects = {id(x) for net in (a, b) for x in getattr(net, name)}
            assert len(objects) == 2 * sizes[name], name
        # an input queue is allocated when its first flit enters: until then
        # every index holds the one empty placeholder
        assert network._UNUSED == ()
        assert all(q is network._UNUSED for net in (a, b) for q in net._queues)
        # an explicit budget overlays the defaults of one network only
        defaults = default_timeout_table(cfg)
        expected = [defaults[r, c] for r in range(3) for c in range(5)]
        assert [u.timeout for u in a.units] == give_up_budgets(cfg) == expected
        expected[1 * 5 + 2] = 7
        assert [u.timeout for u in b.units] == give_up_budgets(cfg, {(1, 2): 7}) == expected

    @pytest.mark.parametrize("mode", list(systolic.CollectionMode))
    def test_input_queues_are_allocated_when_a_flit_first_enters(self, mode):
        cfg = MeshConfig(rows=16, cols=16)
        net = MeshNetwork(cfg)
        systolic._simulate_round(net, mode, (16, 16), "lazy queues", 0,
                                 max(give_up_budgets(cfg)))
        allocated = {key for key, q in enumerate(net._queues) if q is not network._UNUSED}
        assert all(isinstance(net._queues[key], deque) for key in allocated)
        assert allocated == {pair // len(Port) for pair in _row_pairs(net)}
        assert len(net._queues) == 5_120 and len(allocated) < 5_120 // 5

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
            assert second._entries is first._entries
            assert json.loads(json.dumps(scenario_outcome(second))) == expected

    @pytest.mark.parametrize("vcs", [1, 2, 3, 4])
    def test_arbitration_entries_follow_the_state_layout(self, vcs):
        # every (queue key, output) pair of every mesh up to 3x3, each entry
        # forced by reading it, against the module docstring's formulas
        step = {Port.EAST: (0, 1), Port.WEST: (0, -1), Port.NORTH: (-1, 0),
                Port.SOUTH: (1, 0)}
        opposite = {Port.EAST: Port.WEST, Port.WEST: Port.EAST,
                    Port.NORTH: Port.SOUTH, Port.SOUTH: Port.NORTH}
        nq = len(INPUT_PORTS) * vcs
        for rows in (1, 2, 3):
            for cols in (1, 2, 3):
                cfg = MeshConfig(rows=rows, cols=cols, vc_count=vcs)
                entries = mesh_tables(rows, cols, vcs).entries
                for rid in range(rows * cols):
                    row, col = divmod(rid, cols)
                    for port in INPUT_PORTS:
                        for vc in range(vcs):
                            q = port * vcs + vc
                            key = rid * nq + q
                            for out in Port:
                                group = rid * len(OUTPUT_PORTS) + OUTPUT_PORTS.index(out)
                                nkey = nrid = -1
                                if out in step:
                                    r, c = row + step[out][0], col + step[out][1]
                                    if 0 <= r < rows and 0 <= c < cols:
                                        nrid = r * cols + c
                                        nkey = nrid * nq + opposite[out] * vcs + vc
                                entry = entries[key * len(Port) + out]
                                assert entry == (group * nq + q, group, (q + 1) % nq, key,
                                                 out, rid, vc,
                                                 (rid * len(Port) + out) * vcs + vc,
                                                 nkey, nrid)
                                assert type(entry[4]) is Port
                assert len(entries) == rows * cols * nq * len(Port)
        # the memo is the geometry's, so a second network reads the entries
        # the first one forced
        a, b = MeshNetwork(cfg), MeshNetwork(MeshConfig(rows=3, cols=3, vc_count=vcs))
        assert a._entries is b._entries is entries

    def test_configs_of_one_geometry_share_the_tables(self):
        # node ids and entries depend on rows, cols and VCs alone
        cfg = MeshConfig(rows=16, cols=16)
        a, b = MeshNetwork(cfg), MeshNetwork(replace(cfg, buffer_commit_rate=7))
        assert a._entries is b._entries and a._nodes is b._nodes
        assert MeshNetwork(replace(cfg, vc_count=2))._entries is not a._entries
        assert MeshNetwork(replace(cfg, cols=15))._entries is not a._entries

    def test_arbitration_memo_holds_only_the_pairs_traffic_used(self):
        # a fresh cache, so the memo starts empty
        mesh_tables.cache_clear()
        cfg = MeshConfig(rows=16, cols=16)
        net = MeshNetwork(cfg)
        assert len(net._entries) == 0
        systolic._simulate_round(net, systolic.CollectionMode.RU, (16, 16),
                                 "memo probe", 0, max(give_up_budgets(cfg)))
        used = _row_pairs(net)
        assert len(net.delivered) == 256
        assert set(net._entries) == used
        dense = 256 * len(INPUT_PORTS) * cfg.vc_count * len(OUTPUT_PORTS)
        assert dense == 30_720 and len(used) < dense // 10

