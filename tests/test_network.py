import json
import os
import random
import subprocess
import sys
from collections import deque
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
        assert cycle >= net.cycle and cycle >= queue[0][0] + net.config.pipeline_depth
    assert all(n == 1 for n in counts.values()), "a queue woken more than once"
    assert set(counts) == {key for key, queue in enumerate(net._queues) if queue}


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
        if not wedged:
            net.assert_drained()


class TestClockAndScheduling:
    def test_jump_over_a_held_payloads_deadline_is_refused(self):
        # 1x4 row: (0,2) posts at cycle 0 and no packet passes it, so its
        # payload is held until its give-up deadline launches a packet
        cfg = MeshConfig(rows=1, cols=4)
        net = MeshNetwork(cfg)
        net.schedule_post(0, NodeId(0, 2), 5)
        net.step()
        unit = net.units[2]
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
                             [(NodeId(0, 0), 1)], cfg, 0, to_buffer=True)
        with pytest.raises(ConfigError, match="column 2 only"):
            net.schedule_injection(0, NodeId(0, 0), flits)
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

