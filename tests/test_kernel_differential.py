"""Differential test of the cycle kernel against a frozen copy of the
original full-scan kernel (``seed_kernel.py``).

Both kernels run the same randomized scenarios: result traffic in either
collection mode, extra point-to-point packets, random give-up budgets,
link-stall windows, wedged routes, cycle limits that run out, and small
``replay=False`` convolutions.  Everything observable must match exactly:
delivered packets record for record, the link trace, per-router activity
counters, event-log lines, the final cycle and any error raised.
"""
from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, example, given, settings, strategies as st

import seed_kernel
from gathernoc import systolic
from gathernoc.config import MeshConfig
from gathernoc.errors import GatherNocError
from gathernoc.network import MeshNetwork
from gathernoc.packet import PacketType, build_packet
from gathernoc.topology import NodeId, Port
from gathernoc.workload import LayerConfig
from scenario_utils import ragged_case

_STALL_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.BUFFER, Port.LOCAL)

_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def network_scenarios(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    cfg = MeshConfig(
        rows=rows, cols=cols,
        vc_count=draw(st.integers(1, 4)),
        buffer_depth=draw(st.integers(1, 4)),
        pipeline_depth=draw(st.integers(1, 6)),
        unicast_len=draw(st.integers(2, 4)),
        buffer_commit_rate=draw(st.integers(1, 3)),
    )
    nodes = st.builds(NodeId, st.integers(0, rows - 1), st.integers(0, cols - 1))
    stalls = draw(st.lists(st.tuples(nodes, st.sampled_from(_STALL_PORTS),
                                     st.integers(0, 60), st.integers(1, 25)),
                           max_size=5))
    posting = draw(st.lists(st.tuples(nodes, st.integers(0, 40), st.integers(0, 2**32 - 1)),
                            max_size=rows * cols, unique_by=lambda x: x[0]))
    return {
        "cfg": cfg,
        "mode": draw(st.sampled_from(("gather", "ru"))),
        "timeouts": {(r, c): draw(st.integers(0, 30))
                     for r in range(rows) for c in range(cols)}
        if draw(st.booleans()) else None,
        "stalls": [(n, p, s, s + d) for n, p, s, d in stalls
                   if p != Port.BUFFER or n.col == cols - 1],
        "posting": sorted(posting, key=lambda x: (x[0].row, x[0].col)),
        # point-to-point packets ejected at the destination's local port
        "extra": draw(st.lists(st.tuples(nodes, nodes, st.integers(0, 50)), max_size=4)),
        # for the first ``wedge_cycles`` cycles, drop the cached routes of
        # these routers after every step
        "wedged": draw(st.lists(st.integers(0, rows * cols - 1), max_size=2, unique=True)),
        "wedge_cycles": draw(st.integers(0, 40)),
        "limit": draw(st.sampled_from((20, 60, 200, 20_000))),
    }


def _outcome(net, error) -> dict:
    return {
        "error": error,
        "cycle": net.cycle,
        "delivered": [vars(p) for p in net.delivered],
        "link_trace": net.link_trace,
        # the reference kernel grows its counter lists only up to the
        # highest router id it records
        "counters": {kind: [(rid, n) for rid, n in enumerate(counts) if n]
                     for kind, counts in net.counters.per_router.items()},
        "events": net.event_log,
        "flits": (net.flits_injected, net.flits_ejected, net.timeout_packets),
    }


def _run_scenario(network_cls, sc) -> dict:
    cfg = sc["cfg"]
    stalls = sc["stalls"]

    def stall_fn(cycle, node, port):
        return any(n == node and p == port and s <= cycle < e for n, p, s, e in stalls)

    net = network_cls(cfg, timeout_table=sc["timeouts"],
                      stall_fn=stall_fn if stalls else None,
                      event_log=[], trace_links=True)
    prev_pid: dict[int, int | None] = {}
    for node, at, value in sc["posting"]:
        if sc["mode"] == "ru":
            prev_pid[node.row] = net.schedule_unicast_result(
                node, value, at, prev_pid.get(node.row))
        else:
            net.schedule_post(at, node, value)
    for src, dst, at in sc["extra"]:
        pid = net.next_packet_id()
        flits = build_packet(PacketType.UNICAST, src, dst, [(src, pid)], cfg, pid)
        net.schedule_injection(at, src, flits)

    error = None
    try:
        for _ in range(sc["wedge_cycles"] if sc["wedged"] else 0):
            net.step()
            for rid in sc["wedged"]:
                net.routers[rid].route_cache.clear()
        net.run_until_idle(net.cycle + sc["limit"])
        net.assert_drained()
    except GatherNocError as exc:
        error = (type(exc).__name__, str(exc))
    return _outcome(net, error)


@_SETTINGS
@given(network_scenarios())
def test_kernel_matches_seed_kernel_on_random_scenarios(sc):
    assert _run_scenario(MeshNetwork, sc) == _run_scenario(seed_kernel.MeshNetwork, sc)


@st.composite
def convolution_cases(draw):
    cfg = MeshConfig(
        rows=draw(st.integers(1, 4)),
        cols=draw(st.integers(1, 4)),
        vc_count=draw(st.integers(1, 4)),
        buffer_depth=draw(st.integers(1, 4)),
        pipeline_depth=draw(st.integers(1, 6)),
        gather_timeout=draw(st.integers(0, 8)),
        buffer_commit_rate=draw(st.integers(1, 3)),
    )
    layer = LayerConfig("diff", "conv", in_channels=draw(st.integers(1, 3)),
                        kernels=draw(st.integers(1, 6)), kernel_side=1, layer_side=3,
                        input_vectors=draw(st.integers(1, 6)))
    return cfg, layer, draw(st.sampled_from(("ru", "gather")))


def _run_convolution(network_cls, case):
    cfg, layer, mode = case
    events: list[str] = []
    systolic.MeshNetwork = network_cls
    try:
        stats = systolic.run_convolution(layer, cfg, mode, seed=3, replay=False,
                                         event_log=events)
    except GatherNocError as exc:
        return (type(exc).__name__, str(exc)), events
    finally:
        systolic.MeshNetwork = MeshNetwork
    return dataclasses.asdict(stats), events


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(convolution_cases())
# the benchmark's mesh sizes, with ragged final blocks
@example(ragged_case(8, "ru"))
@example(ragged_case(8, "gather"))
@example(ragged_case(16, "ru"))
@example(ragged_case(16, "gather"))
def test_kernel_matches_seed_kernel_on_convolutions(case):
    assert _run_convolution(MeshNetwork, case) == \
        _run_convolution(seed_kernel.MeshNetwork, case)

