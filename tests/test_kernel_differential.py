"""Differential test of the cycle kernel against a frozen copy of the
original full-scan kernel (``seed_kernel.py``).

Both kernels run the same randomized scenarios: result traffic in either
collection mode, extra point-to-point packets, random give-up budgets,
link-stall windows, wedged routes, cycle limits that run out, and small
``replay=False`` convolutions.  Everything observable must match exactly:
delivered packets record for record, the link trace, per-router activity
counters, event-log lines, the final cycle and any error raised.

The reference kernel also models the buffer's shared write port inside its
cycle; the kernel delivers a buffer-bound packet when its tail ejects and
leaves the port to ``systolic.buffer_commits``.  So the scenario test
compares the reference with the kernel's outcome as the port would change
it (``_with_port``): the reference is the port's one independent check.
"""
from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, example, given, settings, strategies as st

import seed_kernel
from gathernoc import network, systolic
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


def _routes_of(net, rid: int) -> dict:
    """The cached routes of router ``rid``: a flat per-network table in the
    kernel, a ``Router`` attribute in the reference."""
    if isinstance(net, seed_kernel.MeshNetwork):
        return net.routers[rid].route_cache
    return net._routes[rid]


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
                _routes_of(net, rid).clear()
        net.run_until_idle(net.cycle + sc["limit"])
        net.assert_drained()
    except GatherNocError as exc:
        error = (type(exc).__name__, str(exc))
    return _outcome(net, error)


# Three packets cross router (0, 1) of a 1x3 row to (0, 2): one arrives on
# its west input port on VC 1 while two wait at its local input port on VCs
# 2 and 3, so heads of two input ports compete for its east output in the
# same cycle and the round-robin pointer picks among them.
_CONTENDED = {
    "cfg": MeshConfig(rows=1, cols=3, vc_count=4, buffer_depth=4, pipeline_depth=1),
    "mode": "gather", "timeouts": None, "stalls": [], "posting": [],
    "extra": [(NodeId(0, 0), NodeId(0, 2), 0), (NodeId(0, 1), NodeId(0, 2), 1),
              (NodeId(0, 1), NodeId(0, 2), 2)],
    "wedged": [], "wedge_cycles": 0, "limit": 200,
}


def _ready_mesh(rows: int, cols: int, limit: int) -> dict:
    """Every PE of a ``rows`` x ``cols`` mesh sends its result at cycle 0
    (ru), one commit per cycle at the buffer port: a backlog that keeps
    the port busy after the network is done."""
    return {
        "cfg": MeshConfig(rows=rows, cols=cols, pipeline_depth=1, buffer_commit_rate=1),
        "mode": "ru", "timeouts": None, "stalls": [], "extra": [],
        "posting": [(NodeId(r, c), 0, r * cols + c) for r in range(rows) for c in range(cols)],
        "wedged": [], "wedge_cycles": 0, "limit": limit,
    }


def _with_port(outcome: dict, cfg: MeshConfig, limit: int) -> dict:
    """``outcome``, a kernel run of ``_run_scenario`` whose cycle limit was
    ``limit``, as the reference kernel reports it: a buffer-bound packet is
    delivered when the port commits it (``buffer_commits`` over the tails'
    ejects), any other when its tail ejects.  In a cycle the reference
    ejects, then commits, so packets go in (commit cycle, to the buffer,
    place in the kernel's list) order, up to the last cycle whose port
    phase ran: the stopped cycle after a watchdog stop, the one before it
    otherwise.  A run that finished with tails still queued steps on to the
    last commit, or stops past ``limit``."""
    delivered = outcome["delivered"]
    port = systolic.buffer_commits(
        [(p["tail_arrival"], p["dst"].index(cfg.cols), i)
         for i, p in enumerate(delivered) if p["to_buffer"]], cfg.buffer_commit_rate)
    commits = [p["tail_arrival"] for p in delivered]
    for cycle, (_, _, i) in port:
        commits[i] = cycle
    error, cycle = outcome["error"], outcome["cycle"]
    last = max(commits, default=-1)
    if error is None and last >= cycle:
        if last > limit:
            error = ("DeadlockError", f"network still busy at cycle {limit + 1} (limit {limit})")
            cycle = limit + 1
        else:
            cycle = last + 1
    ran = cycle if error and error[1].startswith("no flit moved") else cycle - 1
    order = sorted((c, p["to_buffer"], i) for i, (c, p) in enumerate(zip(commits, delivered)))
    return {**outcome, "error": error, "cycle": cycle,
            "delivered": [{**delivered[i], "commit_cycle": c} for c, _, i in order if c <= ran]}


@_SETTINGS
@given(network_scenarios())
@example(_CONTENDED)
# the port still commits after the network is done: 16 tails at one a cycle
# keep the reference stepping from cycle 12 to 21; 20 run it past its limit
@example(_ready_mesh(4, 4, limit=200))
@example(_ready_mesh(5, 4, limit=20))
def test_kernel_matches_seed_kernel_on_random_scenarios(sc):
    limit = (sc["wedge_cycles"] if sc["wedged"] else 0) + sc["limit"]
    assert _with_port(_run_scenario(MeshNetwork, sc), sc["cfg"], limit) == \
        _run_scenario(seed_kernel.MeshNetwork, sc)


def test_contended_example_grants_one_of_several_eligible_heads(monkeypatch):
    picks = []
    pick = network._round_robin

    def spy(candidates, start):
        entry = pick(candidates, start)
        picks.append((len(candidates), candidates.index(entry)))
        return entry

    monkeypatch.setattr(network, "_round_robin", spy)
    _run_scenario(MeshNetwork, _CONTENDED)
    # a cycle grants one of two eligible heads, and the pointer passes over
    # the first candidate in grant order at least once
    assert (2, 0) in picks and (2, 1) in picks


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

