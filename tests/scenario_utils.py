"""Randomized protocol-safety scenarios shared by the safety and acceptance
suites: random payload postings, per-node timeout budgets, and link-stall
windows on a small mesh, with every delivery invariant checked.  Also the
ragged benchmark-size layer the differential suites share."""
from __future__ import annotations

import random

from gathernoc.config import MeshConfig
from gathernoc.network import MeshNetwork
from gathernoc.packet import PacketType
from gathernoc.topology import NodeId, Port
from gathernoc.workload import LayerConfig

_STALL_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.BUFFER, Port.LOCAL)


def run_safety_scenario(seed: int, rows: int = 4, cols: int = 4) -> MeshNetwork:
    """One randomized scenario; raises on any protocol violation, else
    returns the drained network, its event log kept."""
    rng = random.Random(seed)
    cfg = MeshConfig(
        rows=rows,
        cols=cols,
        buffer_depth=rng.choice((2, 3, 4)),
        vc_count=rng.choice((2, 4)),
        buffer_commit_rate=rng.choice((1, 2)),
    )
    mode = rng.choice(("gather", "ru"))

    # random stall windows on router outputs
    stall_windows = []
    for _ in range(rng.randrange(0, 6)):
        node = NodeId(rng.randrange(rows), rng.randrange(cols))
        port = rng.choice(_STALL_PORTS)
        if port == Port.BUFFER and node.col != cols - 1:
            continue
        start = rng.randrange(0, 60)
        stall_windows.append((node, port, start, start + rng.randrange(1, 25)))

    def stall_fn(cycle, node, port):
        return any(n == node and p == port and s <= cycle < e
                   for n, p, s, e in stall_windows)

    timeout_table = {
        (r, c): rng.randrange(0, 30) for r in range(rows) for c in range(cols)
    }
    net = MeshNetwork(cfg, timeout_table=timeout_table, stall_fn=stall_fn,
                      event_log=[], trace_links=True)

    # at most one payload per node, random subset, random post times
    nodes = [NodeId(r, c) for r in range(rows) for c in range(cols)]
    rng.shuffle(nodes)
    posting = sorted(nodes[: rng.randrange(1, rows * cols + 1)],
                     key=lambda n: (n.row, n.col))
    expected = []
    by_row: dict[int, list[NodeId]] = {}
    for node in posting:
        by_row.setdefault(node.row, []).append(node)
    for row_nodes in by_row.values():
        prev_pid = None
        for node in row_nodes:
            value = rng.randrange(0, 2**32)
            at = rng.randrange(0, 40)
            expected.append((node, value))
            if mode == "ru":
                prev_pid = net.schedule_unicast_result(node, value, at, prev_pid)
            else:
                net.schedule_post(at, node, value)

    net.run_until_idle(20_000)
    net.assert_drained()

    delivered = [p for pkt in net.delivered for p in pkt.payloads]
    assert sorted(delivered) == sorted(expected), (
        f"seed {seed}: payload conservation violated"
    )
    for pkt in net.delivered:
        if pkt.pt == PacketType.GATHER:
            bits = len(pkt.payloads) * cfg.gather_payload_bits
            assert bits <= cfg.gather_payload_capacity_bits, (
                f"seed {seed}: gather payload capacity exceeded"
            )
    # wormhole integrity: per (link, vc) the flits of a packet stay
    # contiguous and no packet reappears after its tail
    for (_rid, _port, _vc), events in net.link_trace.items():
        finished = set()
        current = None
        for _cycle, pid in events:
            if pid != current:
                assert pid not in finished, f"seed {seed}: VC interleaving"
                if current is not None:
                    finished.add(current)
                current = pid
    return net


def scenario_outcome(net: MeshNetwork) -> dict:
    """What a drained network observed, as JSON values: the final cycle,
    delivered records, per-router counters, event lines and link trace."""
    return {
        "cycle": net.cycle,
        "delivered": [repr(vars(pkt)) for pkt in net.delivered],
        "counters": net.counters.per_router,
        "events": net.event_log,
        "link_trace": repr(sorted(net.link_trace.items())),
    }


def ragged_case(side: int, mode: str) -> tuple[MeshConfig, LayerConfig, str]:
    """A layer on the default ``side`` x ``side`` mesh, one of the benchmark's
    sizes, whose last row block and last column block are three PEs wide:
    nine rounds in four classes."""
    layer = LayerConfig("ragged", "conv", in_channels=3, kernels=2 * side + 3,
                        kernel_side=1, layer_side=1, input_vectors=2 * side + 3)
    return MeshConfig(rows=side, cols=side), layer, mode
