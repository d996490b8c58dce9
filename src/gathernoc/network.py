"""Cycle-accurate mesh network.

All routers advance in a deterministic two-phase cycle: output arbitration
reads the pre-cycle state everywhere, then all granted moves commit at once,
so intra-cycle iteration order cannot leak into results.  A flit spends
exactly ``pipeline_depth`` cycles in an uncontended router (route
computation, VC and switch allocation, switch and link traversal); body and
tail flits ride the same stages, which is where gather payload uploads
happen without costing extra cycles.

The global result buffer hangs off every right-edge router through a
dedicated output with unbounded flit acceptance.  Committing a delivered
packet's payload into the buffer is a transaction on a shared write port
that handles ``buffer_commit_rate`` packets per cycle; under repetitive
unicast the many small packets queue on that port, which is the measured
congestion component of collection latency.

Arbitration invariant.  Each cycle every output port of every router grants
at most one flit, decided on the pre-cycle state:

* a candidate is the head of an (input port, VC) queue that entered the
  router at least ``pipeline_depth`` cycles ago, whose cached route is this
  output, that may use the output VC (a head needs the VC free or owned by
  its own packet, a body or tail flit needs its packet to own it), and
  whose downstream input VC has a free slot (credit);
* candidates are ranked by the flat index ``input_port * vc_count + vc``,
  input ports in ``INPUT_PORTS`` order; the grant goes to the first
  candidate at or after the output's round-robin pointer, cyclically, and
  the pointer then moves to the index after the grant;
* grants are listed router by router in id order, and within a router in
  ``OUTPUT_PORTS`` order; they are committed afterwards, in that order.

A head is routed where it lands: at injection, and in the commit phase at
the router it enters, so the phase after the commit sees only gather flits
and runs their load/upload/nack handshake.  Every packet sent to the
buffer is addressed to the buffer column (``schedule_injection`` checks the
packets it is handed), so routing never fails partway through a commit.

A cycle costs time in proportion to what is present, not to the size of the
mesh: arbitration visits only queue heads whose pipeline delay has passed
(heads still in the pipeline wait in per-cycle wake-up buckets), gather
units are looked at only once their give-up deadline has passed, and only
non-empty NI queues and due sends are touched.  Event-log lines are
formatted only when a log is attached.  ``stall_fn`` must be a pure
function of its arguments: it is consulted only for outputs that have a
candidate.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

from .config import MeshConfig, check_timeout_table, default_timeout_table
from .errors import ConfigError, DeadlockError, DrainError, SimulationError
from .packet import Flit, FlitType, PacketType, build_packet, payload_bits
from .power import ActivityCounters
from .router import GatherPayload, Router, gather_load_check, upload_payload
from .topology import INPUT_PORTS, NodeId, Port, step_toward, xy_route

OUTPUT_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.LOCAL, Port.BUFFER)
# grant order of each output port (indexed by port value) within a router
_OUT_RANK = [OUTPUT_PORTS.index(p) for p in Port]

_OPPOSITE = {
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
}

_HEAD = FlitType.HEAD
_TAIL = FlitType.TAIL
_GATHER = PacketType.GATHER


@dataclass
class DeliveredPacket:
    packet_id: int
    pt: PacketType
    src: NodeId
    dst: NodeId
    to_buffer: bool
    payloads: list[tuple[NodeId, int]]
    hops: int                 # inter-router links crossed by the head
    inject_cycle: int
    head_arrival: int
    tail_arrival: int
    commit_cycle: int
    flit_count: int
    vc: int
    timeout_init: bool


@dataclass
class _PendingSend:
    node: NodeId
    flits: list[Flit]
    ready_at: int


@dataclass
class _PacketMeta:
    inject_cycle: int = -1
    hops: int = 0
    head_arrival: int = -1
    timeout_init: bool = False


@dataclass(frozen=True)
class _MeshTables:
    """The read-only tables of one ``MeshConfig``, shared by all its
    networks: the node of each router id, the downstream link of each
    (router, output port) as ``(router id, queue key of the opposite input
    port's VC 0)``, None for the sinks, and the default give-up budget of
    each router id."""

    nodes: tuple[NodeId, ...]
    down: tuple[tuple[tuple[int, int] | None, ...], ...]
    budgets: tuple[int, ...]


@lru_cache(maxsize=64)
def mesh_tables(config: MeshConfig) -> _MeshTables:
    """The tables of ``config``, built once per config and process."""
    nodes = tuple(NodeId(r, c) for r in range(config.rows) for c in range(config.cols))
    nq = len(INPUT_PORTS) * config.vc_count
    down = []
    for node in nodes:
        links: list[tuple[int, int] | None] = [None] * len(Port)
        for port, opposite in _OPPOSITE.items():
            nxt = step_toward(node, port)
            if 0 <= nxt.row < config.rows and 0 <= nxt.col < config.cols:
                nrid = nxt.index(config.cols)
                links[port] = (nrid, nrid * nq + opposite * config.vc_count)
        down.append(tuple(links))
    table = default_timeout_table(config)
    return _MeshTables(nodes, tuple(down), tuple(table[n.row, n.col] for n in nodes))


class MeshNetwork:
    def __init__(
        self,
        config: MeshConfig,
        timeout_table: dict[tuple[int, int], int] | None = None,
        stall_fn=None,
        event_log: list[str] | None = None,
        trace_links: bool = False,
    ) -> None:
        self.config = config
        self.cycle = 0
        tables = mesh_tables(config)
        # per-node give-up budgets: explicit entries overlay the default
        # distance staircase
        budgets = tables.budgets
        if timeout_table:
            check_timeout_table(config, timeout_table)
            budgets = list(budgets)
            for (r, c), budget in timeout_table.items():
                budgets[r * config.cols + c] = budget
        self.routers: list[Router] = [
            Router(node, config, budget) for node, budget in zip(tables.nodes, budgets)
        ]
        self.counters = ActivityCounters()
        self.counters.reserve(len(self.routers))
        self.stall_fn = stall_fn          # (cycle, node, out_port) -> bool
        self.event_log = event_log
        self.trace_links = trace_links
        self.link_trace: dict[tuple[int, Port, int], list[tuple[int, int]]] = {}

        # queue key of an (input port, vc) queue: rid * _nq + port * vc_count + vc;
        # _queues lists every router's queues by key
        self._vcs = config.vc_count
        self._nq = len(INPUT_PORTS) * config.vc_count
        self._queues = [queue for router in self.routers for queue in router.queues]
        self._down = tables.down

        self._next_packet_id = 0
        self._meta: dict[int, _PacketMeta] = {}
        self._queued = 0                                  # flits in router queues
        self._wake: dict[int, list[int]] = {}             # ready cycle -> queue keys
        self._ready: set[int] = set()                     # keys of heads past the pipeline
        self._ni: list[deque[Flit]] = [deque() for _ in self.routers]
        self._ni_busy: set[int] = set()                   # rids with a non-empty NI queue
        self._posts: dict[int, list[tuple[NodeId, GatherPayload]]] = {}
        self._holding = 0                                 # gather units holding a payload
        self._deadlines: list[tuple[int, int]] = []       # (give-up cycle, rid) heap
        self._expiring: set[int] = set()                  # rids past a give-up deadline
        self._pending_sends: dict[int, _PendingSend] = {}  # by schedule order
        self._due_sends: list[tuple[int, int]] = []       # (eligible cycle, seq) heap
        self._send_seq = 0
        self._tail_watch: dict[int, tuple[NodeId, int]] = {}
        self._staging: dict[int, list[Flit]] = {}
        self._commit_queue: deque[tuple[int, int, int]] = deque()  # (arrival, rid, pid)
        self.delivered: list[DeliveredPacket] = []
        self.flits_injected = 0
        self.flits_ejected = 0
        self.timeout_packets = 0
        self._idle_streak = 0

    # ------------------------------------------------------------------ api

    def next_packet_id(self) -> int:
        pid = self._next_packet_id
        self._next_packet_id += 1
        return pid

    def buffer_node(self, row: int) -> NodeId:
        return NodeId(row, self.config.cols - 1)

    def schedule_post(self, cycle: int, node: NodeId, value: int) -> GatherPayload:
        """Make ``node``'s result payload pending from ``cycle`` on (gather mode)."""
        payload = GatherPayload(origin=node, value=value, dst=self.buffer_node(node.row))
        self._posts.setdefault(cycle, []).append((node, payload))
        return payload

    def schedule_unicast_result(
        self,
        node: NodeId,
        value: int,
        ready_cycle: int,
        after_packet: int | None,
    ) -> int:
        """Queue a result unicast that launches once its predecessor's tail
        has passed this node (in-order drain chain).  Returns the packet id."""
        pid = self.next_packet_id()
        flits = build_packet(
            PacketType.UNICAST, node, self.buffer_node(node.row), [(node, value)],
            self.config, pid
        )
        for f in flits:
            f.to_buffer = True
        self._meta[pid] = _PacketMeta()
        seq = self._add_send(_PendingSend(node=node, flits=flits, ready_at=ready_cycle))
        if after_packet is None:
            heappush(self._due_sends, (ready_cycle, seq))
        else:
            # due once the predecessor's tail has reached this node (_commit)
            self._tail_watch[after_packet] = (node, seq)
        return pid

    def schedule_injection(self, cycle: int, node: NodeId, flits: list[Flit],
                           to_buffer: bool = False) -> None:
        """Low-level: push a pre-built packet into a node's injection queue
        at a given cycle (used by protocol tests)."""
        pid, dst = flits[0].packet_id, flits[0].dst
        if to_buffer and dst.col != self.config.cols - 1:
            raise ConfigError(
                f"packet {pid} is sent to the buffer at {dst}, but the buffer is "
                f"attached to column {self.config.cols - 1} only"
            )
        for f in flits:
            f.to_buffer = to_buffer
        if pid >= self._next_packet_id:
            self._next_packet_id = pid + 1
        self._meta[pid] = _PacketMeta()
        seq = self._add_send(_PendingSend(node=node, flits=flits, ready_at=cycle))
        heappush(self._due_sends, (cycle, seq))

    def _add_send(self, send: _PendingSend) -> int:
        seq = self._send_seq
        self._send_seq += 1
        self._pending_sends[seq] = send
        return seq

    # ------------------------------------------------------------- lifecycle

    def busy(self) -> bool:
        return bool(self._queued or self._ni_busy or self._commit_queue
                    or self._pending_sends or self._posts or self._holding)

    def jump_to(self, cycle: int) -> None:
        """Advance the clock over a provably idle stretch."""
        if cycle < self.cycle:
            raise SimulationError("cannot jump backwards")
        if self._queued or self._ni_busy or self._commit_queue or self._staging:
            raise SimulationError("jump requested while the network is busy")
        if self._holding:
            raise SimulationError("jump would skip a held payload's give-up deadline")
        if any(t < cycle for t in self._posts):
            raise SimulationError("jump would skip scheduled payload posts")
        if any(s.ready_at < cycle for s in self._pending_sends.values()):
            raise SimulationError("jump would skip scheduled packet sends")
        self.cycle = cycle

    def run_until_idle(self, limit: int) -> None:
        while self.busy():
            if self.cycle > limit:
                raise DeadlockError(
                    f"network still busy at cycle {self.cycle} (limit {limit})"
                )
            self.step()

    def assert_drained(self) -> None:
        if self._queued or self._ni_busy or self._staging or self._commit_queue:
            raise DrainError("network did not drain: flits or commits left behind")
        if self._pending_sends or self._posts:
            raise DrainError("network did not drain: scheduled work left behind")
        if self._holding:
            raise DrainError("network did not drain: a payload is still pending")
        if self.flits_injected != self.flits_ejected:
            raise DrainError(
                f"flit conservation violated: {self.flits_injected} injected, "
                f"{self.flits_ejected} ejected"
            )

    # ----------------------------------------------------------------- cycle

    def step(self) -> None:
        t = self.cycle
        moves = self._arbitrate(t)
        arrivals = self._commit(moves, t)
        self._process_arrivals(arrivals, t)
        self._commit_buffer_transactions(t)
        self._node_phase(t)
        self._watchdog(t, bool(moves))
        self.cycle = t + 1

    # phase 1: read-only arbitration over the ready queue heads
    def _arbitrate(self, t: int):
        ready = self._ready
        woken = self._wake.pop(t, None)
        if woken is not None:
            ready.update(woken)
        if not ready:
            return []
        nq, vcs, depth = self._nq, self._vcs, self.config.buffer_depth
        routers, down, queues = self.routers, self._down, self._queues
        n_out = len(OUTPUT_PORTS)
        # eligible heads as (router, output rank, queue) packed into one int,
        # so that sorting lists them in grant order
        eligible = []
        for key in ready:
            rid, q = divmod(key, nq)
            router = routers[rid]
            flit = router.queues[q][0][1]
            pid = flit.packet_id
            out = router.route_cache.get(pid)
            if out is None:
                continue
            vc = q % vcs
            owner = router.link_owner[out * vcs + vc]
            if owner != pid and (owner is not None or flit.ft != _HEAD):
                continue          # wormhole: the output VC belongs to another packet
            link = down[rid][out]
            if link is not None and len(queues[link[1] + vc]) >= depth:
                continue          # no credit downstream
            eligible.append((rid * n_out + _OUT_RANK[out]) * nq + q)
        eligible.sort()

        stall_fn = self.stall_fn
        moves = []
        i, n = 0, len(eligible)
        while i < n:
            group, q = divmod(eligible[i], nq)
            j = i + 1
            while j < n and eligible[j] // nq == group:
                j += 1
            rid, rank = divmod(group, n_out)
            out = OUTPUT_PORTS[rank]
            router = routers[rid]
            if stall_fn is None or not stall_fn(t, router.node, out):
                if j > i + 1:
                    # first candidate at or after the pointer, cyclically
                    start = group * nq + router.rr[out]
                    q = next((c for c in eligible[i:j] if c >= start), eligible[i]) - group * nq
                router.rr[out] = (q + 1) % nq
                moves.append((rid, q, out))
            i = j
        return moves

    # phase 2: commit all granted moves simultaneously, routing each head at
    # the router it enters
    def _commit(self, moves, t: int):
        arrivals = []
        if not moves:
            return arrivals
        routers, nq, vcs, down, queues = self.routers, self._nq, self._vcs, self._down, self._queues
        cfg = self.config
        pipeline, depth, cols = cfg.pipeline_depth, cfg.buffer_depth, cfg.cols
        wake, ready, meta, watch = self._wake, self._ready, self._meta, self._tail_watch
        trace = self.link_trace if self.trace_links else None
        moved, rec = self.counters.moves, self.counters.recorded
        va, writes, links = rec["va_arb"], rec["buffer_write"], rec["link_traversal"]
        for rid, q, out in moves:
            router = routers[rid]
            queue = router.queues[q]
            flit = queue.popleft()[1]
            key = rid * nq + q
            if queue:
                # the next head stays ready if its delay has already passed
                at = queue[0][0] + pipeline
                if at > t:
                    ready.discard(key)
                    wake.setdefault(at, []).append(key)
            else:
                ready.discard(key)
            pid, ft = flit.packet_id, flit.ft
            vc = q % vcs
            moved[rid] += 1
            owners, slot = router.link_owner, out * vcs + vc
            if ft == _HEAD:
                if owners[slot] is None:
                    va[rid] += 1
                owners[slot] = pid
            elif ft == _TAIL:
                owners[slot] = None
                router.route_cache.pop(pid, None)
            if trace is not None:
                trace.setdefault((rid, out, vc), []).append((t, pid))

            link = down[rid][out]
            if link is None:
                self._queued -= 1
                self._eject(flit, rid, out, t)
                continue
            nrid, nkey = link
            nkey += vc
            nqueue = queues[nkey]
            if len(nqueue) >= depth:
                raise SimulationError("credit discipline violated")
            if not nqueue:
                wake.setdefault(t + pipeline, []).append(nkey)
            nqueue.append((t, flit))
            nrouter = routers[nrid]
            writes[nrid] += 1
            links[rid] += 1
            if flit.pt == _GATHER:
                arrivals.append((nrouter, flit))
            if ft == _HEAD:
                meta[pid].hops += 1
                nrouter.route_cache[pid] = xy_route(nrouter.node, flit.dst, cols, flit.to_buffer)
            elif ft == _TAIL and pid in watch:
                node, seq = watch[pid]
                if node == nrouter.node:
                    del watch[pid]
                    ready_at = self._pending_sends[seq].ready_at
                    heappush(self._due_sends, (max(ready_at, t + 1), seq))
        return arrivals

    def _eject(self, flit: Flit, rid: int, out_port: Port, t: int) -> None:
        pid, ft = flit.packet_id, flit.ft
        self.flits_ejected += 1
        if ft == _HEAD:
            self._meta[pid].head_arrival = t
        self._staging.setdefault(pid, []).append(flit)
        if self.event_log is not None:
            self._log(t, self.routers[rid].node, f"eject pid={pid} {ft.name.lower()}")
        if ft == _TAIL:
            if out_port == Port.BUFFER:
                self._commit_queue.append((t, rid, pid))
            else:
                self._finish_packet(pid, tail_arrival=t, commit=t, to_buffer=False)

    def _finish_packet(self, pid: int, tail_arrival: int, commit: int, to_buffer: bool) -> None:
        flits = self._staging.pop(pid)
        meta = self._meta.pop(pid)
        cfg = self.config
        payloads = [slot for f in flits for slot in f.payload_slots]
        if flits[0].pt == PacketType.GATHER:
            total_bits = payload_bits(payloads, cfg)
            if total_bits > cfg.gather_payload_capacity_bits:
                raise SimulationError("gather packet exceeded its payload capacity")
            if flits[0].aspace != cfg.gather_payload_capacity_bits - total_bits:
                raise SimulationError("head free-space field out of sync with payloads")
        self.delivered.append(
            DeliveredPacket(
                packet_id=pid,
                pt=flits[0].pt,
                src=flits[0].src,
                dst=flits[0].dst,
                to_buffer=to_buffer,
                payloads=payloads,
                hops=meta.hops,
                inject_cycle=meta.inject_cycle,
                head_arrival=meta.head_arrival,
                tail_arrival=tail_arrival,
                commit_cycle=commit,
                flit_count=len(flits),
                vc=flits[0].vc,
                timeout_init=meta.timeout_init,
            )
        )

    # phase 3: the gather handshake of the gather flits that arrived
    def _process_arrivals(self, arrivals, t: int) -> None:
        cfg = self.config
        for router, flit in arrivals:
            pid = flit.packet_id
            unit = router.unit
            if flit.ft == _HEAD:
                if gather_load_check(flit, unit, cfg):
                    self._log(t, router.node, f"load pid={pid}")
            elif unit.reserved_by == pid:
                if upload_payload(flit, unit, cfg):
                    self._holding -= 1
                    rid = router.node.index(cfg.cols)
                    self.counters.record("payload_upload", rid)
                    self._log(t, router.node, f"upload pid={pid} ack")
            if flit.ft == _TAIL:
                if unit.reserved_by == pid:
                    raise SimulationError(
                        f"reserved upload never completed at {router.node}"
                    )
                if unit.has_unreserved_payload:
                    unit.nack()
                    self._log(t, router.node, f"nack pid={pid}")

    # phase 4: shared buffer write port commits queued packet transactions
    def _commit_buffer_transactions(self, t: int) -> None:
        """Commit this cycle's share of the buffer port's queue, by the
        port rule that ``buffer_commits`` states: tails queue in (eject
        cycle, router id) order, and the port commits them first in, first
        out, ``buffer_commit_rate`` per cycle, each at the earliest in its
        eject cycle."""
        budget = self.config.buffer_commit_rate
        while budget and self._commit_queue and self._commit_queue[0][0] <= t:
            arrival, _rid, pid = self._commit_queue.popleft()
            self._finish_packet(pid, tail_arrival=arrival, commit=t, to_buffer=True)
            budget -= 1

    # phase 5: PE-side work: posts, drain chain, timeouts, injection
    def _node_phase(self, t: int) -> None:
        cfg = self.config
        routers = self.routers
        posts = self._posts.pop(t, None)
        if posts:
            for node, payload in posts:
                rid = node.index(cfg.cols)
                unit = routers[rid].unit
                unit.post(payload, t)
                self._holding += 1
                heappush(self._deadlines, (t + unit.timeout, rid))
                self._log(t, node, "post")

        due = self._due_sends
        if due and due[0][0] <= t:
            launch = []
            while due and due[0][0] <= t:
                launch.append(heappop(due)[1])
            for seq in sorted(launch):
                send = self._pending_sends.pop(seq)
                rid = send.node.index(cfg.cols)
                self._ni[rid].extend(send.flits)
                self._ni_busy.add(rid)
                if self.event_log is not None:
                    self._log(t, send.node, f"send pid={send.flits[0].packet_id}")

        deadlines, expiring = self._deadlines, self._expiring
        while deadlines and deadlines[0][0] <= t:
            expiring.add(heappop(deadlines)[1])
        for rid in sorted(expiring):
            router = routers[rid]
            unit = router.unit
            if not unit.expired(t):
                # served, reserved, or re-posted with a deadline of its own
                expiring.discard(rid)
                continue
            if self._ni[rid]:
                continue
            expiring.discard(rid)
            payload = unit.take_for_self()
            self._holding -= 1
            pid = self.next_packet_id()
            flits = build_packet(
                PacketType.GATHER, router.node, payload.dst,
                [(payload.origin, payload.value)], cfg, pid,
            )
            for f in flits:
                f.to_buffer = True
            meta = _PacketMeta(inject_cycle=t)
            meta.timeout_init = unit.timeout > 0
            if meta.timeout_init:
                self.timeout_packets += 1
            self._meta[pid] = meta
            self._ni[rid].extend(flits)
            self._ni_busy.add(rid)
            kind = "timeout-init" if meta.timeout_init else "gather-init"
            self._log(t, router.node, f"{kind} pid={pid}")

        if not self._ni_busy:
            return
        nq, pipeline, depth = self._nq, cfg.pipeline_depth, cfg.buffer_depth
        counts = self.counters.recorded["buffer_write"]
        for rid in sorted(self._ni_busy):
            queue = self._ni[rid]
            flit = queue[0]
            router = routers[rid]
            q = Port.LOCAL * self._vcs + flit.vc
            local = router.queues[q]
            if len(local) >= depth:
                continue
            queue.popleft()
            if not queue:
                self._ni_busy.discard(rid)
            if not local:
                self._wake.setdefault(t + pipeline, []).append(rid * nq + q)
            local.append((t, flit))
            self._queued += 1
            self.flits_injected += 1
            counts[rid] += 1
            if flit.ft == _HEAD:
                # an initiator carries its own payload from birth, so the
                # gather handshake runs only at routers the packet arrives at
                pid = flit.packet_id
                self._meta[pid].inject_cycle = t
                router.route_cache[pid] = xy_route(
                    router.node, flit.dst, cfg.cols, sink_is_buffer=flit.to_buffer
                )

    def _watchdog(self, t: int, progressed: bool) -> None:
        if progressed or not self._queued:
            self._idle_streak = 0
            return
        if self.stall_fn is not None:
            # externally stalled cycles are exempt from the progress check
            self._idle_streak = 0
            return
        self._idle_streak += 1
        limit = 4 * self.config.pipeline_depth + self.config.buffer_depth + 8
        if self._idle_streak > limit:
            raise DeadlockError(
                f"no flit moved for {self._idle_streak} cycles at cycle {t} "
                f"with {self._queued} flits queued"
            )

    def _log(self, cycle: int, node: NodeId, kind: str) -> None:
        if self.event_log is not None:
            self.event_log.append(f"{cycle} {node} {kind}")


def buffer_commits(ejects, rate: int) -> list[tuple[int, tuple]]:
    """Replay the buffer's shared write port over ``ejects``, tuples that
    start with the eject cycle and the router id of a packet's tail, and
    return ``(commit cycle, eject)`` pairs in commit order.

    The port rule, which ``MeshNetwork._commit_buffer_transactions`` applies
    cycle by cycle: tails queue in (eject cycle, router id) order, at most
    one per router per cycle, and the port commits them first in, first
    out, ``rate`` per cycle, each at the earliest in its eject cycle.  The
    port never holds a flit back, so the network's timing does not depend
    on it.
    """
    commits: list[tuple[int, tuple]] = []
    t, used = -1, 0
    for eject in sorted(ejects):
        if eject[0] > t:
            t, used = eject[0], 0
        elif used == rate:
            t, used = t + 1, 0
        commits.append((t, eject))
        used += 1
    return commits
