"""Frozen copy of the original cycle kernel, kept only as the reference
for the randomized differential test in ``test_kernel_differential.py``.

It is the full-scan kernel the package shipped before the work-proportional
rewrite: every cycle it visits every active router, every output port and
every (input port, VC) queue, and polls every router's gather unit.  Do not
edit it; its value is that it does not change.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from gathernoc.config import MeshConfig, default_timeout_table
from gathernoc.errors import DeadlockError, DrainError, SimulationError
from gathernoc.packet import Flit, PacketType, build_packet, payload_bits
from gathernoc.power import ActivityCounters
from gathernoc.router import GatherPayload, GatherUnit, gather_load_check, upload_payload
from gathernoc.topology import INPUT_PORTS, NodeId, Port, step_toward, xy_route


@dataclass
class _QueueEntry:
    flit: Flit
    enter: int           # cycle the flit entered this input queue


class Router:
    """Per-node switching state; the network advances all routers in a
    deterministic two-phase cycle."""

    def __init__(self, node: NodeId, config: MeshConfig, timeout: int) -> None:
        self.node = node
        self.config = config
        self.queues: dict[Port, list[deque[_QueueEntry]]] = {
            p: [deque() for _ in range(config.vc_count)] for p in INPUT_PORTS
        }
        # wormhole ownership per (output port, vc): packet id or None
        self.link_owner: dict[tuple[Port, int], int | None] = {}
        # cached output port per packet id, set when the head is routed
        self.route_cache: dict[int, Port] = {}
        # round-robin pointer per output port over (input port, vc) pairs
        self.rr: dict[Port, int] = {}
        self.unit = GatherUnit(node, timeout)
        # packet ids whose head already triggered a load decision here
        self.load_checked: set[int] = set()

    def occupancy(self, port: Port, vc: int) -> int:
        return len(self.queues[port][vc])

    def has_space(self, port: Port, vc: int) -> bool:
        return self.occupancy(port, vc) < self.config.buffer_depth

    def is_empty(self) -> bool:
        return all(not q for qs in self.queues.values() for q in qs)

    def pending_flits(self) -> int:
        return sum(len(q) for qs in self.queues.values() for q in qs)


OUTPUT_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.LOCAL, Port.BUFFER)

_OPPOSITE = {
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
}


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
    after_packet: int | None = None
    after_seen_at: int | None = None

    def eligible(self, now: int) -> bool:
        if now < self.ready_at:
            return False
        if self.after_packet is None:
            return True
        return self.after_seen_at is not None and now > self.after_seen_at


@dataclass
class _PacketMeta:
    flits: list[Flit]
    inject_cycle: int = -1
    hops: int = 0
    head_arrival: int = -1
    timeout_init: bool = False


class MeshNetwork:
    def __init__(
        self,
        config: MeshConfig,
        timeout_table: dict[tuple[int, int], int] | None = None,
        counters: ActivityCounters | None = None,
        stall_fn=None,
        event_log: list[str] | None = None,
        trace_links: bool = False,
    ) -> None:
        self.config = config
        self.cycle = 0
        # per-node give-up budgets: explicit entries overlay the default
        # distance staircase
        table = default_timeout_table(config)
        if timeout_table:
            table.update(timeout_table)
        self.routers: list[Router] = [
            Router(NodeId(r, c), config, table[(r, c)])
            for r in range(config.rows)
            for c in range(config.cols)
        ]
        self.counters = counters if counters is not None else ActivityCounters()
        self.stall_fn = stall_fn          # (cycle, node, out_port) -> bool
        self.event_log = event_log
        self.trace_links = trace_links
        self.link_trace: dict[tuple[int, Port, int], list[tuple[int, int]]] = {}

        self._next_packet_id = 0
        self._meta: dict[int, _PacketMeta] = {}
        self._ni: list[deque[Flit]] = [deque() for _ in self.routers]
        self._posts: dict[int, list[tuple[NodeId, GatherPayload]]] = {}
        self._pending_sends: list[_PendingSend] = []
        self._tail_watch: dict[int, tuple[NodeId, _PendingSend]] = {}
        self._staging: dict[int, list[Flit]] = {}
        self._commit_queue: deque[tuple[int, int, int]] = deque()  # (arrival, rid, pid)
        self.delivered: list[DeliveredPacket] = []
        self.flits_injected = 0
        self.flits_ejected = 0
        self.timeout_packets = 0
        self._active: set[int] = set()
        self._idle_streak = 0

    # ------------------------------------------------------------------ api

    def router_at(self, node: NodeId) -> Router:
        return self.routers[node.index(self.config.cols)]

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
        to_buffer: bool = True,
        dst: NodeId | None = None,
    ) -> int:
        """Queue a result unicast that launches once its predecessor's tail
        has passed this node (in-order drain chain).  Returns the packet id."""
        pid = self.next_packet_id()
        dst = dst if dst is not None else self.buffer_node(node.row)
        flits = build_packet(
            PacketType.UNICAST, node, dst, [(node, value)], self.config, pid
        )
        for f in flits:
            f.to_buffer = to_buffer
        self._meta[pid] = _PacketMeta(flits=flits)
        send = _PendingSend(node=node, flits=flits, ready_at=ready_cycle,
                            after_packet=after_packet)
        self._pending_sends.append(send)
        if after_packet is not None:
            self._tail_watch[after_packet] = (node, send)
        return pid

    def schedule_injection(self, cycle: int, node: NodeId, flits: list[Flit],
                           to_buffer: bool = False) -> None:
        """Low-level: push a pre-built packet into a node's injection queue
        at a given cycle (used by protocol tests)."""
        for f in flits:
            f.to_buffer = to_buffer
        pid = flits[0].packet_id
        if pid >= self._next_packet_id:
            self._next_packet_id = pid + 1
        self._meta[pid] = _PacketMeta(flits=flits)
        send = _PendingSend(node=node, flits=flits, ready_at=cycle)
        self._pending_sends.append(send)

    # ------------------------------------------------------------- lifecycle

    def busy(self) -> bool:
        if self._commit_queue or self._pending_sends or self._posts:
            return True
        if any(self._ni[i] for i in range(len(self._ni))):
            return True
        if self._active:
            return True
        return any(r.unit.pending is not None for r in self.routers)

    def network_empty(self) -> bool:
        return not self._active and not any(self._ni)

    def jump_to(self, cycle: int) -> None:
        """Advance the clock over a provably idle stretch."""
        if cycle < self.cycle:
            raise SimulationError("cannot jump backwards")
        if self._active or any(self._ni) or self._commit_queue or self._staging:
            raise SimulationError("jump requested while the network is busy")
        if any(t < cycle for t in self._posts):
            raise SimulationError("jump would skip scheduled payload posts")
        if any(s.ready_at < cycle for s in self._pending_sends):
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
        if self._active or any(self._ni) or self._staging or self._commit_queue:
            raise DrainError("network did not drain: flits or commits left behind")
        if self._pending_sends or self._posts:
            raise DrainError("network did not drain: scheduled work left behind")
        if any(r.unit.pending is not None for r in self.routers):
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

    # phase 1: read-only arbitration over all output ports
    def _arbitrate(self, t: int):
        moves = []
        cfg = self.config
        for rid in sorted(self._active):
            router = self.routers[rid]
            for out_port in OUTPUT_PORTS:
                if out_port == Port.BUFFER and router.node.col != cfg.cols - 1:
                    continue
                if self.stall_fn is not None and self.stall_fn(t, router.node, out_port):
                    continue
                candidates = []
                for in_port in INPUT_PORTS:
                    for vc in range(cfg.vc_count):
                        q = router.queues[in_port][vc]
                        if not q:
                            continue
                        entry = q[0]
                        flit = entry.flit
                        route = router.route_cache.get(flit.packet_id)
                        if route != out_port:
                            continue
                        if entry.enter + cfg.pipeline_depth > t:
                            continue
                        owner = router.link_owner.get((out_port, vc))
                        if flit.is_head:
                            if owner is not None and owner != flit.packet_id:
                                continue
                        else:
                            if owner != flit.packet_id:
                                continue
                        if not self._downstream_has_space(router, out_port, vc):
                            continue
                        candidates.append((in_port, vc))
                if not candidates:
                    continue
                order = [(p, v) for p in INPUT_PORTS for v in range(cfg.vc_count)]
                start = router.rr.get(out_port, 0)
                pick = None
                for k in range(len(order)):
                    cand = order[(start + k) % len(order)]
                    if cand in candidates:
                        pick = cand
                        break
                assert pick is not None
                router.rr[out_port] = (order.index(pick) + 1) % len(order)
                moves.append((rid, pick[0], pick[1], out_port))
        return moves

    def _downstream_has_space(self, router: Router, out_port: Port, vc: int) -> bool:
        if out_port in (Port.LOCAL, Port.BUFFER):
            return True  # sinks accept unconditionally
        nxt = step_toward(router.node, out_port)
        return self.routers[nxt.index(self.config.cols)].has_space(_OPPOSITE[out_port], vc)

    # phase 2: commit all granted moves simultaneously
    def _commit(self, moves, t: int):
        arrivals = []
        for rid, in_port, vc, out_port in moves:
            router = self.routers[rid]
            entry = router.queues[in_port][vc].popleft()
            flit = entry.flit
            pid = flit.packet_id
            self.counters.record("buffer_read", rid)
            self.counters.record("xbar_traversal", rid)
            self.counters.record("sa_arb", rid)
            if flit.is_head and router.link_owner.get((out_port, vc)) is None:
                self.counters.record("va_arb", rid)
            if flit.is_head:
                router.link_owner[(out_port, vc)] = pid
            if self.trace_links:
                self.link_trace.setdefault((rid, out_port, vc), []).append((t, pid))
            if flit.is_tail:
                router.link_owner[(out_port, vc)] = None
                router.route_cache.pop(pid, None)
                router.load_checked.discard(pid)

            if out_port in (Port.LOCAL, Port.BUFFER):
                self._eject(flit, router, out_port, t)
            else:
                nxt = step_toward(router.node, out_port)
                nrid = nxt.index(self.config.cols)
                nrouter = self.routers[nrid]
                if not nrouter.has_space(_OPPOSITE[out_port], vc):
                    raise SimulationError("credit discipline violated")
                nrouter.queues[_OPPOSITE[out_port]][vc].append(_QueueEntry(flit, t))
                self._active.add(nrid)
                self.counters.record("buffer_write", nrid)
                self.counters.record("link_traversal", rid)
                if flit.is_head:
                    self._meta[pid].hops += 1
                arrivals.append((nrouter, flit))
                if flit.is_tail and pid in self._tail_watch:
                    node, send = self._tail_watch[pid]
                    if node == nrouter.node:
                        send.after_seen_at = t
                        del self._tail_watch[pid]
            if not self.routers[rid].pending_flits():
                self._active.discard(rid)
        return arrivals

    def _eject(self, flit: Flit, router: Router, out_port: Port, t: int) -> None:
        pid = flit.packet_id
        self.flits_ejected += 1
        meta = self._meta[pid]
        if flit.is_head:
            meta.head_arrival = t
        self._staging.setdefault(pid, []).append(flit)
        self._log(t, router.node, f"eject pid={pid} {flit.ft.name.lower()}")
        if flit.is_tail:
            if out_port == Port.BUFFER:
                self._commit_queue.append((t, router.node.index(self.config.cols), pid))
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

    # phase 3: route freshly arrived heads, run the gather handshake
    def _process_arrivals(self, arrivals, t: int) -> None:
        cfg = self.config
        for router, flit in arrivals:
            pid = flit.packet_id
            if flit.is_head:
                router.route_cache[pid] = xy_route(
                    router.node, flit.dst, cfg.cols, sink_is_buffer=flit.to_buffer
                )
            unit = router.unit
            if flit.pt == PacketType.GATHER:
                if flit.is_head and pid not in router.load_checked:
                    router.load_checked.add(pid)
                    if gather_load_check(flit, unit, cfg):
                        self._log(t, router.node, f"load pid={pid}")
                elif not flit.is_head and unit.reserved_by == pid:
                    if upload_payload(flit, unit, cfg):
                        rid = router.node.index(cfg.cols)
                        self.counters.record("payload_upload", rid)
                        self._log(t, router.node, f"upload pid={pid} ack")
                if flit.is_tail:
                    if unit.reserved_by == pid:
                        raise SimulationError(
                            f"reserved upload never completed at {router.node}"
                        )
                    if unit.has_unreserved_payload:
                        unit.nack()
                        self._log(t, router.node, f"nack pid={pid}")

    # phase 4: shared buffer write port commits queued packet transactions
    def _commit_buffer_transactions(self, t: int) -> None:
        budget = self.config.buffer_commit_rate
        while budget and self._commit_queue and self._commit_queue[0][0] <= t:
            arrival, _rid, pid = self._commit_queue.popleft()
            self._finish_packet(pid, tail_arrival=arrival, commit=t, to_buffer=True)
            budget -= 1

    # phase 5: PE-side work: posts, drain chain, timeouts, injection
    def _node_phase(self, t: int) -> None:
        cfg = self.config
        for node, payload in self._posts.pop(t, []):
            self.router_at(node).unit.post(payload, t)
            self._log(t, node, "post")

        still_pending: list[_PendingSend] = []
        for send in self._pending_sends:
            if send.eligible(t):
                self._ni[send.node.index(cfg.cols)].extend(send.flits)
                self._log(t, send.node, f"send pid={send.flits[0].packet_id}")
            else:
                still_pending.append(send)
        self._pending_sends = still_pending

        for router in self.routers:
            unit = router.unit
            rid = router.node.index(cfg.cols)
            if unit.expired(t) and not self._ni[rid]:
                payload = unit.take_for_self()
                pid = self.next_packet_id()
                flits = build_packet(
                    PacketType.GATHER, router.node, payload.dst,
                    [(payload.origin, payload.value)], cfg, pid,
                )
                for f in flits:
                    f.to_buffer = True
                meta = _PacketMeta(flits=flits, inject_cycle=t)
                meta.timeout_init = unit.timeout > 0
                if meta.timeout_init:
                    self.timeout_packets += 1
                self._meta[pid] = meta
                self._ni[rid].extend(flits)
                kind = "timeout-init" if meta.timeout_init else "gather-init"
                self._log(t, router.node, f"{kind} pid={pid}")

        for rid, queue in enumerate(self._ni):
            if not queue:
                continue
            flit = queue[0]
            router = self.routers[rid]
            if router.has_space(Port.LOCAL, flit.vc):
                queue.popleft()
                router.queues[Port.LOCAL][flit.vc].append(_QueueEntry(flit, t))
                self._active.add(rid)
                self.flits_injected += 1
                self.counters.record("buffer_write", rid)
                if flit.is_head:
                    self._meta[flit.packet_id].inject_cycle = t
                    router.route_cache[flit.packet_id] = xy_route(
                        router.node, flit.dst, cfg.cols, sink_is_buffer=flit.to_buffer
                    )
                    unit = router.unit
                    if flit.pt == PacketType.GATHER and flit.packet_id not in router.load_checked:
                        # a locally injected gather can still pick up this
                        # node's own pending payload (not the usual path:
                        # initiators carry their payload from birth)
                        router.load_checked.add(flit.packet_id)
                        if gather_load_check(flit, unit, cfg):
                            self._log(t, router.node, f"load pid={flit.packet_id}")
                elif flit.pt == PacketType.GATHER and router.unit.reserved_by == flit.packet_id:
                    if upload_payload(flit, router.unit, cfg):
                        self.counters.record("payload_upload", rid)

    def _watchdog(self, t: int, progressed: bool) -> None:
        if progressed or not self._active:
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
                f"with {sum(r.pending_flits() for r in self.routers)} flits queued"
            )

    def _log(self, cycle: int, node: NodeId, kind: str) -> None:
        if self.event_log is not None:
            self.event_log.append(f"{cycle} {node} {kind}")
