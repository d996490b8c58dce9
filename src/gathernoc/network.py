"""Cycle-accurate mesh network.

All routers advance in a deterministic two-phase cycle: output arbitration
reads the pre-cycle state everywhere, then all granted moves commit at once,
so intra-cycle iteration order cannot leak into results.  A flit spends
exactly ``pipeline_depth`` cycles in an uncontended router (route
computation, VC and switch allocation, switch and link traversal); body and
tail flits ride the same stages, which is where gather payload uploads
happen without costing extra cycles.

The global result buffer hangs off every right-edge router through a
dedicated output with unbounded flit acceptance, so a packet sent to the
buffer is delivered when its tail ejects, as one sent to a local port is.
The buffer's shared write port never pushes back into the network, so it
has no part here: ``systolic.buffer_commits`` times the commits from the
delivered tails' eject cycles.

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
and runs their load/upload/nack handshake, one ``router.gather_arrival``
call per arrival under limits resolved once per network.  Every packet
sent to the buffer is addressed to the buffer column
(``schedule_injection`` checks the packets it is handed), so routing never
fails partway through a commit.

A cycle costs time in proportion to what is present, not to the size of the
mesh.  Arbitration reads only the queue heads woken that cycle: every
non-empty input queue holds exactly one pending wake-up in the per-cycle
wake-up buckets, and an empty one none.  A queue is woken when its head
clears the pipeline, and a head that is not granted (no cached route, its
output VC owned by another packet, no credit, stalled, or lost round-robin)
is woken again the next cycle, so no set of ready heads is kept beside the
buckets.  When no ``stall_fn`` is set and no output has two candidates,
every eligible head is granted without a per-output scan.  Gather units
are looked at only once their give-up deadline has passed, and only
non-empty NI queues and due sends are touched.  Event-log lines are
formatted only when a log is attached.  ``stall_fn`` must be a pure
function of its arguments: it is consulted only for outputs that have a
candidate.  A head's hop count is not counted per move: XY routing makes it
cross ``|drow| + |dcol|`` links, and its delivery record says so.

State layout.  A network keeps every mutable per-router table as one flat
list, indexed from the router id ``rid = row * cols + col`` one way each:
the (input port, VC) queues of ``(enter cycle, flit)`` pairs at the queue
key ``rid * len(INPUT_PORTS) * vc_count + port * vc_count + vc``, each
allocated when its first flit enters (until then the key holds the shared
empty ``_UNUSED``: a full 16x16 round enters 928 of its 5 120 queues in ru
and 272 in gather, so building a network costs little), and a queue's
pending wake-up is its key in the bucket of one cycle, one key per
non-empty queue (the wake-up buckets map a cycle to the keys woken
then); the wormhole owner of each output VC at ``(rid * len(Port) + out)
* vc_count + vc``; the round-robin pointer of each arbitration group, one
output of one router, at ``rid * len(OUTPUT_PORTS) + rank``; the routes,
gather unit and NI queue at ``rid``.  Node ids and the arbitration entries come from
``mesh_tables``, shared by every network of one geometry (rows, cols and
VCs).  The arbitration entry of a (queue key, output) pair is everything a
move of that queue's head through that output reads, resolved once: the
grant index ``group * len(INPUT_PORTS) * vc_count + port * vc_count + vc``
(so entries sort in grant order), the group, the pointer after a grant,
the queue key, the output, the router id, the VC, the owner slot, and the
downstream queue key and router id, both -1 for a sink.  A head's route
is cached as the entry of its queue and output.  Entries are filled on
first use, not built for every pair, to keep memory down: dense tables
of the default 8x8 and 16x16 meshes (4 VCs) hold 38 400 entries in about
12 MB, and XY-routed result traffic reads few of them: 2 184 in the
``replay=False`` runs of the perfbench ``kernel`` workload.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

from .config import MeshConfig, give_up_budgets
from .errors import ConfigError, DeadlockError, DrainError, SimulationError
from .packet import Flit, FlitType, PacketType, build_packet, payload_bits
from .power import ActivityCounters
from .router import GatherPayload, GatherUnit, gather_arrival, gather_limits
from .topology import INPUT_PORTS, NodeId, Port, step_toward, xy_route

OUTPUT_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.LOCAL, Port.BUFFER)
# grant order of each output port (indexed by port value) within a router
_OUT_RANK = [OUTPUT_PORTS.index(p) for p in Port]
_N_PORTS = len(Port)   # an Enum's len() is slow enough to matter per cycle
_EAST, _WEST, _NORTH, _SOUTH = Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH

_OPPOSITE = {
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
}

_HEAD = FlitType.HEAD
_TAIL = FlitType.TAIL
_BUFFER = Port.BUFFER
_GATHER = PacketType.GATHER

# an input queue no flit has entered yet: empty, and replaced by a deque of
# its own when the first flit enters (module docstring)
_UNUSED: tuple = ()


@dataclass
class DeliveredPacket:
    packet_id: int
    pt: PacketType
    src: NodeId
    dst: NodeId
    to_buffer: bool
    payloads: list[tuple[NodeId, int]]
    hops: int                 # links the head crossed: |drow| + |dcol| under XY routing
    inject_cycle: int
    head_arrival: int
    tail_arrival: int
    flit_count: int
    vc: int
    timeout_init: bool


@dataclass(slots=True)
class _PendingSend:
    node: NodeId
    flits: list[Flit]
    ready_at: int


@dataclass(slots=True)
class _PacketMeta:
    inject_cycle: int = -1
    head_arrival: int = -1
    timeout_init: bool = False


class _ArbitrationEntries(dict):
    """The arbitration entries of one mesh geometry (module docstring),
    keyed ``queue key * len(Port) + output``; an entry is resolved the
    first time it is read."""

    def __init__(self, vc_count: int, down) -> None:
        super().__init__()
        self._vcs = vc_count
        self._nq = len(INPUT_PORTS) * vc_count
        self._down = down

    def __missing__(self, pair: int) -> tuple:
        key, out = divmod(pair, _N_PORTS)
        out = Port(out)
        rid, q = divmod(key, self._nq)
        vc = q % self._vcs
        group = rid * len(OUTPUT_PORTS) + _OUT_RANK[out]
        link = self._down[rid][out]
        nrid, nkey = (link[0], link[1] + vc) if link is not None else (-1, -1)
        entry = (group * self._nq + q, group, (q + 1) % self._nq, key, out, rid, vc,
                 (rid * _N_PORTS + out) * self._vcs + vc, nkey, nrid)
        self[pair] = entry
        return entry


@dataclass(frozen=True)
class _MeshTables:
    """The tables of one mesh geometry, shared by all its networks: the
    node of each router id, and its arbitration entries, filled on first
    use and never changed after."""

    nodes: tuple[NodeId, ...]
    entries: _ArbitrationEntries


@lru_cache(maxsize=64)
def mesh_tables(rows: int, cols: int, vc_count: int) -> _MeshTables:
    """The tables of a ``rows`` x ``cols`` mesh of ``vc_count`` VCs, built
    once per geometry and process: node ids and arbitration entries depend
    on nothing else, so configs that differ only in timing, depths or
    energy share them.  The downstream link of each (router, output port)
    is ``(router id, queue key of the opposite input port's VC 0)``, None
    for the sinks."""
    nodes = tuple(NodeId(r, c) for r in range(rows) for c in range(cols))
    nq = len(INPUT_PORTS) * vc_count
    down = []
    for node in nodes:
        links: list[tuple[int, int] | None] = [None] * len(Port)
        for port, opposite in _OPPOSITE.items():
            nxt = step_toward(node, port)
            if 0 <= nxt.row < rows and 0 <= nxt.col < cols:
                nrid = nxt.index(cols)
                links[port] = (nrid, nrid * nq + opposite * vc_count)
        down.append(tuple(links))
    return _MeshTables(nodes, _ArbitrationEntries(vc_count, tuple(down)))


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
        tables = mesh_tables(config.rows, config.cols, config.vc_count)
        n = len(tables.nodes)
        self.counters = ActivityCounters()
        self.counters.reserve(n)
        self.stall_fn = stall_fn          # (cycle, node, out_port) -> bool
        self.event_log = event_log
        self.trace_links = trace_links
        self.link_trace: dict[tuple[int, Port, int], list[tuple[int, int]]] = {}

        # the per-router tables, laid out as the module docstring states
        self._vcs = config.vc_count
        self._nq = len(INPUT_PORTS) * config.vc_count
        self._nodes = tables.nodes
        self._entries = tables.entries
        self._queues: list[deque[tuple[int, Flit]] | tuple] = [_UNUSED] * (n * self._nq)
        self._owners: list[int | None] = [None] * (n * len(Port) * self._vcs)
        self._rr = [0] * (n * len(OUTPUT_PORTS))
        self._routes: list[dict[int, tuple]] = [{} for _ in range(n)]  # pid -> entry
        self._ni: list[deque[Flit]] = [deque() for _ in range(n)]
        self.units = [GatherUnit(node, budget) for node, budget
                      in zip(self._nodes, give_up_budgets(config, timeout_table))]
        self._limits = gather_limits(config)

        self._next_packet_id = 0
        self._meta: dict[int, _PacketMeta] = {}
        self._queued = 0                                  # flits in router queues
        self._wake: dict[int, list[int]] = {}             # cycle -> queue keys woken then
        self._ni_busy: set[int] = set()                   # rids with a non-empty NI queue
        self._posts: dict[int, list[tuple[NodeId, GatherPayload]]] = {}
        self._holding = 0                                 # gather units holding a payload
        self._deadlines: list[tuple[int, int]] = []       # (give-up cycle, rid) heap
        self._expiring: set[int] = set()                  # rids past a give-up deadline
        self._pending_sends: dict[int, _PendingSend] = {}  # by schedule order
        self._due_sends: list[tuple[int, int]] = []       # (eligible cycle, seq) heap
        self._send_seq = 0
        self._tail_watch: dict[int, tuple[int, int]] = {}  # pid -> (rid, send seq)
        self._staging: dict[int, list[Flit]] = {}
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
        cols = self.config.cols
        return self._nodes[row * cols + cols - 1]

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
        flits = build_packet(PacketType.UNICAST, node, self.buffer_node(node.row),
                             [(node, value)], self.config, pid, to_buffer=True)
        self._meta[pid] = _PacketMeta()
        seq = self._add_send(_PendingSend(node, flits, ready_cycle))
        if after_packet is None:
            heappush(self._due_sends, (ready_cycle, seq))
        else:
            # due once the predecessor's tail has reached this node (_commit)
            self._tail_watch[after_packet] = (node.index(self.config.cols), seq)
        return pid

    def schedule_injection(self, cycle: int, node: NodeId, flits: list[Flit]) -> None:
        """Low-level: push a pre-built packet into a node's injection queue
        at a given cycle (used by protocol tests).  The packet goes to the
        buffer if ``build_packet`` marked its flits ``to_buffer``."""
        pid, dst = flits[0].packet_id, flits[0].dst
        if flits[0].to_buffer and dst.col != self.config.cols - 1:
            raise ConfigError(
                f"packet {pid} is sent to the buffer at {dst}, but the buffer is "
                f"attached to column {self.config.cols - 1} only"
            )
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
        return bool(self._queued or self._ni_busy or self._pending_sends
                    or self._posts or self._holding)

    def jump_to(self, cycle: int) -> None:
        """Advance the clock over a provably idle stretch."""
        if cycle < self.cycle:
            raise SimulationError("cannot jump backwards")
        if self._queued or self._ni_busy or self._staging:
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
        if self._queued or self._ni_busy or self._staging:
            raise DrainError("network did not drain: flits left behind")
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
        self._node_phase(t)
        self._watchdog(t, bool(moves))
        self.cycle = t + 1

    # phase 1: arbitration over the queue heads woken this cycle, on the
    # pre-cycle state; a head that is not granted is woken again next cycle
    def _arbitrate(self, t: int):
        woken = self._wake.pop(t, None)
        if woken is None:
            return []
        nq, depth = self._nq, self.config.buffer_depth
        routes, owners, queues = self._routes, self._owners, self._queues
        # the arbitration entries of the eligible heads, each the cached route
        # of its head (fields as the module docstring lists them)
        eligible, again = [], []
        for key in woken:
            flit = queues[key][0][1]
            pid = flit.packet_id
            entry = routes[key // nq].get(pid)
            if entry is None:
                again.append(key)
                continue
            owner = owners[entry[7]]      # entry[7]: the owner slot
            if owner != pid and (owner is not None or flit.ft != _HEAD):
                again.append(key)         # wormhole: the VC belongs to another packet
                continue
            nkey = entry[8]               # entry[8]: the downstream queue key
            if nkey >= 0 and len(queues[nkey]) >= depth:
                again.append(key)         # no credit downstream
                continue
            eligible.append(entry)
        eligible.sort()                   # by grant index, the first field

        stall_fn, rr = self.stall_fn, self._rr
        if stall_fn is None and len({entry[1] for entry in eligible}) == len(eligible):
            # one candidate per output group: every eligible head is granted
            for entry in eligible:
                rr[entry[1]] = entry[2]   # entry[2]: the pointer after this grant
            self._wake_at(t + 1, again)
            return eligible

        nodes = self._nodes
        moves = []
        i, n = 0, len(eligible)
        while i < n:
            entry = eligible[i]
            group = entry[1]
            j = i + 1
            while j < n and eligible[j][1] == group:
                j += 1
            # entry[5] and entry[4]: the router id and the output
            granted = None
            if stall_fn is None or not stall_fn(t, nodes[entry[5]], entry[4]):
                granted = entry if j == i + 1 else _round_robin(eligible[i:j],
                                                                group * nq + rr[group])
                rr[group] = granted[2]
                moves.append(granted)
            if granted is None or j > i + 1:
                # other[3]: the queue key
                again.extend(other[3] for other in eligible[i:j] if other is not granted)
            i = j
        self._wake_at(t + 1, again)
        return moves

    # phase 2: commit all granted moves simultaneously, routing each head at
    # the router it enters
    def _commit(self, moves, t: int):
        arrivals = []
        if not moves:
            return arrivals
        queues, entries = self._queues, self._entries
        nodes, routes, owners = self._nodes, self._routes, self._owners
        meta, staging, log = self._meta, self._staging, self.event_log
        cfg = self.config
        pipeline, depth, cols = cfg.pipeline_depth, cfg.buffer_depth, cfg.cols
        wake, watch = self._wake, self._tail_watch
        soon, entered = [], []    # keys woken at t + 1, and at t + pipeline
        ejected = 0
        trace = self.link_trace if self.trace_links else None
        moved, rec = self.counters.moves, self.counters.recorded
        va, writes, links = rec["va_arb"], rec["buffer_write"], rec["link_traversal"]
        for _, _, _, key, out, rid, vc, slot, nkey, nrid in moves:
            queue = queues[key]
            flit = queue.popleft()[1]
            if queue:
                # the next head is woken once its pipeline delay has passed
                at = queue[0][0] + pipeline
                if at <= t + 1:
                    soon.append(key)
                else:
                    wake.setdefault(at, []).append(key)
            pid, ft = flit.packet_id, flit.ft
            moved[rid] += 1
            if ft == _HEAD:
                if owners[slot] is None:
                    va[rid] += 1
                owners[slot] = pid
            elif ft == _TAIL:
                owners[slot] = None
                routes[rid].pop(pid, None)
            if trace is not None:
                trace.setdefault((rid, out, vc), []).append((t, pid))

            if nkey < 0:
                # eject: a packet's head ejects first, its tail last
                ejected += 1
                if ft == _HEAD:
                    meta[pid].head_arrival = t
                    staging[pid] = [flit]
                else:
                    staging[pid].append(flit)
                if log is not None:
                    self._log(t, nodes[rid], f"eject pid={pid} {ft.name.lower()}")
                if ft == _TAIL:
                    # in grant order, so ``delivered`` is in (eject cycle, router id) order
                    self._finish_packet(pid, t, out == _BUFFER)
                continue
            nqueue = queues[nkey]
            if len(nqueue) >= depth:
                raise SimulationError("credit discipline violated")
            if not nqueue:
                if nqueue is _UNUSED:
                    nqueue = queues[nkey] = deque()
                entered.append(nkey)
            nqueue.append((t, flit))
            writes[nrid] += 1
            links[rid] += 1
            if flit.pt == _GATHER:
                arrivals.append((nrid, flit))
            if ft == _HEAD:
                # XY routing, inline for a through hop
                node, dst = nodes[nrid], flit.dst
                if dst.col != node.col:
                    nout = _EAST if dst.col > node.col else _WEST
                elif dst.row != node.row:
                    nout = _SOUTH if dst.row > node.row else _NORTH
                else:
                    nout = xy_route(node, dst, cols, flit.to_buffer)
                routes[nrid][pid] = entries[nkey * _N_PORTS + nout]
            elif ft == _TAIL and pid in watch:
                watcher, seq = watch[pid]
                if watcher == nrid:
                    del watch[pid]
                    ready_at = self._pending_sends[seq].ready_at
                    heappush(self._due_sends, (max(ready_at, t + 1), seq))
        self._queued -= ejected
        self.flits_ejected += ejected
        self._wake_at(t + 1, soon)
        self._wake_at(t + pipeline, entered)
        return arrivals

    def _wake_at(self, cycle: int, keys: list[int]) -> None:
        """Add the queue keys ``keys`` to the wake-up bucket of ``cycle``;
        no bucket is made for none."""
        if keys:
            bucket = self._wake.get(cycle)
            if bucket is None:
                self._wake[cycle] = keys
            else:
                bucket.extend(keys)

    def _finish_packet(self, pid: int, tail_arrival: int, to_buffer: bool) -> None:
        flits = self._staging.pop(pid)
        meta = self._meta.pop(pid)
        cfg = self.config
        payloads = [slot for f in flits for slot in f.payload_slots]
        src, dst = flits[0].src, flits[0].dst
        if flits[0].pt == _GATHER:
            total_bits = payload_bits(payloads, cfg)
            if total_bits > cfg.gather_payload_capacity_bits:
                raise SimulationError("gather packet exceeded its payload capacity")
            if flits[0].aspace != cfg.gather_payload_capacity_bits - total_bits:
                raise SimulationError("head free-space field out of sync with payloads")
        self.delivered.append(DeliveredPacket(
            pid, flits[0].pt, src, dst, to_buffer, payloads,
            abs(dst.row - src.row) + abs(dst.col - src.col),  # hops under XY routing
            meta.inject_cycle, meta.head_arrival, tail_arrival, len(flits), flits[0].vc,
            meta.timeout_init))

    # phase 3: the gather handshake of the gather flits that arrived
    def _process_arrivals(self, arrivals, t: int) -> None:
        units, limits, log = self.units, self._limits, self.event_log
        uploads = self.counters.recorded["payload_upload"]
        for rid, flit in arrivals:
            done = gather_arrival(flit, units[rid], limits)
            if done is None:
                continue
            if done == "upload":
                self._holding -= 1
                uploads[rid] += 1
            if log is not None:
                ack = " ack" if done == "upload" else ""
                self._log(t, units[rid].node, f"{done} pid={flit.packet_id}{ack}")

    # phase 4: PE-side work: posts, drain chain, timeouts, injection
    def _node_phase(self, t: int) -> None:
        cfg = self.config
        units = self.units
        posts = self._posts.pop(t, None)
        if posts:
            for node, payload in posts:
                rid = node.index(cfg.cols)
                unit = units[rid]
                unit.post(payload, t)
                self._holding += 1
                heappush(self._deadlines, (t + unit.timeout, rid))
                if self.event_log is not None:
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
            unit = units[rid]
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
            flits = build_packet(PacketType.GATHER, unit.node, payload.dst,
                                 [(payload.origin, payload.value)], cfg, pid, to_buffer=True)
            meta = _PacketMeta(inject_cycle=t)
            meta.timeout_init = unit.timeout > 0
            if meta.timeout_init:
                self.timeout_packets += 1
            self._meta[pid] = meta
            self._ni[rid].extend(flits)
            self._ni_busy.add(rid)
            if self.event_log is not None:
                kind = "timeout-init" if meta.timeout_init else "gather-init"
                self._log(t, unit.node, f"{kind} pid={pid}")

        if not self._ni_busy:
            return
        nq, pipeline, depth = self._nq, cfg.pipeline_depth, cfg.buffer_depth
        local_base = Port.LOCAL * self._vcs
        queues, ni, busy = self._queues, self._ni, self._ni_busy
        counts = self.counters.recorded["buffer_write"]
        entered = []              # keys woken at t + pipeline
        injected = 0
        for rid in sorted(busy):
            queue = ni[rid]
            flit = queue[0]
            key = rid * nq + local_base + flit.vc
            local = queues[key]
            if len(local) >= depth:
                continue
            queue.popleft()
            if not queue:
                busy.discard(rid)
            if not local:
                if local is _UNUSED:
                    local = queues[key] = deque()
                entered.append(key)
            local.append((t, flit))
            injected += 1
            counts[rid] += 1
            if flit.ft == _HEAD:
                # an initiator carries its own payload from birth, so the
                # gather handshake runs only at routers the packet arrives at
                pid = flit.packet_id
                self._meta[pid].inject_cycle = t
                out = xy_route(self._nodes[rid], flit.dst, cfg.cols,
                               sink_is_buffer=flit.to_buffer)
                self._routes[rid][pid] = self._entries[key * _N_PORTS + out]
        self._queued += injected
        self.flits_injected += injected
        self._wake_at(t + pipeline, entered)

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
        """Append one event line; callers check that a log is attached
        first, so no line is built for a network without one."""
        self.event_log.append(f"{cycle} {node} {kind}")


def _round_robin(candidates: list[tuple], start: int) -> tuple:
    """The grant among ``candidates``, the arbitration entries of one group
    in grant order: the first whose grant index is at or after ``start``,
    the group's round-robin pointer, cyclically."""
    return next((entry for entry in candidates if entry[0] >= start), candidates[0])
