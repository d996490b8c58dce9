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
  the pointer then moves to the index after the grant (set as the grant
  commits: no output grants twice in a cycle);
* grants are listed router by router in id order, and within a router in
  ``OUTPUT_PORTS`` order; they are committed afterwards, in that order.

A head is routed where it lands: at injection, and in the commit phase at
the router it enters, so the phase after the commit sees only gather flits
and runs their load/upload/nack handshake, one ``router.gather_arrival``
call per arrival under limits resolved once per network.  Only arrivals at
a router whose gather unit holds a payload are handed to it: the handshake
does nothing at any other, and no arrival gives a unit a payload.  Every
packet sent to the buffer is addressed to the buffer column
(``schedule_injection`` checks the packets it is handed), so routing never
fails partway through a commit.

A cycle costs time in proportion to what is present, not to the size of the
mesh, and ``step`` calls a phase only when it has work: ``_arbitrate`` when
the cycle has a wake-up bucket, ``_commit`` when a head was granted, the
handshake when a gather flit arrived at a unit holding a payload, and
``_node_phase`` when a payload post or a send is due, a give-up deadline
falls, a unit is expiring or an NI queue is non-empty.  Arbitration reads
only the queue heads woken that cycle: every non-empty input queue holds
exactly one pending wake-up in the per-cycle wake-up buckets, and an empty
one none.  A queue is woken when its head clears the pipeline, and a head
that is not granted (no cached route, its output VC owned by another
packet, no credit, stalled, or lost round-robin) is woken again the next
cycle, so no set of ready heads is kept beside the buckets.  When no
``stall_fn`` is set and no output has two candidates, every eligible head
is granted without a per-output scan; a lone eligible head is granted
without a sort or a set of its group.  Gather units are looked at only once
their give-up deadline has passed: a unit holding a payload sits in the
per-cycle deadline bucket of its deadline until the payload is uploaded or
the deadline falls, and then among the expiring units until it sends the
payload itself or is served, so a drained network keeps no give-up state.
Only non-empty NI queues and due sends are touched.  Event-log lines are
formatted only when a log is attached.  ``stall_fn`` must be a pure
function of its arguments: it is consulted only for outputs that have a
candidate.  A head's hop count is not counted per move: XY routing makes it
cross ``|drow| + |dcol|`` links, and its delivery record says so.

A round outside its moves.  A full 16x16 round posts 256 results (ru: 256
two-flit unicasts; gather: 256 payloads), so what each packet costs to
build, launch, inject and deliver is paid hundreds of times a round, and
is kept to a few container operations:

* posting a gather payload builds one ``GatherPayload``, a named tuple;
* scheduling a unicast builds its flits (``build_packet`` has a path of
  its own for a head and a tail), the packet's record in ``_meta`` and
  one send tuple ``(seq, rid, flits, ready cycle)`` (``_add_send``);
* a send that is due sits in the launch bucket of its cycle, the cycle it
  was scheduled for (or the clock, if that is later) or the cycle after
  its drain-chain predecessor's tail passed; the sends of one bucket
  launch in schedule order, sorted only when there are two or more;
* NI injection routes a packet's head with ``topology.xy_route``, once
  per packet; ``_commit`` routes it at every later hop by the same rule
  inline, without a call.  At the destination a buffer packet leaves by
  the buffer port (``schedule_injection`` checks it is addressed to the
  buffer column) and any other by the local port;
* delivery reads the packet's payloads, flit count, VC and free space
  from the flit list of its record, the very flits that travelled (an
  eject collects nothing), and appends one record per packet, its tail's
  eject cycle non-decreasing along ``delivered``, so the checks of a
  round (``systolic._collect``) time the commit port without sorting.

Flit types, packet types and ports are enum members, so the kernel
compares them by identity (``is``), not by integer value: ``build_packet``
turns a packet type given as an integer into its member,
``schedule_injection`` does the same for the flit and packet types of the
packets it is handed, and the arbitration entries hold ``Port`` members.

Set-up once per network.  A sparse network, such as a row network of a few
columns, makes one or two moves a cycle, so the set-up of ``_commit``, its
costliest phase per move, is a large share of its time.  So each network
binds, when it is built, one tuple (``_commit_setup``) of the containers and
config constants ``_commit`` reads, and ``_commit`` unpacks it in one
statement instead of walking attribute chains and dicts on every call.
Those containers are only ever changed in place, never reassigned: a
reassigned one would leave the tuple holding the old object.  The public
``event_log`` and ``trace_links`` are still read on every call, so setting
them on a built network takes effect.

State layout.  A network keeps every mutable per-router table as one flat
list, indexed from the router id ``rid = row * cols + col`` one way each:
the (input port, VC) queues of flits at the queue key ``rid *
len(INPUT_PORTS) * vc_count + port * vc_count + vc``, each flit's
``entered`` slot the cycle it entered its queue, and each queue allocated
when its first flit enters (until then the key holds the shared empty
``_UNUSED``: a full 16x16 round enters 928 of its 5 120 queues in ru and
272 in gather, so building a network costs little), and a queue's pending
wake-up is its key in the bucket of one cycle, one key per non-empty queue
(the wake-up buckets map a cycle to the keys woken then); the wormhole
owner of each output VC at ``(rid * len(Port) + out) * vc_count + vc``; the
round-robin pointer of each arbitration group, one output of one router,
at ``rid * len(OUTPUT_PORTS) + rank``; the routes, gather unit and NI
queue at ``rid``.  Node ids and the arbitration entries come from
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

Each in-flight fact is kept once.  A packet has one record in ``_meta``,
``[inject cycle, head arrival, timeout-initiated, flits]`` (the cycles -1
until known), from when it is scheduled or built until its tail is
delivered.  A send that has not launched is in exactly one place: the
launch bucket of its cycle in ``_due_sends``, or ``_tail_watch`` under
its drain-chain predecessor's packet id until that tail reaches the
send's router; a predecessor has at most one successor, and a second one
is refused when it is scheduled.  No count of the gather units holding a
payload is kept: such a unit is in the deadline bucket of its give-up
deadline, among the expiring units, or reserved by a packet whose flits
are still queued, so ``busy``, ``jump_to`` and ``assert_drained`` read
those.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter

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
_LOCAL = Port.LOCAL

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
_UNICAST = PacketType.UNICAST

# an input queue no flit has entered yet: empty, and replaced by a deque of
# its own when the first flit enters (module docstring)
_UNUSED: tuple = ()

# the sort key of an arbitration entry, its grant index, and its group: its
# first two fields
_grant_index = itemgetter(0)
_group = itemgetter(1)


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
        self._queues: list[deque[Flit] | tuple] = [_UNUSED] * (n * self._nq)
        self._owners: list[int | None] = [None] * (n * len(Port) * self._vcs)
        self._rr = [0] * (n * len(OUTPUT_PORTS))
        self._routes: list[dict[int, tuple]] = [{} for _ in range(n)]  # pid -> entry
        self._ni: list[deque[Flit]] = [deque() for _ in range(n)]
        self.units = [GatherUnit(node, budget) for node, budget
                      in zip(self._nodes, give_up_budgets(config, timeout_table))]
        self._limits = gather_limits(config)

        self._next_packet_id = 0
        # pid -> [inject cycle, head arrival, timeout-initiated, flits], the
        # cycles -1 until known, until the packet is delivered
        self._meta: dict[int, list] = {}
        self._queued = 0                                  # flits in router queues
        self._wake: dict[int, list[int]] = {}             # cycle -> queue keys woken then
        self._ni_busy: set[int] = set()                   # rids with a non-empty NI queue
        self._posts: dict[int, list[tuple[int, GatherPayload]]] = {}  # cycle -> (rid, payload)
        self._deadlines: dict[int, list[int]] = {}        # give-up cycle -> rids
        self._expiring: set[int] = set()                  # rids past a give-up deadline
        # a send is (seq, rid, flits, ready cycle), seq its schedule order;
        # until it launches it is in exactly one of these (module docstring)
        self._due_sends: dict[int, list[tuple]] = {}      # launch cycle -> sends
        self._tail_watch: dict[int, tuple] = {}           # predecessor pid -> send
        self._send_seq = 0
        self.delivered: list[DeliveredPacket] = []
        self.flits_injected = 0
        self.flits_ejected = 0
        self.timeout_packets = 0
        self._idle_streak = 0

        # what _commit reads of the network and its config, bound once
        # (module docstring): never reassign these containers
        rec = self.counters.recorded
        self._commit_setup = (
            self._queues, self._entries, self.units, self._nodes, self._routes,
            self._owners, self._rr, self._meta, self._wake, self._tail_watch,
            self._due_sends, self.counters.moves,
            rec["va_arb"], rec["buffer_write"], rec["link_traversal"],
            config.pipeline_depth, config.buffer_depth)

    # ------------------------------------------------------------------ api

    def next_packet_id(self) -> int:
        pid = self._next_packet_id
        self._next_packet_id += 1
        return pid

    def schedule_post(self, cycle: int, node: NodeId, value: int) -> GatherPayload:
        """Make ``node``'s result payload pending from ``cycle`` on (gather mode)."""
        cols = self.config.cols
        base = node.row * cols
        payload = GatherPayload(node, value, self._nodes[base + cols - 1])
        self._posts.setdefault(cycle, []).append((base + node.col, payload))
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
        cfg = self.config
        base = node.row * cfg.cols
        pid = self._next_packet_id
        flits = build_packet(_UNICAST, node, self._nodes[base + cfg.cols - 1],
                             [(node, value)], cfg, pid, to_buffer=True)
        self._add_send(base + node.col, flits, ready_cycle, after_packet)
        return pid

    def schedule_injection(self, cycle: int, node: NodeId, flits: list[Flit]) -> None:
        """Low-level: push a pre-built packet into a node's injection queue
        at a given cycle (used by protocol tests).  The packet goes to the
        buffer if ``build_packet`` marked its flits ``to_buffer``.  A flit
        type or packet type given as its integer value is replaced by its
        enum member, which the kernel compares by identity."""
        for flit in flits:
            flit.ft, flit.pt = FlitType(flit.ft), PacketType(flit.pt)
        pid, dst = flits[0].packet_id, flits[0].dst
        if flits[0].to_buffer and dst.col != self.config.cols - 1:
            raise ConfigError(
                f"packet {pid} is sent to the buffer at {dst}, but the buffer is "
                f"attached to column {self.config.cols - 1} only"
            )
        self._add_send(node.index(self.config.cols), flits, cycle, None)

    def _add_send(self, rid: int, flits: list[Flit], ready_cycle: int,
                  after_packet: int | None) -> None:
        """Record the send of the packet ``flits`` from router ``rid``: due
        in the launch bucket of ``ready_cycle`` (or of the clock, if that is
        later), or, after ``after_packet``, once that predecessor's tail has
        reached router ``rid`` (``_commit``).  A predecessor has at most one
        successor: a second one is refused before anything is recorded."""
        waiting = self._tail_watch.get(after_packet)
        if waiting is not None:
            raise ConfigError(
                f"packet {after_packet} already has a drain-chain successor, "
                f"packet {waiting[2][0].packet_id}"
            )
        pid = flits[0].packet_id
        if pid >= self._next_packet_id:
            self._next_packet_id = pid + 1
        self._meta[pid] = [-1, -1, False, flits]
        seq = self._send_seq
        self._send_seq = seq + 1
        send = (seq, rid, flits, ready_cycle)
        if after_packet is None:
            self._due_sends.setdefault(max(ready_cycle, self.cycle), []).append(send)
        else:
            self._tail_watch[after_packet] = send

    # ------------------------------------------------------------- lifecycle

    def busy(self) -> bool:
        # a unit holding a payload is in a deadline bucket, expiring, or
        # reserved by a packet whose flits are still queued
        return bool(self._queued or self._ni_busy or self._due_sends or self._tail_watch
                    or self._posts or self._deadlines or self._expiring)

    def jump_to(self, cycle: int) -> None:
        """Advance the clock over a provably idle stretch."""
        if cycle < self.cycle:
            raise SimulationError("cannot jump backwards")
        if self._queued or self._ni_busy:
            raise SimulationError("jump requested while the network is busy")
        if self._deadlines or self._expiring:
            raise SimulationError("jump would skip a held payload's give-up deadline")
        if any(t < cycle for t in self._posts):
            raise SimulationError("jump would skip scheduled payload posts")
        if any(send[3] < cycle for send in chain(self._tail_watch.values(),
                                                 *self._due_sends.values())):
            raise SimulationError("jump would skip scheduled packet sends")
        self.cycle = cycle

    def run_until_idle(self, limit: int) -> None:
        busy, step = self.busy, self.step
        while busy():
            if self.cycle > limit:
                raise DeadlockError(
                    f"network still busy at cycle {self.cycle} (limit {limit})"
                )
            step()

    def assert_drained(self) -> None:
        if self._queued or self._ni_busy:
            raise DrainError("network did not drain: flits left behind")
        if self._due_sends or self._tail_watch or self._posts:
            raise DrainError("network did not drain: scheduled work left behind")
        if self._deadlines or self._expiring:
            raise DrainError("network did not drain: a payload is still pending")
        if self.flits_injected != self.flits_ejected:
            raise DrainError(
                f"flit conservation violated: {self.flits_injected} injected, "
                f"{self.flits_ejected} ejected"
            )

    # ----------------------------------------------------------------- cycle

    def step(self) -> None:
        """One cycle, calling only the phases that have work (module docstring)."""
        t = self.cycle
        moves = self._arbitrate(t) if t in self._wake else None
        if moves:
            arrivals = self._commit(moves, t)
            if arrivals:
                self._process_arrivals(arrivals, t)
        if (self._ni_busy or self._expiring or t in self._posts or t in self._deadlines
                or t in self._due_sends):
            self._node_phase(t)
        if moves or not self._queued or self.stall_fn is not None:
            # progress, an empty network, or externally stalled cycles,
            # which are exempt from the progress check
            self._idle_streak = 0
        else:
            self._watchdog(t)
        self.cycle = t + 1

    # phase 1: arbitration over the queue heads woken this cycle, on the
    # pre-cycle state; a head that is not granted is woken again next cycle
    def _arbitrate(self, t: int):
        woken = self._wake.pop(t)
        nq, depth = self._nq, self.config.buffer_depth
        routes, owners, queues = self._routes, self._owners, self._queues
        # the arbitration entries of the eligible heads, each the cached route
        # of its head (fields as the module docstring lists them)
        eligible, again = [], []
        for key in woken:
            flit = queues[key][0]
            pid = flit.packet_id
            entry = routes[key // nq].get(pid)
            if entry is None:
                again.append(key)
                continue
            owner = owners[entry[7]]      # entry[7]: the owner slot
            if owner != pid and (owner is not None or flit.ft is not _HEAD):
                again.append(key)         # wormhole: the VC belongs to another packet
                continue
            nkey = entry[8]               # entry[8]: the downstream queue key
            if nkey >= 0 and len(queues[nkey]) >= depth:
                again.append(key)         # no credit downstream
                continue
            eligible.append(entry)

        stall_fn = self.stall_fn
        if len(eligible) > 1:
            eligible.sort(key=_grant_index)
            uncontended = stall_fn is None and len(set(map(_group, eligible))) == len(eligible)
        else:
            uncontended = stall_fn is None
        if uncontended:
            # at most one candidate per output group: every eligible head is granted
            if again:
                self._wake_at(t + 1, again)
            return eligible

        nodes, rr = self._nodes, self._rr
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
                moves.append(granted)
            if granted is None or j > i + 1:
                # other[3]: the queue key
                again.extend(other[3] for other in eligible[i:j] if other is not granted)
            i = j
        if again:
            self._wake_at(t + 1, again)
        return moves

    # phase 2: commit all granted moves simultaneously, moving each grant's
    # round-robin pointer past it and routing each head at the router it enters
    def _commit(self, moves, t: int):
        (queues, entries, units, nodes, routes, owners, rr, meta, wake, watch,
         due, moved, va, writes, links, pipeline, depth) = self._commit_setup
        log = self.event_log
        trace = self.link_trace if self.trace_links else None
        arrivals = []             # (rid, gather flit) at a unit holding a payload
        soon, entered = [], []    # keys woken at t + 1, and at t + pipeline
        ejected = 0
        for _, group, after, key, out, rid, vc, slot, nkey, nrid in moves:
            rr[group] = after
            queue = queues[key]
            flit = queue.popleft()
            if queue:
                # the next head is woken once its pipeline delay has passed
                at = queue[0].entered + pipeline
                if at <= t + 1:
                    soon.append(key)
                else:
                    wake.setdefault(at, []).append(key)
            pid, ft = flit.packet_id, flit.ft
            moved[rid] += 1
            if ft is _HEAD:
                if owners[slot] is None:
                    va[rid] += 1
                owners[slot] = pid
            elif ft is _TAIL:
                owners[slot] = None
                routes[rid].pop(pid, None)
            if trace is not None:
                trace.setdefault((rid, out, vc), []).append((t, pid))

            if nkey < 0:
                # eject: a packet's head ejects first, its tail last
                ejected += 1
                if ft is _HEAD:
                    meta[pid][1] = t      # the head arrival
                if log is not None:
                    self._log(t, nodes[rid], f"eject pid={pid} {ft.name.lower()}")
                if ft is _TAIL:
                    # in grant order, so ``delivered`` is in (eject cycle, router id) order
                    self._finish_packet(pid, t, out is _BUFFER)
                continue
            nqueue = queues[nkey]
            if len(nqueue) >= depth:
                raise SimulationError("credit discipline violated")
            if not nqueue:
                if nqueue is _UNUSED:
                    nqueue = queues[nkey] = deque()
                entered.append(nkey)
            flit.entered = t
            nqueue.append(flit)
            writes[nrid] += 1
            links[rid] += 1
            if flit.pt is _GATHER and units[nrid].pending is not None:
                # the handshake does nothing at a unit without a payload, and
                # no arrival of this cycle can give a unit one
                arrivals.append((nrid, flit))
            if ft is _HEAD:
                # XY routing (topology.xy_route), inline: a packet at its
                # destination leaves by the buffer port, which schedule_injection
                # checks a buffer packet's destination has, or the local one
                node, dst = nodes[nrid], flit.dst
                if dst.col != node.col:
                    nout = _EAST if dst.col > node.col else _WEST
                elif dst.row != node.row:
                    nout = _SOUTH if dst.row > node.row else _NORTH
                else:
                    nout = _BUFFER if flit.to_buffer else _LOCAL
                routes[nrid][pid] = entries[nkey * _N_PORTS + nout]
            elif ft is _TAIL and pid in watch:
                send = watch[pid]
                if send[1] == nrid:       # the successor's router: it is due
                    del watch[pid]
                    due.setdefault(max(send[3], t + 1), []).append(send)
        self._queued -= ejected
        self.flits_ejected += ejected
        if soon:
            self._wake_at(t + 1, soon)
        if entered:
            self._wake_at(t + pipeline, entered)
        return arrivals

    def _wake_at(self, cycle: int, keys: list[int]) -> None:
        """Add the queue keys ``keys``, at least one, to the wake-up bucket
        of ``cycle``; callers skip the call for none, so no empty bucket is
        made."""
        bucket = self._wake.get(cycle)
        if bucket is None:
            self._wake[cycle] = keys
        else:
            bucket.extend(keys)

    def _finish_packet(self, pid: int, tail_arrival: int, to_buffer: bool) -> None:
        # the flits built for the packet are the ones that travelled
        inject_cycle, head_arrival, timeout_init, flits = self._meta.pop(pid)
        head = flits[0]
        payloads = [slot for f in flits for slot in f.payload_slots]
        src, dst = head.src, head.dst
        if head.pt is _GATHER:
            cfg = self.config
            total_bits = payload_bits(payloads, cfg)
            if total_bits > cfg.gather_payload_capacity_bits:
                raise SimulationError("gather packet exceeded its payload capacity")
            if head.aspace != cfg.gather_payload_capacity_bits - total_bits:
                raise SimulationError("head free-space field out of sync with payloads")
        self.delivered.append(DeliveredPacket(
            pid, head.pt, src, dst, to_buffer, payloads,
            abs(dst.row - src.row) + abs(dst.col - src.col),  # hops under XY routing
            inject_cycle, head_arrival, tail_arrival, len(flits), head.vc, timeout_init))

    # phase 3: the gather handshake of the gather flits that arrived
    def _process_arrivals(self, arrivals, t: int) -> None:
        units, limits, log = self.units, self._limits, self.event_log
        deadlines = self._deadlines
        uploads = self.counters.recorded["payload_upload"]
        for rid, flit in arrivals:
            unit = units[rid]
            done = gather_arrival(flit, unit, limits)
            if done is None:
                continue
            if done == "upload":
                uploads[rid] += 1
                # the payload is served: its unit leaves the bucket of its
                # give-up deadline, which _node_phase reads after the
                # arrivals of that cycle, or else the expiring units
                deadline = unit.posted_at + unit.timeout
                if deadline >= t:
                    bucket = deadlines[deadline]
                    bucket.remove(rid)
                    if not bucket:
                        del deadlines[deadline]
                else:
                    self._expiring.discard(rid)
            if log is not None:
                ack = " ack" if done == "upload" else ""
                self._log(t, unit.node, f"{done} pid={flit.packet_id}{ack}")

    # phase 4: PE-side work: posts, drain chain, timeouts, injection
    def _node_phase(self, t: int) -> None:
        units, deadlines, expiring = self.units, self._deadlines, self._expiring
        posts = self._posts.pop(t, None)
        if posts:
            for rid, payload in posts:
                unit = units[rid]
                unit.post(payload, t)
                deadlines.setdefault(t + unit.timeout, []).append(rid)
                if self.event_log is not None:
                    self._log(t, unit.node, "post")

        sends = self._due_sends.pop(t, None)
        if sends:
            if len(sends) > 1:
                sends.sort()      # in schedule order: by seq, the first field
            ni, busy = self._ni, self._ni_busy
            for _, rid, flits, _ in sends:
                ni[rid].extend(flits)
                busy.add(rid)
                if self.event_log is not None:
                    self._log(t, self._nodes[rid], f"send pid={flits[0].packet_id}")

        expired = deadlines.pop(t, None)
        if expired:
            expiring.update(expired)
        for rid in sorted(expiring) if expiring else ():
            unit = units[rid]
            if not unit.expired(t):
                # reserved by a passing packet, whose body or tail uploads it
                expiring.discard(rid)
                continue
            if self._ni[rid]:
                continue
            expiring.discard(rid)
            payload = unit.take_for_self()
            pid = self.next_packet_id()
            flits = build_packet(_GATHER, unit.node, payload.dst,
                                 [(payload.origin, payload.value)], self.config, pid,
                                 to_buffer=True)
            timeout_init = unit.timeout > 0
            if timeout_init:
                self.timeout_packets += 1
            self._meta[pid] = [t, -1, timeout_init, flits]
            self._ni[rid].extend(flits)
            self._ni_busy.add(rid)
            if self.event_log is not None:
                kind = "timeout-init" if timeout_init else "gather-init"
                self._log(t, unit.node, f"{kind} pid={pid}")

        if not self._ni_busy:
            return
        cfg = self.config
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
            flit.entered = t
            local.append(flit)
            injected += 1
            counts[rid] += 1
            if flit.ft is _HEAD:
                # an initiator carries its own payload from birth, so the
                # gather handshake runs only at routers the packet arrives at
                pid = flit.packet_id
                self._meta[pid][0] = t    # the inject cycle
                out = xy_route(self._nodes[rid], flit.dst, cfg.cols, flit.to_buffer)
                self._routes[rid][pid] = self._entries[key * _N_PORTS + out]
        if injected:
            self._queued += injected
            self.flits_injected += injected
            if entered:
                self._wake_at(t + pipeline, entered)

    def _watchdog(self, t: int) -> None:
        """Count a cycle in which flits were queued, none moved and no
        ``stall_fn`` was set; too many in a row is a deadlock."""
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
