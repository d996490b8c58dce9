"""Output-stationary convolution engine.

Input vectors stream in from the left edge and filter vectors from the top
edge, skewed one cycle per row/column so operand pairs meet aligned; each PE
multiply-accumulates one operand pair per cycle and forwards both operands
to its east/south neighbor on dedicated systolic links (one hop per cycle,
not through the NoC).  A PE at (r, c) therefore receives its last operand
``stream_length + r + c`` cycles after the round starts and posts its result
``mac_latency`` cycles later.

Result collection is the NoC's job and is what the cycle-accurate network
simulates, in one of two modes:

* ``ru``: every PE sends its own two-flit unicast to the row's right-edge
  buffer port.  The buffer stores a row's results in PE order, so each PE
  defers its packet until its predecessor's tail has passed through the
  local router (an in-order drain chain it can observe locally).
* ``gather``: the row-start PE launches one gather packet eastward; PEs en
  route piggyback their payloads, and a PE whose give-up budget expires
  launches its own packet.

Rounds run back to back: a round's streaming starts once the previous
round's results have all been committed to the buffer, and the network is
checked to be drained at every round boundary.

In both modes a result goes to its own row's buffer port and XY routing
keeps it in that row, and the buffer's commit port never pushes back into
the network.  So rows are independent but for the order in which the port
commits their packets, (eject cycle, router id), and replay measures a
round class one row at a time (``_measure_class``).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate, islice

import numpy as np

from .analytic import gather_collection_cycles, ru_collection_cycles
from .config import MeshConfig, check_timeout_table, default_timeout_table
from .errors import ConfigError, LostPayloadError, OracleMismatchError, SimulationError
from .network import MeshNetwork, buffer_commits
from .power import EVENT_KINDS, ActivityCounters, EnergyCoefficients, total_energy
from .stats import RoundClass, RoundMeasurement, RunStats
from .topology import NodeId
from .workload import LayerConfig, round_count, stream_length

_INPUT_TAG = 0
_WEIGHT_TAG = 1

# splitmix64's increment (2**64 / golden ratio) and output multipliers
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Work bound (rounds x PEs x operands) under which every PE of every round
# is checked against the reference dot product; above it a deterministic
# sample is checked instead to keep big runs fast.
FULL_ORACLE_WORK_LIMIT = 2_000_000

# Operands per side (checked pairs x stream length) one oracle chunk holds at
# most, unless a single pair is longer; bounds the check's working memory.
ORACLE_CHUNK_ELEMENTS = 1 << 16


class CollectionMode(Enum):
    RU = "ru"
    GATHER = "gather"


def partial_conv_oracle(inputs, weights) -> int | list[int]:
    """Reference dot products, kept independent of the engine's arithmetic.

    ``inputs`` and ``weights`` are one vector each, or a stack of vectors
    on one side, all of length ``L``.  The products are taken in int64, so
    the operands' own dtype never sets the precision: an integer array that
    int64 holds exactly is widened inside the multiply, anything else is
    converted to int64 first.  The products are elementwise and summed
    along the last axis, never a matrix product.
    The result is exact: ``max|x| * max|w| * L < 2**63`` bounds every
    partial sum, and an operand pair outside that bound raises
    ``SimulationError``.  Returns an ``int`` for two vectors, a list of
    ints for a stack.
    """
    try:
        x, w = _int64_exact(inputs), _int64_exact(weights)
    except OverflowError:
        raise SimulationError("oracle operands do not fit in int64") from None
    length = x.shape[-1]
    if length != w.shape[-1]:
        raise ConfigError("oracle operands must have equal length")
    if _magnitude(x) * _magnitude(w) * length >= 1 << 63:
        raise SimulationError(f"oracle dot products of length {length} could overflow int64")
    return np.multiply(x, w, dtype=np.int64).sum(axis=-1).tolist()


def _int64_exact(a) -> np.ndarray:
    """``a`` as an array of values int64 holds: an integer array of a dtype
    that int64 holds exactly as it is, anything else converted to int64.
    Raises ``OverflowError`` for a value int64 does not hold, which a
    uint64 array would otherwise wrap silently."""
    if isinstance(a, np.ndarray) and a.dtype.kind in "iu":
        if np.can_cast(a.dtype, np.int64):
            return a
        if a.size and int(a.max()) >= 1 << 63:
            raise OverflowError("operand does not fit in int64")
    return np.asarray(a, dtype=np.int64)


def _magnitude(a: np.ndarray) -> int:
    """The largest ``|value|`` in ``a`` as a Python int (0 if empty)."""
    return max(-int(a.min()), int(a.max())) if a.size else 0


@dataclass(frozen=True)
class RoundSchedule:
    """One round's assignment of vectors to the mesh.

    ``input_ids`` map to rows top-down, ``filter_ids`` to columns
    left-to-right; a ragged final block leaves trailing rows/columns idle.
    """

    index: int
    input_ids: tuple[int, ...]
    filter_ids: tuple[int, ...]
    stream_len: int

    @property
    def active_rows(self) -> int:
        return len(self.input_ids)

    @property
    def active_cols(self) -> int:
        return len(self.filter_ids)


def _blocks(total: int, size: int) -> list[tuple[int, int, int]]:
    """``(size, count, index of the first)`` of the full blocks, then of the
    ragged last block if any, of ``total`` vectors cut into blocks of ``size``."""
    full, rest = divmod(total, size)
    return [b for b in ((size, full, 0), (rest, 1, full)) if b[0] and b[1]]


class RoundPlan:
    """Every round of one layer on one mesh, by block arithmetic: round
    ``ib * col_count + fb`` pairs row block ``ib`` (input vectors, ``n`` per
    block) with column block ``fb`` (filters, ``m`` per block).  Only a last
    block can be ragged, so a layer has at most four round classes."""

    def __init__(self, layer: LayerConfig, config: MeshConfig) -> None:
        self.p, self.q, self.n, self.m = layer.vectors, layer.kernels, config.rows, config.cols
        self.stream_len = stream_length(layer)
        self.row_blocks, self.col_blocks = _blocks(self.p, self.n), _blocks(self.q, self.m)
        self.col_count = math.ceil(self.q / self.m)
        self.rounds = round_count(layer, config)

    def schedule(self, index: int) -> RoundSchedule:
        ib, fb = divmod(index, self.col_count)
        return RoundSchedule(index, tuple(range(ib * self.n, min(ib * self.n + self.n, self.p))),
                             tuple(range(fb * self.m, min(fb * self.m + self.m, self.q))),
                             self.stream_len)


def build_round_schedules(layer: LayerConfig, config: MeshConfig) -> list[RoundSchedule]:
    """The round plan expanded round by round, in round order."""
    plan = RoundPlan(layer, config)
    return [plan.schedule(i) for i in range(plan.rounds)]


def _mix64(z: int) -> int:
    """splitmix64's output mix (Steele, Lea and Flood, OOPSLA 2014), a
    bijection on 64-bit words, of a Python int in 0..2**64-1."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_words(z: np.ndarray) -> np.ndarray:
    """``_mix64`` of every word of the uint64 array ``z``, in place: array
    arithmetic wraps modulo 2**64 by itself (numpy uint64 scalars would warn)."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _seed_key(seed: int) -> int:
    """``seed``, any non-negative int, folded into a 64-bit key one 64-bit
    limb at a time, low limb first; seeds below 2**64 get distinct keys."""
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = _mix64((key + _GOLDEN + ((seed >> shift) & _MASK64)) & _MASK64)
    return key


def operand_block(seed: int, tag: int, vec_ids, length: int) -> np.ndarray:
    """The 8-bit operand vectors ``vec_ids`` of side ``tag``, one per row: a
    ``(len(vec_ids), length)`` uint8 array, so whoever multiplies them
    must widen them (uint8 products wrap).

    A counter-based splitmix64: each vector's key mixes the seed's key, the
    tag and the vector id; word ``j`` of the vector is the mix of ``key +
    (j + 1) * golden`` modulo 2**64, and gives 8 operands, its bytes in
    little-endian order.  So every value is a pure function of (seed, tag,
    id, index), the same on any byte order, and row ``k`` depends on
    ``vec_ids[k]`` alone, not on the other ids.
    """
    tag_key = _mix64((_seed_key(seed) + (tag + 1) * _GOLDEN) & _MASK64)
    # an id enters the key modulo 2**64, as in Python-int arithmetic
    ids = np.array([i & _MASK64 for i in vec_ids], dtype=np.uint64)
    keys = _mix64_words((ids + 1) * _GOLDEN + tag_key)
    words = np.arange(1, (length + 7) // 8 + 1, dtype=np.uint64) * _GOLDEN
    z = _mix64_words(words + keys[:, None])
    return z.astype("<u8", copy=False).view(np.uint8)[:, :length]


def round_accumulators(seed: int, input_ids, filter_ids, length: int):
    """``(accumulators, inputs, weights)`` of the PEs that pair input vector
    ``input_ids[k]`` with filter ``filter_ids[k]``, from any rounds, ids
    repeating or not: the engine's final accumulator of each PE and the
    operand vectors stacked one row per PE, so the oracle can check against
    them without generating them again.  The engine is a batched dot
    product by contraction (``einsum``, accumulating in int64), never the
    oracle's elementwise multiply and sum; it widens the 8-bit operands as
    it goes, so no int64 copy of them is made."""
    ins = operand_block(seed, _INPUT_TAG, input_ids, length)
    wts = operand_block(seed, _WEIGHT_TAG, filter_ids, length)
    return np.einsum("ij,ij->i", ins, wts, dtype=np.int64), ins, wts


# --------------------------------------------------------------------- runs

def ideal_collection_cycles(config: MeshConfig, mode: CollectionMode) -> int:
    """The closed-form full-row collection term of ``mode`` (no congestion or
    waits), which ``delta_measured`` is measured against."""
    if mode == CollectionMode.RU:
        return ru_collection_cycles(config)
    return gather_collection_cycles(config)


def _collection_mode(mode: CollectionMode | str) -> CollectionMode:
    try:
        return CollectionMode(mode)
    except ValueError:
        raise ConfigError(f"unknown mode {mode!r}; choose ru or gather") from None


def check_payload_width(config: MeshConfig, layer: LayerConfig) -> None:
    """Reject a layer whose largest accumulator (8-bit operands) does not fit
    in a result payload, before any simulation starts."""
    length = stream_length(layer)
    if 255 * 255 * length >= 1 << config.gather_payload_bits:
        raise ConfigError(
            f"{layer.model}/{layer.layer}: results up to 255*255*{length} need "
            f"more than gather_payload_bits = {config.gather_payload_bits}"
        )


def _check_stand_in_width(config: MeshConfig) -> None:
    """Reject a mesh whose largest stand-in result, the flat PE index
    ``rows * cols - 1`` that ``_collect`` posts, does not fit in a result
    payload, before any cycle is stepped: ru would fail mid-run on it and
    gather would carry it unchecked."""
    largest = config.rows * config.cols - 1
    if largest >= 1 << config.gather_payload_bits:
        raise ConfigError(
            f"stand-in results up to {largest} of the {config.rows}x{config.cols} mesh "
            f"need more than gather_payload_bits = {config.gather_payload_bits}"
        )


def run_convolution(
    layer: LayerConfig,
    config: MeshConfig,
    mode: CollectionMode | str,
    seed: int = 1,
    timeout_table: dict[tuple[int, int], int] | None = None,
    coefficients: EnergyCoefficients | None = None,
    oracle: str = "auto",
    replay: bool = True,
    event_log: list[str] | None = None,
    shared: dict | None = None,
) -> RunStats:
    """Execute all rounds of one layer in one collection mode.

    The oracle runs first, before any network is built: ``oracle`` is
    ``full``, ``sample`` (at most four PEs of every ``rounds // 32``-th
    round) or ``auto``, and ``_check_oracle`` generates the operands of the
    checked PEs only, a bounded chunk at a time.  The network then carries
    no operands: each PE posts a stand-in payload, so a round's measurement
    depends on the mesh, mode, timeout table and the round's shape alone.

    With ``replay`` each round class ``(active_rows, active_cols)`` of the
    layer's ``RoundPlan`` is measured once, in networks of its own that
    start drained, relative to the class's ready cycle.  Without an event
    log that is ``_measure_class``: one row network per distinct row of
    give-up budgets (one under the default table), the rows merged at the
    buffer commit port in (eject cycle, router id) order.  With one, the
    class is one round on the whole mesh, because event lines name packets
    by id and interleave the rows within a cycle; its events are logged
    shifted to the true ready cycle of the class's first round.
    ``replay=False``, the reference the replay differential tests compare
    against, simulates every round back to back in one network that
    carries its state, and checks each against its class's first.

    ``shared`` holds what several calls can reuse: the class measurements,
    keyed by everything a class simulation depends on, and the oracle's
    verdict on a layer, keyed by the layer, mesh, seed and resolved oracle
    mode (nothing else sets the checked pairs and operand values).  A
    verdict is stored only once every check of the layer has passed.
    ``harness.run`` passes one mapping to all its calls, so it measures
    each class once and checks each layer once per run.
    """
    mode = _collection_mode(mode)
    if oracle not in ("auto", "full", "sample"):
        raise ConfigError(f"unknown oracle {oracle!r}; choose auto, full or sample")
    check_timeout_table(config, timeout_table)
    check_payload_width(config, layer)
    _check_stand_in_width(config)
    plan = RoundPlan(layer, config)
    stats = RunStats(model=layer.model, layer=layer.layer, mode=mode.value,
                     rows=config.rows, cols=config.cols, seed=seed, rounds=plan.rounds,
                     ideal_collection=ideal_collection_cycles(config, mode))

    if oracle == "auto":
        work = plan.rounds * config.rows * config.cols * plan.stream_len
        oracle = "full" if work <= FULL_ORACLE_WORK_LIMIT else "sample"
    shared = {} if shared is None else shared
    verdict = ("oracle passed", layer, config, seed, oracle)
    if verdict not in shared:  # else an earlier call passed every check of this layer
        _check_oracle(plan, oracle, seed)
        shared[verdict] = True

    ready_offset = plan.stream_len + config.mac_latency  # a round's ready cycle, from its start
    if not replay:  # the first measurement of each class, every round checked against it
        net = MeshNetwork(config, timeout_table=timeout_table, event_log=event_log)
        firsts: dict[tuple[int, int], tuple[int, RoundMeasurement]] = {}
        start = 0
        for schedule in build_round_schedules(layer, config):
            m = _simulate_round(net, config, mode, schedule, start + ready_offset)
            shape = (schedule.active_rows, schedule.active_cols)
            first_round, expected = firsts.setdefault(shape, (schedule.index, m))
            if m != expected:
                raise SimulationError(
                    f"round {schedule.index} measured otherwise than round {first_round}, the "
                    f"first of its {shape[0]}x{shape[1]} class: rounds are not independent")
            start += ready_offset + m.collection
    timeouts = tuple(sorted(timeout_table.items())) if timeout_table else ()
    table = []
    for _, row_count, ib in plan.row_blocks:
        for _, col_count, fb in plan.col_blocks:
            first = plan.schedule(ib * plan.col_count + fb)
            shape = (first.active_rows, first.active_cols)
            key = (config, mode, timeouts, *shape, event_log is not None)
            if not replay:
                m = firsts[shape][1]
            elif (m := shared.get(key)) is None and event_log is None:
                m = shared[key] = _measure_class(config, mode, first, timeout_table)
            elif m is None:
                events = []
                m = shared[key] = replace(_simulate_round(
                    MeshNetwork(config, timeout_table=timeout_table, event_log=events),
                    config, mode, first, 0), events=events)
            table.append(RoundClass(*shape, row_count, col_count, first.index,
                                    ready_offset + m.collection, m))
    _fold_rounds(stats, table, coefficients)
    if replay and event_log is not None:
        starts = list(accumulate(stats.per_round_latency, initial=0))
        for c in table:  # each class's lines "<cycle> <rest>", shifted to its first round
            shift = starts[c.first_round] + ready_offset
            for cycle, rest in (line.split(" ", 1) for line in c.measurement.events):
                event_log.append(f"{int(cycle) + shift} {rest}")
    return stats


def _fold_rounds(stats: RunStats, table: list[RoundClass],
                 coefficients: EnergyCoefficients | None) -> RunStats:
    """Put ``table`` on ``stats`` and fold each class's measurement into it
    times the class's round count."""
    stats.round_classes = table
    counters = ActivityCounters()
    for c in table:
        m, count = c.measurement, c.rounds
        stats.total_cycles += count * c.latency
        stats.packets += count * m.packets
        stats.flits += count * m.flits
        stats.hops += count * m.hops
        stats.timeout_packets += count * m.timeout_packets
        stats.payloads_delivered += count * m.payloads
        counters.add_scaled(m.counter_delta, count)
    stats.counter_totals = counters.totals()
    stats.energy = total_energy(counters, coefficients)
    return stats


def _simulate_round(net: MeshNetwork, config: MeshConfig, mode: CollectionMode,
                    schedule: RoundSchedule, ready_base: int) -> RoundMeasurement:
    """Collect one round of ``schedule``'s shape, PE ``(r, c)`` ready
    ``r + c`` cycles after ``ready_base``."""
    ready = [(NodeId(r, c), ready_base + r + c)
             for r in range(schedule.active_rows)
             for c in range(schedule.active_cols)]
    full = schedule.active_rows == config.rows and schedule.active_cols == config.cols
    return _collect(net, config, mode, ready, ready_base, full, f"round {schedule.index}")


def _measure_class(config: MeshConfig, mode: CollectionMode, schedule: RoundSchedule,
                   timeout_table: dict[tuple[int, int], int] | None) -> RoundMeasurement:
    """Measure a round of ``schedule``'s shape, as ``_simulate_round`` on a
    fresh network of the whole mesh would, one mesh row at a time.

    Every result goes to the buffer port at the right edge of its own row,
    and XY routing keeps its flits in that row; the buffer's commit port,
    the one thing rows share, never holds a flit back.  So a row's traffic
    depends on its own PEs' give-up budgets alone (the explicit table laid
    over the default staircase), and rows with equal budgets are copies of
    each other, row ``r`` shifted by ``r`` cycles.  Each group of such rows
    is collected once, on a one-row network with PE ``c`` ready at cycle
    ``c``, through ``_collect`` and all its checks.  The commit port is then
    replayed over every row's tail ejects by ``buffer_commits``: the last
    commit is the collection and the head latencies come in commit order;
    every other field sums over the rows.
    """
    cols = config.cols
    table = {**default_timeout_table(config), **(timeout_table or {})}
    groups: dict[tuple[int, ...], list[int]] = {}
    for r in range(schedule.active_rows):
        groups.setdefault(tuple(table[r, c] for c in range(cols)), []).append(r)
    row_config = replace(config, rows=1)
    sums = dict.fromkeys(("packets", "flits", "hops", "payloads", "timeout_packets"), 0)
    delta = dict.fromkeys(EVENT_KINDS, 0)
    ejects = []
    ready = [(NodeId(0, c), c) for c in range(schedule.active_cols)]
    for budgets, rows in groups.items():
        net = MeshNetwork(row_config, timeout_table={(0, c): b for c, b in enumerate(budgets)})
        m = _collect(net, row_config, mode, ready, 0, False,
                     f"round {schedule.index}, row {rows[0]}")
        for name in sums:
            sums[name] += len(rows) * getattr(m, name)
        for kind, n in m.counter_delta.items():
            delta[kind] += len(rows) * n
        for r in rows:
            rid = r * cols + cols - 1
            ejects += [(pkt.tail_arrival + r, rid, pkt.head_arrival - pkt.inject_cycle)
                       for pkt in net.delivered]
    commits = buffer_commits(ejects, config.buffer_commit_rate)
    return RoundMeasurement(
        collection=commits[-1][0],
        full_round=schedule.active_rows == config.rows and schedule.active_cols == cols,
        head_latencies=[eject[2] for _, eject in commits],
        counter_delta=delta,
        **sums,
    )


def _collect(net: MeshNetwork, config: MeshConfig, mode: CollectionMode,
             ready: list[tuple[NodeId, int]], ready_base: int,
             full_round: bool, what: str) -> RoundMeasurement:
    """Post a result of every ``(node, ready cycle)``, drain them to the
    buffer, check each was delivered exactly once and the network drained,
    and measure the round.  ``ready_base`` is the earliest ready cycle.
    Each node posts its flat index ``row * cols + col`` as a stand-in
    result, distinct per node, so the measurement never depends on operand
    values."""
    delivered_before = len(net.delivered)
    counters_before = net.counters.totals()
    flits_before = net.flits_injected
    timeout_before = net.timeout_packets

    expected = [(node, node.index(config.cols)) for node, _ in ready]
    prev_pid: dict[int, int] = {}  # each row's in-order unicast chain
    for (node, cycle), (_, value) in zip(ready, expected):
        if mode == CollectionMode.RU:
            prev_pid[node.row] = net.schedule_unicast_result(
                node, value, cycle, prev_pid.get(node.row))
        else:
            net.schedule_post(cycle, node, value)

    if net.cycle < ready_base:
        net.jump_to(ready_base)
    # a payload no packet picks up waits out its node's give-up budget
    limit = ready_base + (config.rows + config.cols) * (config.pipeline_depth + 2) * 4 \
        + config.rows * config.cols * config.unicast_len + 10_000 \
        + max(router.unit.timeout for router in net.routers)
    net.run_until_idle(limit)

    round_delivered = net.delivered[delivered_before:]
    delivered_payloads = [p for pkt in round_delivered for p in pkt.payloads]
    # stand-in values are distinct per node, so ordering by value alone puts
    # two lists of the same payloads in the same order
    value = operator.itemgetter(1)
    if sorted(delivered_payloads, key=value) != sorted(expected, key=value):
        missing = set(expected) - set(delivered_payloads)
        raise LostPayloadError(
            f"{what}: delivered payloads do not match posted ones "
            f"(missing or duplicated: {sorted(missing) if missing else 'duplicates'})"
        )

    net.assert_drained()
    round_end = max(pkt.commit_cycle for pkt in round_delivered)
    return RoundMeasurement(
        collection=round_end - ready_base,
        packets=len(round_delivered),
        flits=net.flits_injected - flits_before,
        hops=sum(pkt.hops for pkt in round_delivered),
        payloads=len(delivered_payloads),
        timeout_packets=net.timeout_packets - timeout_before,
        full_round=full_round,
        head_latencies=[pkt.head_arrival - pkt.inject_cycle for pkt in round_delivered],
        counter_delta={k: n - counters_before[k] for k, n in net.counters.totals().items()},
    )


def run_ready_row(
    config: MeshConfig,
    row: int,
    mode: CollectionMode | str,
    timeout_table: dict[tuple[int, int], int] | None = None,
) -> RunStats:
    """One row of PEs, all with a result ready at cycle 0 (motivating demo),
    drained to the buffer in ``mode``: the stats of a one-round run."""
    mode = _collection_mode(mode)
    check_timeout_table(config, timeout_table)
    _check_stand_in_width(config)
    if not 0 <= row < config.rows:
        raise ConfigError(f"row {row} outside the {config.rows}-row mesh")
    m = _collect(MeshNetwork(config, timeout_table=timeout_table), config, mode,
                 [(NodeId(row, c), 0) for c in range(config.cols)], ready_base=0,
                 full_round=False, what=f"ready row {row}")
    stats = RunStats(model="demo", layer=f"ready-row-{row}", mode=mode.value,
                     rows=config.rows, cols=config.cols, seed=0, rounds=1,
                     ideal_collection=ideal_collection_cycles(config, mode))
    return _fold_rounds(stats, [RoundClass(1, config.cols, 1, 1, 0, m.collection, m)], None)


def _oracle_pairs(plan: RoundPlan, oracle_mode: str):
    """The layer's checked pairs ``(round, row, col, input id, filter id)``
    in round-then-PE order: every active PE of every round under ``full``;
    under ``sample`` at most four PEs, evenly spaced in row-major order, of
    every ``rounds // 32``-th round."""
    stride = 1 if oracle_mode == "full" else max(1, plan.rounds // 32)
    for schedule in map(plan.schedule, range(0, plan.rounds, stride)):
        pes = range(schedule.active_rows * schedule.active_cols)
        if oracle_mode == "sample":
            pes = pes[:: max(1, len(pes) // 4)][:4]
        for r, c in (divmod(k, schedule.active_cols) for k in pes):
            yield schedule.index, r, c, schedule.input_ids[r], schedule.filter_ids[c]


def _check_oracle(plan: RoundPlan, oracle_mode: str, seed: int) -> None:
    """Check the engine accumulator of every pair of ``_oracle_pairs``
    against the reference dot product of its operand vectors.  The pairs go
    in chunks of at most ``ORACLE_CHUNK_ELEMENTS`` operands per side (one
    pair at least), each with one ``round_accumulators`` and one oracle
    call; the first mismatch in round-then-PE order raises."""
    pairs = _oracle_pairs(plan, oracle_mode)
    size = max(1, ORACLE_CHUNK_ELEMENTS // plan.stream_len)
    while chunk := list(islice(pairs, size)):
        _, _, _, input_ids, filter_ids = zip(*chunk)
        accs, ins, wts = round_accumulators(seed, input_ids, filter_ids, plan.stream_len)
        refs = partial_conv_oracle(ins, wts)
        for (index, r, c, _, _), acc, ref in zip(chunk, accs.tolist(), refs):
            if acc != ref:
                raise OracleMismatchError(
                    f"round {index} PE ({r},{c}): engine accumulator {acc} != reference {ref}"
                )
