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
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain

import numpy as np

from .analytic import gather_collection_cycles, ru_collection_cycles
from .config import MeshConfig, check_timeout_table
from .errors import ConfigError, LostPayloadError, OracleMismatchError, SimulationError
from .network import MeshNetwork
from .power import ActivityCounters, EnergyCoefficients, total_energy
from .stats import RunStats
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


class CollectionMode(Enum):
    RU = "ru"
    GATHER = "gather"


def partial_conv_oracle(inputs, weights) -> int | list[int]:
    """Reference dot products, kept independent of the engine's arithmetic.

    ``inputs`` and ``weights`` are one vector each, or a stack of vectors
    on one side, all of length ``L``.  Both are widened to int64 here, so
    the operands' own dtype never sets the precision; the products are
    elementwise and summed along the last axis, never a matrix product.
    The result is exact: ``max|x| * max|w| * L < 2**63`` bounds every
    partial sum, and an operand pair outside that bound raises
    ``SimulationError``.  Returns an ``int`` for two vectors, a list of
    ints for a stack.
    """
    try:
        x = np.asarray(inputs, dtype=np.int64)
        w = np.asarray(weights, dtype=np.int64)
    except OverflowError:
        raise SimulationError("oracle operands do not fit in int64") from None
    length = x.shape[-1]
    if length != w.shape[-1]:
        raise ConfigError("oracle operands must have equal length")
    if _magnitude(x) * _magnitude(w) * length >= 1 << 63:
        raise SimulationError(f"oracle dot products of length {length} could overflow int64")
    return (x * w).sum(axis=-1).tolist()


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
    ``(len(vec_ids), length)`` int64 array of values in 0..255.

    A counter-based splitmix64: each vector's key mixes the seed's key, the
    tag and the vector id; word ``j`` of the vector is the mix of ``key +
    (j + 1) * golden`` modulo 2**64, and gives 8 operands, its bytes in
    little-endian order.  So every value is a pure function of (seed, tag,
    id, index), the same on any byte order, and row ``k`` equals
    ``operand_vector(seed, tag, vec_ids[k], length)`` whatever the other ids.
    """
    tag_key = _mix64((_seed_key(seed) + (tag + 1) * _GOLDEN) & _MASK64)
    keys = np.array([_mix64((tag_key + (i + 1) * _GOLDEN) & _MASK64) for i in vec_ids],
                    dtype=np.uint64)
    words = np.arange(1, (length + 7) // 8 + 1, dtype=np.uint64) * _GOLDEN
    z = _mix64_words(words + keys[:, None])
    return z.astype("<u8", copy=False).view(np.uint8)[:, :length].astype(np.int64)


def operand_vector(seed: int, tag: int, vec_id: int, length: int) -> np.ndarray:
    """Deterministic 8-bit operand vector, independent of round order: the
    one-row ``operand_block``."""
    return operand_block(seed, tag, (vec_id,), length)[0]


def input_vector(seed: int, vec_id: int, length: int) -> np.ndarray:
    return operand_vector(seed, _INPUT_TAG, vec_id, length)


def weight_vector(seed: int, vec_id: int, length: int) -> np.ndarray:
    return operand_vector(seed, _WEIGHT_TAG, vec_id, length)


def round_accumulators(schedule: RoundSchedule, seed: int):
    """``(accumulators, inputs, weights)`` of one round: the final
    accumulator of every active PE (rows x cols) and the stacked operand
    vectors of the round's rows and columns, so the oracle can check
    against them without generating them again."""
    ins = operand_block(seed, _INPUT_TAG, schedule.input_ids, schedule.stream_len)
    wts = operand_block(seed, _WEIGHT_TAG, schedule.filter_ids, schedule.stream_len)
    return ins @ wts.T, ins, wts


def sampled_accumulators(schedule: RoundSchedule, seed: int, pes: list[tuple[int, int]]):
    """``round_accumulators`` on only the rows and columns of ``pes``: the
    accumulators by ``(row, col)``, the operand vectors by row and by column."""
    rows, cols = sorted({r for r, _ in pes}), sorted({c for _, c in pes})
    accs, ins, wts = round_accumulators(replace(
        schedule, input_ids=tuple(schedule.input_ids[r] for r in rows),
        filter_ids=tuple(schedule.filter_ids[c] for c in cols)), seed)
    return ({(r, c): accs[rows.index(r), cols.index(c)] for r, c in pes},
            dict(zip(rows, ins)), dict(zip(cols, wts)))


# --------------------------------------------------------------------- runs

@dataclass(eq=False)
class _RoundMeasurement:
    """What one simulated round measured, with cycles counted from its ready
    cycle (when its first result is posted); compared and hashed by
    identity, so that replayed rounds can be counted per measurement.
    ``events`` holds the round's event lines, cycles counted from the ready
    cycle too, when its class was measured with an event log."""

    collection: int
    packets: int
    flits: int
    hops: int
    payloads: int
    timeout_packets: int
    full_round: bool
    head_latencies: list[int]
    counter_delta: dict[str, int]
    events: list[str] | None = None


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
    round) or ``auto``, and each checked round generates the operands of
    its checked PEs only.  The network then carries no operands: each PE
    posts a stand-in payload, so a round's measurement depends on the
    mesh, mode, timeout table and the round's shape alone.

    With ``replay`` each round class ``(active_rows, active_cols)`` of the
    layer's ``RoundPlan`` is measured once, in a network of its own that
    starts drained, relative to the class's ready cycle; every round of the
    class reuses that measurement, and its events are logged shifted to
    the true ready cycle of the class's first round.  ``replay=False``
    simulates every round of ``build_round_schedules`` back to back in one
    network that carries its state: the reference the replay differential
    tests compare against.

    ``shared`` holds what several calls can reuse: the class measurements,
    keyed by everything a class simulation depends on, and the oracle's
    verdict on a layer, keyed by the layer, mesh, seed and resolved oracle
    mode (the checked pairs and operand values depend on nothing else, not
    on the collection mode).  A verdict is stored only once every check of
    the layer has passed; a call that finds one does no operand work.
    ``harness.run`` passes one mapping to all its calls, so it measures
    each class once and checks each layer once per run.  By default each
    call measures and checks afresh.
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
        stride = 1 if oracle == "full" else max(1, plan.rounds // 32)
        for schedule in map(plan.schedule, range(0, plan.rounds, stride)):
            pes = _oracle_pes(schedule, oracle)
            _check_oracle(schedule, pes, *sampled_accumulators(schedule, seed, pes))
        shared[verdict] = True

    # a round's ready cycle, counted from its start
    ready_offset = plan.stream_len + config.mac_latency
    # rows: (the measurements of one row of rounds, how many rows repeat it)
    if replay:
        table = tuple(sorted(timeout_table.items())) if timeout_table else ()
        rows, row_start = [], 0
        for _, row_count, ib in plan.row_blocks:
            row, start = [], row_start
            for _, col_count, fb in plan.col_blocks:
                schedule = plan.schedule(ib * plan.col_count + fb)
                key = (config, mode, table, schedule.active_rows, schedule.active_cols,
                       event_log is not None)
                m = shared.get(key)
                if m is None:
                    events = None if event_log is None else []
                    m = shared[key] = _simulate_round(
                        MeshNetwork(config, timeout_table=timeout_table, event_log=events),
                        config, mode, schedule, 0)
                    m.events = events
                if event_log is not None:
                    event_log.extend(_shifted(m.events, start + ready_offset))
                row += [m] * col_count
                start += col_count * (ready_offset + m.collection)
            rows.append((row, row_count))
            row_start += row_count * (start - row_start)
    else:
        net = MeshNetwork(config, timeout_table=timeout_table, event_log=event_log)
        row, start = [], 0
        for schedule in build_round_schedules(layer, config):
            row.append(_simulate_round(net, config, mode, schedule, start + ready_offset))
            start += ready_offset + row[-1].collection
        rows = [(row, 1)]
    return _fold_rounds(stats, rows, coefficients, ready_offset)


def _shifted(events: list[str], offset: int):
    """Event lines ``"<cycle> <rest>"`` with ``offset`` added to each cycle."""
    for line in events:
        cycle, rest = line.split(" ", 1)
        yield f"{int(cycle) + offset} {rest}"


def _fold_rounds(stats: RunStats, rows: list[tuple[list[_RoundMeasurement], int]],
                 coefficients: EnergyCoefficients | None, ready_offset: int) -> RunStats:
    """Fill ``stats`` from ``rows``: (measurements of a row of rounds, times
    the row repeats).  A round's latency is ``ready_offset`` plus its
    collection.  A replayed round is its class's measurement object, so
    scalars and counters are folded once per measurement, times its count."""
    def per_round(values) -> list[int]:
        return list(chain.from_iterable(values(row) * times for row, times in rows))

    stats.per_round_latency = per_round(lambda row: [ready_offset + m.collection for m in row])
    stats.per_round_collection = per_round(lambda row: [m.collection for m in row])
    stats.delta_measured = per_round(lambda row: [m.collection - stats.ideal_collection
                                                  for m in row if m.full_round])
    stats.total_cycles = sum(stats.per_round_latency)
    stats.head_latencies = list(rows[0][0][0].head_latencies)
    counts = Counter()
    for row, times in rows:
        for m in row:
            counts[m] += times
    counters = ActivityCounters()
    for m, count in counts.items():
        stats.packets += count * m.packets
        stats.flits += count * m.flits
        stats.hops += count * m.hops
        stats.timeout_packets += count * m.timeout_packets
        stats.payloads_delivered += count * m.payloads
        counters.add_scaled(m.counter_delta, count)
    stats.counter_totals = counters.totals()
    stats.energy = total_energy(counters, coefficients)
    return stats


def _simulate_round(
    net: MeshNetwork,
    config: MeshConfig,
    mode: CollectionMode,
    schedule: RoundSchedule,
    ready_base: int,
) -> _RoundMeasurement:
    """Collect one round of ``schedule``'s shape, PE ``(r, c)`` ready
    ``r + c`` cycles after ``ready_base``."""
    ready = [(NodeId(r, c), ready_base + r + c)
             for r in range(schedule.active_rows)
             for c in range(schedule.active_cols)]
    full = schedule.active_rows == config.rows and schedule.active_cols == config.cols
    return _collect(net, config, mode, ready, ready_base, full, f"round {schedule.index}")


def _collect(net: MeshNetwork, config: MeshConfig, mode: CollectionMode,
             ready: list[tuple[NodeId, int]], ready_base: int,
             full_round: bool, what: str) -> _RoundMeasurement:
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
    for node, cycle in ready:
        value = node.index(config.cols)
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
    if sorted(delivered_payloads) != sorted(expected):
        missing = set(expected) - set(delivered_payloads)
        raise LostPayloadError(
            f"{what}: delivered payloads do not match posted ones "
            f"(missing or duplicated: {sorted(missing) if missing else 'duplicates'})"
        )

    net.assert_drained()
    round_end = max(pkt.commit_cycle for pkt in round_delivered)
    return _RoundMeasurement(
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
    """One row of PEs, all with a result ready at cycle 0 (motivating demo).

    Returns stats for draining that single row's results to the buffer in
    the requested mode, as a one-round run.
    """
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
    return _fold_rounds(stats, [([m], 1)], None, ready_offset=0)


def _oracle_pes(schedule: RoundSchedule, oracle_mode: str) -> list[tuple[int, int]]:
    """PEs ``(row, col)`` the oracle checks in a round: every active PE, or
    under ``sample`` at most four, evenly spaced in row-major order."""
    pes = range(schedule.active_rows * schedule.active_cols)
    if oracle_mode == "sample":
        pes = pes[:: max(1, len(pes) // 4)][:4]
    return [divmod(k, schedule.active_cols) for k in pes]


def _check_oracle(schedule: RoundSchedule, pes: list[tuple[int, int]], accs, ins, wts) -> None:
    """Check the engine accumulators ``accs[r, c]`` of ``pes`` against the
    reference dot products of the operand vectors ``ins[r]`` and ``wts[c]``,
    one oracle call per column against the stack of its checked rows."""
    rows_of: dict[int, list[int]] = {}
    for r, c in pes:
        rows_of.setdefault(c, []).append(r)
    refs = {}
    for c, rows in rows_of.items():
        col = partial_conv_oracle(np.stack([ins[r] for r in rows]), wts[c])
        refs.update(zip(((r, c) for r in rows), col))
    for r, c in pes:
        if refs[r, c] != int(accs[r, c]):
            raise OracleMismatchError(
                f"round {schedule.index} PE ({r},{c}): engine accumulator "
                f"{int(accs[r, c])} != reference {refs[r, c]}"
            )
