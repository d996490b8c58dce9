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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import MeshConfig
from .errors import ConfigError, LostPayloadError, OracleMismatchError, SimulationError
from .network import MeshNetwork
from .power import ActivityCounters, EnergyCoefficients, total_energy
from .stats import RunStats
from .topology import NodeId
from .workload import LayerConfig, stream_length

_INPUT_TAG = 0
_WEIGHT_TAG = 1

# Work bound (rounds x PEs x operands) under which every PE of every round
# is checked against the reference dot product; above it a deterministic
# sample is checked instead to keep big runs fast.
FULL_ORACLE_WORK_LIMIT = 2_000_000


class CollectionMode(Enum):
    RU = "ru"
    GATHER = "gather"


def pe_mac(acc: int, operand: int, weight: int) -> int:
    """One multiply-accumulate step."""
    return acc + operand * weight


def partial_conv_oracle(inputs, weights) -> int:
    """Reference dot product, kept independent of the engine's arithmetic.

    Given Python ints (``ndarray.tolist()``) it computes in exact integer
    arithmetic, not numpy's matrix product.
    """
    if len(inputs) != len(weights):
        raise ConfigError("oracle operands must have equal length")
    return sum(map(operator.mul, inputs, weights))


@dataclass
class PEState:
    """Register state of one PE in the desk-scale stream validator."""

    accumulator: int = 0
    received_count: int = 0
    input_reg: int | None = None
    weight_reg: int | None = None


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

    def class_key(self) -> tuple[int, int]:
        return (self.active_rows, self.active_cols)


def build_round_schedules(layer: LayerConfig, config: MeshConfig) -> list[RoundSchedule]:
    n, m = config.rows, config.cols
    p, q = layer.vectors, layer.kernels
    length = stream_length(layer)
    schedules = []
    idx = 0
    for ib in range(math.ceil(p / n)):
        rows = tuple(range(ib * n, min((ib + 1) * n, p)))
        for fb in range(math.ceil(q / m)):
            cols = tuple(range(fb * m, min((fb + 1) * m, q)))
            schedules.append(RoundSchedule(idx, rows, cols, length))
            idx += 1
    return schedules


def operand_vector(seed: int, tag: int, vec_id: int, length: int) -> np.ndarray:
    """Deterministic 8-bit operand vector, independent of round order."""
    rng = np.random.default_rng((seed, tag, vec_id))
    return rng.integers(0, 256, size=length, dtype=np.int64)


def input_vector(seed: int, vec_id: int, length: int) -> np.ndarray:
    return operand_vector(seed, _INPUT_TAG, vec_id, length)


def weight_vector(seed: int, vec_id: int, length: int) -> np.ndarray:
    return operand_vector(seed, _WEIGHT_TAG, vec_id, length)


def round_accumulators(schedule: RoundSchedule, seed: int, operands: bool = False):
    """Final accumulator of every active PE for one round (rows x cols).

    With ``operands`` it returns ``(accumulators, inputs, weights)``: the
    stacked operand vectors of the round's rows and columns come along, so
    the oracle can check against them without generating them again.
    """
    ins = np.stack([input_vector(seed, i, schedule.stream_len) for i in schedule.input_ids])
    wts = np.stack([weight_vector(seed, k, schedule.stream_len) for k in schedule.filter_ids])
    accs = ins @ wts.T
    return (accs, ins, wts) if operands else accs


def last_operand_cycle(stream_len: int, row: int, col: int) -> int:
    """Round-relative cycle the last operand reaches PE (row, col)."""
    return stream_len + row + col


def post_cycle(stream_len: int, row: int, col: int, mac_latency: int) -> int:
    return last_operand_cycle(stream_len, row, col) + mac_latency


def simulate_stream(schedule: RoundSchedule, seed: int) -> np.ndarray:
    """Cycle-level operand propagation through PE registers (validator).

    Each PE latches the operands from its west/north neighbor, MACs them,
    and forwards them unchanged next cycle.  Returns the accumulator grid;
    used in tests to pin the closed-form skew and the engine arithmetic.
    """
    n, m = schedule.active_rows, schedule.active_cols
    length = schedule.stream_len
    ins = [input_vector(seed, i, length) for i in schedule.input_ids]
    wts = [weight_vector(seed, k, length) for k in schedule.filter_ids]
    pes = [[PEState() for _ in range(m)] for _ in range(n)]
    # horizontal[r][c] holds the operand on the link into PE (r, c); the
    # edge links replay the skewed source streams.
    total_cycles = length + n + m + 2
    h_link = [[None] * m for _ in range(n)]
    v_link = [[None] * m for _ in range(n)]
    for cycle in range(1, total_cycles + 1):
        # edge feeds: row r's stream is delayed r cycles, column c's by c,
        # so operand j reaches the edge PE of row r in cycle j + r
        for r in range(n):
            jj = cycle - r
            h_link[r][0] = int(ins[r][jj - 1]) if 1 <= jj <= length else None
        for c in range(m):
            jj = cycle - c
            v_link[0][c] = int(wts[c][jj - 1]) if 1 <= jj <= length else None
        # read phase: all PEs latch their incoming operands
        for r in range(n):
            for c in range(m):
                pe = pes[r][c]
                x = h_link[r][c]
                w = v_link[r][c]
                pe.input_reg, pe.weight_reg = x, w
                if (x is None) != (w is None):
                    raise SimulationError("operand skew misaligned")
        # commit phase: MAC and forward to the east/south neighbors
        new_h = [[None] * m for _ in range(n)]
        new_v = [[None] * m for _ in range(n)]
        for r in range(n):
            for c in range(m):
                pe = pes[r][c]
                if pe.input_reg is not None:
                    pe.accumulator = pe_mac(pe.accumulator, pe.input_reg, pe.weight_reg)
                    pe.received_count += 1
                    if c + 1 < m:
                        new_h[r][c + 1] = pe.input_reg
                    if r + 1 < n:
                        new_v[r + 1][c] = pe.weight_reg
        h_link, v_link = new_h, new_v
    for r in range(n):
        for c in range(m):
            if pes[r][c].received_count != length:
                raise SimulationError(
                    f"PE ({r},{c}) saw {pes[r][c].received_count} operands, "
                    f"expected {length}"
                )
    return np.array([[pes[r][c].accumulator for c in range(m)] for r in range(n)])


# --------------------------------------------------------------------- runs

@dataclass(eq=False)
class _RoundMeasurement:
    """What one simulated round measured; compared and hashed by identity,
    so that replayed rounds can be counted per measurement."""

    latency: int
    collection: int
    packets: int
    flits: int
    hops: int
    payloads: int
    timeout_packets: int
    full_round: bool
    head_latencies: list[int]
    counter_delta: dict[str, int]


def ideal_collection_cycles(config: MeshConfig, mode: CollectionMode) -> int:
    """Closed-form full-row collection term with no congestion or waits.

    The gather reference uses the single-packet form: timeout-launched
    packets overlap the lead packet in time, so the serialized multi-chunk
    sum would overestimate what a cycle-accurate run can show.
    """
    m, kappa = config.cols, config.pipeline_depth
    if mode == CollectionMode.RU:
        return m * (kappa + config.unicast_len) - 1
    return m * kappa + config.gather_len - 1


def run_convolution(
    layer: LayerConfig,
    config: MeshConfig,
    mode: CollectionMode | str,
    seed: int = 1,
    p_override: int | None = None,
    timeout_table: dict[tuple[int, int], int] | None = None,
    coefficients: EnergyCoefficients | None = None,
    oracle: str = "auto",
    replay: bool = True,
    event_log: list[str] | None = None,
) -> RunStats:
    """Execute all rounds of one layer in one collection mode.

    With ``replay`` each round class ``(active_rows, active_cols)`` is
    simulated once, in a network of its own that starts drained, so its
    measurement does not depend on the rounds before it; every later round
    of the class reuses that measurement.  Timing does not depend on the
    operand values, so this is exact.  ``replay=False`` simulates every
    round back to back in one network that carries its state from round to
    round: the reference the replay differential tests compare against.
    Either way the statistics are built once, after the last round: the
    per-round lists in round order, the totals as round count times
    measurement.  ``oracle`` is ``full``, ``sample``, or ``auto``.
    """
    mode = CollectionMode(mode) if isinstance(mode, str) else mode
    layer = layer.with_vectors(p_override)
    schedules = build_round_schedules(layer, config)
    length = stream_length(layer)
    stats = RunStats(
        model=layer.model, layer=layer.layer, mode=mode.value,
        rows=config.rows, cols=config.cols, seed=seed,
        rounds=len(schedules),
        ideal_collection=ideal_collection_cycles(config, mode),
    )

    net = None if replay else MeshNetwork(config, timeout_table=timeout_table,
                                          event_log=event_log)

    oracle_mode = oracle
    if oracle == "auto":
        work = len(schedules) * config.rows * config.cols * length
        oracle_mode = "full" if work <= FULL_ORACLE_WORK_LIMIT else "sample"
    oracle_stride = max(1, len(schedules) // 32) if oracle_mode == "sample" else 1

    measured: dict[tuple[int, int], _RoundMeasurement] = {}
    rounds: list[_RoundMeasurement] = []
    round_start = 0
    for schedule in schedules:
        m = measured.get(schedule.class_key())
        check = oracle_mode == "full" or (
            oracle_mode == "sample" and schedule.index % oracle_stride == 0
        )
        if m is None or check:
            # operand values are only materialized when this round is
            # simulated or oracle-checked; replayed rounds reuse the
            # measured round's value-independent timing
            accs, ins, wts = round_accumulators(schedule, seed, operands=True)
        if check:
            _check_oracle(schedule, accs, ins, wts, oracle_mode)
        if m is None:
            round_net = net or MeshNetwork(config, timeout_table=timeout_table,
                                           event_log=event_log)
            m = _simulate_round(round_net, config, mode, schedule, accs, round_start, length)
            if replay:
                measured[schedule.class_key()] = m
        rounds.append(m)
        round_start += m.latency
    return _fold_rounds(stats, rounds, coefficients)


def _fold_rounds(stats: RunStats, rounds: list[_RoundMeasurement],
                 coefficients: EnergyCoefficients | None) -> RunStats:
    """Fill ``stats`` from the measurement of every round, in round order.

    A replayed round is the same object as its class's measurement, so
    scalars and counters are folded once per distinct measurement, times
    the number of rounds it stands for.
    """
    stats.per_round_latency = [m.latency for m in rounds]
    stats.per_round_collection = [m.collection for m in rounds]
    stats.delta_measured = [m.collection - stats.ideal_collection
                            for m in rounds if m.full_round]
    stats.total_cycles = sum(stats.per_round_latency)
    stats.head_latencies = list(rounds[0].head_latencies) if rounds else []
    counters = ActivityCounters()
    for m, count in Counter(rounds).items():
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
    accs: np.ndarray,
    round_start: int,
    length: int,
) -> _RoundMeasurement:
    ready_base = round_start + length + config.mac_latency
    results = [(NodeId(r, c), int(accs[r][c]), ready_base + r + c)
               for r in range(schedule.active_rows)
               for c in range(schedule.active_cols)]
    full = schedule.active_rows == config.rows and schedule.active_cols == config.cols
    return _collect(net, config, mode, results, round_start, ready_base, full,
                    f"round {schedule.index}")


def _collect(net: MeshNetwork, config: MeshConfig, mode: CollectionMode,
             results: list[tuple[NodeId, int, int]], round_start: int,
             ready_base: int, full_round: bool, what: str) -> _RoundMeasurement:
    """Post every ``(node, value, ready cycle)`` result, drain them to the
    buffer, check each was delivered exactly once and the network drained,
    and measure the round.  ``ready_base`` is the earliest ready cycle."""
    delivered_before = len(net.delivered)
    counters_before = net.counters.totals()
    flits_before = net.flits_injected
    timeout_before = net.timeout_packets

    prev_pid: dict[int, int] = {}  # each row's in-order unicast chain
    for node, value, ready in results:
        if mode == CollectionMode.RU:
            prev_pid[node.row] = net.schedule_unicast_result(
                node, value, ready, prev_pid.get(node.row))
        else:
            net.schedule_post(ready, node, value)

    if net.cycle < ready_base:
        net.jump_to(ready_base)
    limit = ready_base + (config.rows + config.cols) * (config.pipeline_depth + 2) * 4 \
        + config.rows * config.cols * config.unicast_len + 10_000
    net.run_until_idle(limit)

    round_delivered = net.delivered[delivered_before:]
    delivered_payloads = [p for pkt in round_delivered for p in pkt.payloads]
    expected = [(node, value) for node, value, _ in results]
    if sorted(delivered_payloads) != sorted(expected):
        missing = set(expected) - set(delivered_payloads)
        raise LostPayloadError(
            f"{what}: delivered payloads do not match posted ones "
            f"(missing or duplicated: {sorted(missing) if missing else 'duplicates'})"
        )

    net.assert_drained()
    round_end = max(pkt.commit_cycle for pkt in round_delivered)
    return _RoundMeasurement(
        latency=round_end - round_start,
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
    values: list[int] | None = None,
    timeout_table: dict[tuple[int, int], int] | None = None,
    coefficients: EnergyCoefficients | None = None,
) -> RunStats:
    """One row of PEs, all with a result ready at cycle 0 (motivating demo).

    Returns stats for draining that single row's results to the buffer in
    the requested mode, as a one-round run.
    """
    mode = CollectionMode(mode) if isinstance(mode, str) else mode
    if not 0 <= row < config.rows:
        raise ConfigError(f"row {row} outside the {config.rows}-row mesh")
    values = values if values is not None else [101 + c for c in range(config.cols)]
    if len(values) != config.cols:
        raise ConfigError("need one value per column")
    results = [(NodeId(row, c), v, 0) for c, v in enumerate(values)]
    m = _collect(MeshNetwork(config, timeout_table=timeout_table), config, mode,
                 results, round_start=0, ready_base=0, full_round=False,
                 what=f"ready row {row}")
    stats = RunStats(
        model="demo", layer=f"ready-row-{row}", mode=mode.value,
        rows=config.rows, cols=config.cols, seed=0, rounds=1,
        ideal_collection=ideal_collection_cycles(config, mode),
    )
    return _fold_rounds(stats, [m], coefficients)


def _check_oracle(schedule: RoundSchedule, accs: np.ndarray, ins: np.ndarray,
                  wts: np.ndarray, oracle_mode: str) -> None:
    """Check PE accumulators against the reference dot product of the
    round's operand vectors (``ins`` rows, ``wts`` columns)."""
    if oracle_mode == "off":
        return
    pairs = [(r, c) for r in range(schedule.active_rows)
             for c in range(schedule.active_cols)]
    if oracle_mode == "sample":
        pairs = pairs[:: max(1, len(pairs) // 4)][:4]
    xs = {r: ins[r].tolist() for r, _ in pairs}
    ws = {c: wts[c].tolist() for _, c in pairs}
    for r, c in pairs:
        ref = partial_conv_oracle(xs[r], ws[c])
        if ref != int(accs[r][c]):
            raise OracleMismatchError(
                f"round {schedule.index} PE ({r},{c}): engine accumulator "
                f"{int(accs[r][c])} != reference {ref}"
            )
