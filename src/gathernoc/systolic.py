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
from itertools import chain, product

import numpy as np

from .analytic import gather_collection_cycles, ru_collection_cycles
from .config import MeshConfig
from .errors import ConfigError, LostPayloadError, OracleMismatchError, SimulationError
from .network import MeshNetwork
from .power import ActivityCounters, EnergyCoefficients, total_energy
from .stats import RunStats
from .topology import NodeId
from .workload import LayerConfig, round_count, stream_length

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

    With ``operands`` it returns ``(accumulators, inputs, weights)``, the
    stacked operand vectors of the round's rows and columns, so the oracle
    can check against them without generating them again."""
    ins = np.stack([input_vector(seed, i, schedule.stream_len) for i in schedule.input_ids])
    wts = np.stack([weight_vector(seed, k, schedule.stream_len) for k in schedule.filter_ids])
    accs = ins @ wts.T
    return (accs, ins, wts) if operands else accs


def sampled_accumulators(schedule: RoundSchedule, seed: int, pes: list[tuple[int, int]]):
    """``round_accumulators`` on only the rows and columns of ``pes``: the
    accumulators by ``(row, col)``, the operand vectors by row and by column."""
    rows, cols = sorted({r for r, _ in pes}), sorted({c for _, c in pes})
    accs, ins, wts = round_accumulators(replace(
        schedule, input_ids=tuple(schedule.input_ids[r] for r in rows),
        filter_ids=tuple(schedule.filter_ids[c] for c in cols)), seed, operands=True)
    return ({(r, c): accs[rows.index(r), cols.index(c)] for r, c in pes},
            dict(zip(rows, ins)), dict(zip(cols, wts)))


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
    n, m, length = schedule.active_rows, schedule.active_cols, schedule.stream_len
    ins = [input_vector(seed, i, length).tolist() for i in schedule.input_ids]
    wts = [weight_vector(seed, k, length).tolist() for k in schedule.filter_ids]
    # each PE's accumulator and operand count; h[r][c] and v[r][c] hold the
    # operands on the links into PE (r, c)
    acc = [[0] * m for _ in range(n)]
    seen = [[0] * m for _ in range(n)]
    h = [[None] * m for _ in range(n)]
    v = [[None] * m for _ in range(n)]
    for cycle in range(1, length + n + m + 3):
        # every operand moves one PE east (inputs) or south (weights) per
        # cycle; row r's edge stream is delayed r cycles, column c's by c, so
        # operand j reaches the edge PE of row r in cycle j + r
        h = [[ins[r][cycle - r - 1] if 1 <= cycle - r <= length else None] + h[r][:-1]
             for r in range(n)]
        v = [[wts[c][cycle - c - 1] if 1 <= cycle - c <= length else None
              for c in range(m)]] + v[:-1]
        for r, c in product(range(n), range(m)):
            x, w = h[r][c], v[r][c]
            if (x is None) != (w is None):
                raise SimulationError("operand skew misaligned")
            if x is not None:
                acc[r][c] = pe_mac(acc[r][c], x, w)
                seen[r][c] += 1
    for r, c in product(range(n), range(m)):
        if seen[r][c] != length:
            raise SimulationError(f"PE ({r},{c}) saw {seen[r][c]} operands, expected {length}")
    return np.array(acc)


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
    classes: dict | None = None,
) -> RunStats:
    """Execute all rounds of one layer in one collection mode.

    With ``replay`` each round class ``(active_rows, active_cols)`` of the
    layer's ``RoundPlan`` is measured once, in a network of its own that
    starts drained, relative to the class's ready cycle; every round of the
    class reuses that measurement, which is exact because timing does not
    depend on operand values, and its events are logged shifted to the
    true ready cycle of the class's first round.  ``classes`` holds the
    measurements, keyed by everything a class simulation depends on; pass
    one mapping to several calls (``harness.run`` passes one to the layers
    of a run) to measure each class once across them.  By default each
    call measures its classes afresh.  ``replay=False`` simulates every
    round of ``build_round_schedules`` back to back in one network that
    carries its state: the reference the replay differential tests compare
    against.  ``oracle`` is ``full``, ``sample`` (at most four PEs of every
    ``rounds // 32``-th round) or ``auto``.
    """
    mode = _collection_mode(mode)
    if oracle not in ("auto", "full", "sample"):
        raise ConfigError(f"unknown oracle {oracle!r}; choose auto, full or sample")
    layer = layer.with_vectors(p_override)
    check_payload_width(config, layer)
    plan = RoundPlan(layer, config)
    stats = RunStats(model=layer.model, layer=layer.layer, mode=mode.value,
                     rows=config.rows, cols=config.cols, seed=seed, rounds=plan.rounds,
                     ideal_collection=ideal_collection_cycles(config, mode))

    if oracle == "auto":
        work = plan.rounds * config.rows * config.cols * plan.stream_len
        oracle = "full" if work <= FULL_ORACLE_WORK_LIMIT else "sample"
    checked = (range(plan.rounds) if oracle == "full"
               else range(0, plan.rounds, max(1, plan.rounds // 32)))
    simulated = set()
    # a round's ready cycle, counted from its start
    ready_offset = plan.stream_len + config.mac_latency

    def simulate(net: MeshNetwork, schedule: RoundSchedule, ready_base: int):
        accs, ins, wts = round_accumulators(schedule, seed, operands=True)
        if schedule.index in checked:
            _check_oracle(schedule, _oracle_pes(schedule, oracle), accs, ins, wts)
        simulated.add(schedule.index)
        return _simulate_round(net, config, mode, schedule, accs, ready_base)

    # rows: (the measurements of one row of rounds, how many rows repeat it)
    if replay:
        classes = {} if classes is None else classes
        table = tuple(sorted(timeout_table.items())) if timeout_table else ()
        rows, row_start = [], 0
        for _, row_count, ib in plan.row_blocks:
            row, start = [], row_start
            for _, col_count, fb in plan.col_blocks:
                schedule = plan.schedule(ib * plan.col_count + fb)
                key = (config, mode, table, schedule.active_rows, schedule.active_cols,
                       event_log is not None)
                m = classes.get(key)
                if m is None:
                    events = None if event_log is None else []
                    m = classes[key] = simulate(
                        MeshNetwork(config, timeout_table=timeout_table, event_log=events),
                        schedule, 0)
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
            row.append(simulate(net, schedule, start + ready_offset))
            start += ready_offset + row[-1].collection
        rows = [(row, 1)]

    for schedule in (plan.schedule(i) for i in checked if i not in simulated):
        pes = _oracle_pes(schedule, oracle)
        _check_oracle(schedule, pes, *sampled_accumulators(schedule, seed, pes))
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
    accs: np.ndarray,
    ready_base: int,
) -> _RoundMeasurement:
    results = [(NodeId(r, c), int(accs[r][c]), ready_base + r + c)
               for r in range(schedule.active_rows)
               for c in range(schedule.active_cols)]
    full = schedule.active_rows == config.rows and schedule.active_cols == config.cols
    return _collect(net, config, mode, results, ready_base, full, f"round {schedule.index}")


def _collect(net: MeshNetwork, config: MeshConfig, mode: CollectionMode,
             results: list[tuple[NodeId, int, int]], ready_base: int,
             full_round: bool, what: str) -> _RoundMeasurement:
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
    mode = _collection_mode(mode)
    if not 0 <= row < config.rows:
        raise ConfigError(f"row {row} outside the {config.rows}-row mesh")
    values = values if values is not None else [101 + c for c in range(config.cols)]
    if len(values) != config.cols:
        raise ConfigError("need one value per column")
    results = [(NodeId(row, c), v, 0) for c, v in enumerate(values)]
    m = _collect(MeshNetwork(config, timeout_table=timeout_table), config, mode,
                 results, ready_base=0, full_round=False,
                 what=f"ready row {row}")
    stats = RunStats(model="demo", layer=f"ready-row-{row}", mode=mode.value,
                     rows=config.rows, cols=config.cols, seed=0, rounds=1,
                     ideal_collection=ideal_collection_cycles(config, mode))
    return _fold_rounds(stats, [([m], 1)], coefficients, ready_offset=0)


def _oracle_pes(schedule: RoundSchedule, oracle_mode: str) -> list[tuple[int, int]]:
    """PEs ``(row, col)`` the oracle checks in a round: every active PE, or
    under ``sample`` at most four, evenly spaced in row-major order."""
    pes = range(schedule.active_rows * schedule.active_cols)
    if oracle_mode == "sample":
        pes = pes[:: max(1, len(pes) // 4)][:4]
    return [divmod(k, schedule.active_cols) for k in pes]


def _check_oracle(schedule: RoundSchedule, pes: list[tuple[int, int]], accs, ins, wts) -> None:
    """Check the engine accumulators ``accs[r, c]`` of ``pes`` against the
    reference dot product of the operand vectors ``ins[r]`` and ``wts[c]``."""
    xs = {r: ins[r].tolist() for r, _ in pes}
    ws = {c: wts[c].tolist() for _, c in pes}
    for r, c in pes:
        ref = partial_conv_oracle(xs[r], ws[c])
        if ref != int(accs[r, c]):
            raise OracleMismatchError(
                f"round {schedule.index} PE ({r},{c}): engine accumulator "
                f"{int(accs[r, c])} != reference {ref}"
            )
