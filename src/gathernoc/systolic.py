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
commits their packets, (eject cycle, router id), and every round class is
measured one row at a time (``_measure_class``).  Rounds of the whole mesh
only check those measurements (``_whole_mesh_round``): one per class for
its event lines, and every round of a ``replay=False`` run.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .analytic import gather_collection_cycles, ru_collection_cycles
from .config import MeshConfig, give_up_budgets
from .errors import ConfigError, LostPayloadError, OracleMismatchError, SimulationError
from .network import MeshNetwork, mesh_tables
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
# the same as numpy words, which array arithmetic takes without a conversion
_GOLDEN_WORD, _MIX1_WORD, _MIX2_WORD = map(np.uint64, (_GOLDEN, _MIX1, _MIX2))

# Work bound (rounds x PEs x operands) under which every PE of every round
# is checked against the reference dot product; above it a deterministic
# sample is checked instead to keep big runs fast.
FULL_ORACLE_WORK_LIMIT = 2_000_000

# Operands per side (checked pairs x stream length) one oracle chunk holds at
# most, unless a single pair is longer; bounds the check's operand arrays
# (``_oracle_pairs`` lists the pairs a chunk at a time).
ORACLE_CHUNK_ELEMENTS = 1 << 17


class CollectionMode(Enum):
    RU = "ru"
    GATHER = "gather"


def partial_conv_oracle(inputs, weights) -> int | list[int]:
    """Reference dot products, kept independent of the engine's arithmetic.

    ``inputs`` and ``weights`` are one vector each, or a stack of vectors
    on one side, all of length ``L``.  The products are elementwise and
    summed along the last axis, never a matrix product, in an accumulator
    chosen by the bound ``max|x| * max|w| * L`` on every partial sum,
    never by the operands' own dtype: ``uint32`` when no operand is
    negative and the bound is below ``2**32`` (every 8-bit layer up to
    ``L = 66051``), else ``int64``.  The products themselves are ``uint16``
    when no operand is negative and ``max|x| * max|w| < 2**16`` (every pair
    of 8-bit operands), else of the accumulator's type.  An integer array
    that int64 holds exactly is widened inside the multiply, anything else
    is converted to int64 first.  The result is exact: an operand pair
    whose bound reaches ``2**63`` raises ``SimulationError``.  Returns an
    ``int`` for two vectors, a list of ints for a stack.
    """
    try:
        x, w = _int64_exact(inputs), _int64_exact(weights)
    except OverflowError:
        raise SimulationError("oracle operands do not fit in int64") from None
    length = x.shape[-1]
    if length != w.shape[-1]:
        raise ConfigError("oracle operands must have equal length")
    (x_min, x_max), (w_min, w_max) = _extremes(x), _extremes(w)
    largest = max(-x_min, x_max) * max(-w_min, w_max)
    if largest * length >= 1 << 63:
        raise SimulationError(f"oracle dot products of length {length} could overflow int64")
    unsigned = min(x_min, w_min) >= 0
    acc = np.uint32 if unsigned and largest * length < 1 << 32 else np.int64
    product = np.uint16 if unsigned and largest < 1 << 16 else acc
    # unsafe casting is exact here: under a uint16 or uint32 bound every
    # operand that meets a nonzero partner is below 2**16 or 2**32, and any
    # other product is 0
    return np.multiply(x, w, dtype=product, casting="unsafe").sum(axis=-1, dtype=acc).tolist()


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


def _extremes(a: np.ndarray) -> tuple[int, int]:
    """A lower bound at or below 0 and the largest value of ``a``, as
    Python ints: its least value if negative, else 0 (an unsigned array's
    least value is not computed); ``(0, 0)`` if empty."""
    if not a.size:
        return 0, 0
    return (0 if a.dtype.kind == "u" else min(0, int(a.min()))), int(a.max())


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
    z *= _MIX1_WORD
    z ^= z >> 27
    z *= _MIX2_WORD
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
    keys = _mix64_words((_id_words(vec_ids) + 1) * _GOLDEN_WORD + _tag_key(seed, tag))
    z = _mix64_words(_word_counters((length + 7) // 8) + keys[:, None])
    return z.astype("<u8", copy=False).view(np.uint8)[:, :length]


def _id_words(vec_ids) -> np.ndarray:
    """The vector ids as a new uint64 array: an id enters a vector's key
    modulo 2**64, as in Python-int arithmetic, and an integer array's cast
    to uint64 wraps the same way."""
    if isinstance(vec_ids, np.ndarray) and vec_ids.dtype.kind in "iu":
        return vec_ids.astype(np.uint64)
    return np.array([i & _MASK64 for i in vec_ids], dtype=np.uint64)


def _span_operands(seed: int, tag: int, vec_ids, length: int) -> np.ndarray:
    """``operand_block(seed, tag, vec_ids, length)``, row for row, for ids
    that repeat: when the ids (modulo 2**64) span fewer values than there
    are ids, each id of the span is generated once and every row is a copy
    of its id's, so no more rows are generated than listed; otherwise the
    rows are generated as listed."""
    ids = _id_words(vec_ids)
    if ids.size:
        low = ids.min()
        span = int(ids.max() - low) + 1
        if span < ids.size:
            return operand_block(seed, tag, low + np.arange(span, dtype=np.uint64),
                                 length)[ids - low]
    return operand_block(seed, tag, ids, length)


@lru_cache(maxsize=16)
def _tag_key(seed: int, tag: int) -> np.uint64:
    """The key of side ``tag`` under ``seed``, which every vector key of
    that side mixes in, as a numpy word."""
    return np.uint64(_mix64((_seed_key(seed) + (tag + 1) * _GOLDEN) & _MASK64))


@lru_cache(maxsize=16)
def _word_counters(words: int) -> np.ndarray:
    """``(j + 1) * golden`` modulo 2**64 for ``j < words``, read-only."""
    counters = np.arange(1, words + 1, dtype=np.uint64) * _GOLDEN
    counters.flags.writeable = False
    return counters


def round_accumulators(seed: int, input_ids, filter_ids, length: int):
    """``(accumulators, inputs, weights)`` of the PEs that pair input vector
    ``input_ids[k]`` with filter ``filter_ids[k]``, from any rounds, ids
    repeating or not: the engine's final accumulator of each PE and the
    operand vectors stacked one row per PE, each row equal to the
    ``operand_block`` row of its id, so the oracle can check against them
    without generating them again.  Each side makes one ``operand_block``
    call (``_span_operands``): a side whose ids span fewer values than
    there are PEs, as a full check's do (each input repeats across a
    round's columns, each filter across its rows and row blocks),
    generates each id of the span once and copies each PE's row from its
    id's, so a repeated id costs a copy, not a generation; other ids, such
    as the sampled rule's scattered ones, are generated as listed.  The
    rows are the same either way.  The engine is a
    batched dot product by contraction (``einsum``), never the oracle's
    elementwise multiply and sum.  It widens the 8-bit operands as it goes,
    so no wide copy of them is made.  Its accumulator is ``uint32`` while
    the operand dtype's bound on every partial sum, ``255 * 255 * L``, is
    below ``2**32`` (``L <= 66051``: every built-in layer, and every layer a
    32-bit result payload holds), else ``int64``."""
    ins = _span_operands(seed, _INPUT_TAG, input_ids, length)
    wts = _span_operands(seed, _WEIGHT_TAG, filter_ids, length)
    acc = np.uint32 if 255 * 255 * length < 1 << 32 else np.int64
    return np.einsum("ij,ij->i", ins, wts, dtype=acc), ins, wts


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
    replay: bool = True,
    event_log: list[str] | None = None,
    shared: dict | None = None,
) -> RunStats:
    """Execute all rounds of one layer in one collection mode.

    The give-up policy is resolved first, once per call: ``give_up_budgets``
    checks ``timeout_table`` (a bad entry fails before the oracle) and lays
    it over the default staircase.  The measurements, their keys and the
    drain allowance take that budget vector; only the networks of the whole
    mesh are built from the table itself.  The oracle runs next, before any
    network is built: it checks every PE of every round while the layer's
    work is within ``FULL_ORACLE_WORK_LIMIT``, else at most four PEs of
    every ``rounds // 32``-th round, and ``_check_oracle`` generates the
    operands of the checked PEs only, a bounded chunk at a time.  The
    network then carries no operands: each PE posts a stand-in payload, so
    a round's measurement depends on the mesh, mode, give-up budgets and
    the round's shape alone: ``_measure_class`` and ``_simulate_round``
    take the shape, never the round's vector ids.

    Each round class ``(active_rows, active_cols)`` of the layer's
    ``RoundPlan`` is measured once by ``_measure_class``, relative to the
    class's ready cycle: from one row network per distinct row of give-up
    budgets (one under the default staircase), the rows merged at the
    buffer commit port in (eject cycle, router id) order.  Rounds of the
    whole mesh only check that table, each through ``_whole_mesh_round``:
    with ``replay`` and an event log, one round per class on a fresh
    network, whose lines are logged shifted to the true ready cycle of the
    class's first round; with ``replay=False``, the reference the replay
    differential tests compare against, every round back to back on one
    network that carries its state, so the row decomposition and the
    independence of rounds are checked together.

    ``shared`` holds what several calls can reuse: the class measurements
    and, under keys of their own, the classes' event lines, keyed by
    everything a class simulation depends on (the mesh, mode, budget vector
    and shape: tables that resolve to the same budgets share them); the
    row networks' results, keyed by everything a row simulation depends on
    (the one-row config, mode, row budgets and active column count, not
    the class's row count), so each distinct row network is simulated once
    and every class that has it merges its result at the commit port; and
    the oracle's verdict on a layer, keyed by the layer, mesh, seed and
    oracle rule (nothing else sets the checked pairs and operand values).
    A verdict or a class's lines are stored only once their checks have
    passed.  ``harness.run`` passes one mapping to all its calls, so it
    measures each class, runs its logged whole-mesh round if any, simulates
    each row network once, and checks each layer once, per run; without a
    mapping they last one call.
    """
    mode = _collection_mode(mode)
    budgets = tuple(give_up_budgets(config, timeout_table))
    check_payload_width(config, layer)
    _check_stand_in_width(config)
    plan = RoundPlan(layer, config)
    stats = RunStats(model=layer.model, layer=layer.layer, mode=mode.value,
                     rows=config.rows, cols=config.cols, seed=seed, rounds=plan.rounds,
                     ideal_collection=ideal_collection_cycles(config, mode))

    work = plan.rounds * config.rows * config.cols * plan.stream_len
    oracle = "full" if work <= FULL_ORACLE_WORK_LIMIT else "sample"
    shared = {} if shared is None else shared
    verdict = ("oracle passed", layer, config, seed, oracle)
    if verdict not in shared:  # else an earlier call passed every check of this layer
        _check_oracle(plan, oracle, seed)
        shared[verdict] = True

    ready_offset = plan.stream_len + config.mac_latency  # a round's ready cycle, from its start
    table = []
    for rows, row_count, ib in plan.row_blocks:
        for cols, col_count, fb in plan.col_blocks:
            first, shape = ib * plan.col_count + fb, (rows, cols)
            key = (config, mode, budgets, *shape)
            if (m := shared.get(key)) is None:
                m = shared[key] = _measure_class(config, mode, shape, f"round {first}",
                                                 budgets, shared)
            table.append(RoundClass(*shape, row_count, col_count, first,
                                    ready_offset + m.collection, m))
    _fold_rounds(stats, table, coefficients)
    budget = max(budgets)
    if not replay:  # every round, back to back on one network that carries its state
        net = MeshNetwork(config, timeout_table=timeout_table, event_log=event_log)
        measured = {(c.active_rows, c.active_cols): c.measurement for c in table}
        for s, start in zip(build_round_schedules(layer, config),
                            accumulate(stats.per_round_latency, initial=0)):
            shape = (s.active_rows, s.active_cols)
            _whole_mesh_round(net, mode, shape, f"round {s.index}", start + ready_offset,
                              budget, measured[shape])
    elif event_log is not None:
        starts = list(accumulate(stats.per_round_latency, initial=0))
        for c in table:  # each class's lines "<cycle> <rest>", shifted to its first round
            shape = (c.active_rows, c.active_cols)
            key = ("event lines", config, mode, budgets, *shape)
            if (lines := shared.get(key)) is None:
                lines = []
                net = MeshNetwork(config, timeout_table=timeout_table, event_log=lines)
                _whole_mesh_round(net, mode, shape, f"round {c.first_round}", 0, budget,
                                  c.measurement)
                shared[key] = lines
            shift = starts[c.first_round] + ready_offset
            for cycle, rest in (line.split(" ", 1) for line in lines):
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


def _simulate_round(net: MeshNetwork, mode: CollectionMode, shape: tuple[int, int], what: str,
                    ready_base: int, budget: int) -> RoundMeasurement:
    """Collect one round of ``shape``, its active ``(rows, cols)``, on ``net``
    (whose longest give-up budget is ``budget``), PE ``(r, c)`` ready ``r +
    c`` cycles after ``ready_base``; ``what`` names the round in error
    messages."""
    cfg = net.config
    nodes = mesh_tables(cfg.rows, cfg.cols, cfg.vc_count).nodes
    ready = [(nodes[r * cfg.cols + c], ready_base + r + c)
             for r in range(shape[0]) for c in range(shape[1])]
    return _collect(net, mode, ready, ready_base, what, budget)


def _whole_mesh_round(net: MeshNetwork, mode: CollectionMode, shape: tuple[int, int], what: str,
                      ready_base: int, budget: int, expected: RoundMeasurement) -> None:
    """``_simulate_round`` on ``net``, a network of the whole mesh, checked
    against ``expected``, the measurement of its class from its row
    networks: if the round measures otherwise, the row decomposition or the
    independence of rounds is wrong and ``SimulationError`` is raised."""
    if _simulate_round(net, mode, shape, what, ready_base, budget) != expected:
        raise SimulationError(f"{what}: the whole mesh measures its {shape[0]}x{shape[1]} "
                              f"class otherwise than its row networks do")


def _measure_class(config: MeshConfig, mode: CollectionMode, shape: tuple[int, int], what: str,
                   budgets: tuple[int, ...], shared: dict | None = None) -> RoundMeasurement:
    """Measure a round of ``shape``, as ``_simulate_round`` on a fresh
    network of the whole mesh would, one mesh row at a time.  ``budgets``
    is every node's give-up budget in router-id order, which the caller
    resolved once (``give_up_budgets``).

    Every result goes to the buffer port at the right edge of its own row,
    and XY routing keeps its flits in that row; the network ejects into the
    buffer without limit, and the buffer's commit port, the one thing rows
    share, is no part of it.  So a row's traffic depends on its own slice
    of ``budgets`` alone, and rows with equal budgets are copies of each
    other, row ``r`` shifted by ``r`` cycles.
    Each row is measured by its row network (``_measure_row``), simulated
    once per ``shared`` mapping: it depends on the one-row config, the
    mode, the budgets and the active column count, not on the row or the
    class's row count, so the rows and classes of a run that share it
    simulate it once.  ``buffer_commits`` then times the commit port over
    every row's tail ejects: the last commit is the collection and the
    head latencies come in commit order; every other field sums over the
    rows.  Row networks log no events: a class's lines come from a round
    of the whole mesh (``_whole_mesh_round``).
    """
    cols = config.cols
    row_config = replace(config, rows=1)
    shared = {} if shared is None else shared
    sums = dict.fromkeys(("packets", "flits", "hops", "payloads", "timeout_packets"), 0)
    delta = dict.fromkeys(EVENT_KINDS, 0)
    ejects = []
    for r in range(shape[0]):
        row_budgets = tuple(budgets[r * cols:(r + 1) * cols])
        key = ("row network", row_config, mode, row_budgets, shape[1])
        if (row := shared.get(key)) is None:
            row = shared[key] = _measure_row(row_config, mode, row_budgets, shape[1],
                                             f"{what}, row {r}")
        m, tails = row
        for name in sums:
            sums[name] += getattr(m, name)
        for kind, n in m.counter_delta.items():
            delta[kind] += n
        rid = r * cols + cols - 1
        ejects += [(tail + r, rid, head) for tail, head in zip(tails, m.head_latencies)]
    commits = buffer_commits(ejects, config.buffer_commit_rate)
    return RoundMeasurement(
        collection=commits[-1][0],
        head_latencies=[eject[2] for _, eject in commits],
        counter_delta=delta,
        **sums,
    )


def _measure_row(row_config: MeshConfig, mode: CollectionMode, row_budgets: tuple[int, ...],
                 active_cols: int, what: str) -> tuple[RoundMeasurement, list[int]]:
    """Collect one row of ``active_cols`` PEs, as ``_simulate_round`` does,
    on a fresh one-row network, with no event log, whose PEs have
    ``row_budgets``.  Returns the row's measurement and each delivered
    packet's tail eject cycle, in the order of its ``head_latencies``."""
    net = MeshNetwork(row_config, timeout_table={(0, c): b for c, b in enumerate(row_budgets)})
    m = _simulate_round(net, mode, (1, active_cols), what, 0, max(row_budgets))
    return m, [pkt.tail_arrival for pkt in net.delivered]


def _collect(net: MeshNetwork, mode: CollectionMode, ready: list[tuple[NodeId, int]],
             ready_base: int, what: str, budget: int) -> RoundMeasurement:
    """Post a result of every ``(node, ready cycle)``, drain them to the
    buffer, check each was delivered exactly once and the network drained,
    and measure the round on ``net``, whose longest give-up budget is
    ``budget``, resolved once by the caller (not read from ``net``: the
    frozen reference kernel ``tests/seed_kernel.py``, which the kernel
    differential runs through here, keeps its budgets in another layout).
    ``ready_base`` is the earliest ready cycle.  The network ejects into
    the buffer without limit, and ``buffer_commits`` times the commit port
    over the delivered tails' ejects: the round ends at its last commit.
    Tails are delivered in grant order, that is in (eject cycle, router id)
    order, which is the port's commit order, so the head latencies come in
    commit order.  Each node posts its flat index ``row * cols + col`` as a
    stand-in result, distinct per node, so the measurement never depends on
    operand values."""
    config = net.config
    delivered_before = len(net.delivered)
    counters_before = net.counters.totals()
    flits_before = net.flits_injected
    timeout_before = net.timeout_packets

    cols = config.cols
    values = [node.row * cols + node.col for node, _ in ready]
    if mode == CollectionMode.RU:
        send = net.schedule_unicast_result
        prev_pid: dict[int, int] = {}  # each row's in-order unicast chain
        for (node, cycle), value in zip(ready, values):
            prev_pid[node.row] = send(node, value, cycle, prev_pid.get(node.row))
    else:
        post = net.schedule_post
        for (node, cycle), value in zip(ready, values):
            post(cycle, node, value)

    if net.cycle < ready_base:
        net.jump_to(ready_base)
    # a payload no packet picks up waits out its node's give-up budget
    limit = ready_base + (config.rows + config.cols) * (config.pipeline_depth + 2) * 4 \
        + config.rows * config.cols * config.unicast_len + 10_000 \
        + budget
    net.run_until_idle(limit)

    round_delivered = net.delivered[delivered_before:]
    delivered_payloads = [p for pkt in round_delivered for p in pkt.payloads]
    # exactly once: every posted stand-in value is delivered once and no
    # other (the posted values are distinct, so as many delivered as posted
    # and the same set), and each from its own node, the node of that flat
    # index
    nodes = mesh_tables(config.rows, config.cols, config.vc_count).nodes
    delivered_values = [v for _, v in delivered_payloads]
    if len(delivered_values) != len(values) or set(delivered_values) != set(values) or any(
            origin is not nodes[v] and origin != nodes[v] for origin, v in delivered_payloads):
        expected = [(node, value) for (node, _), value in zip(ready, values)]
        missing = set(expected) - set(delivered_payloads)
        raise LostPayloadError(
            f"{what}: delivered payloads do not match posted ones "
            f"(missing or duplicated: {sorted(missing) if missing else 'duplicates'})"
        )

    net.assert_drained()
    # delivered tails come in eject-cycle order, the port's commit order
    tails = [pkt.tail_arrival for pkt in round_delivered]
    return RoundMeasurement(
        collection=_commit_cycles(tails, config.buffer_commit_rate)[-1] - ready_base,
        packets=len(round_delivered),
        flits=net.flits_injected - flits_before,
        hops=sum(pkt.hops for pkt in round_delivered),
        payloads=len(delivered_payloads),
        timeout_packets=net.timeout_packets - timeout_before,
        head_latencies=[pkt.head_arrival - pkt.inject_cycle for pkt in round_delivered],
        counter_delta={k: n - counters_before[k] for k, n in net.counters.totals().items()},
    )


def buffer_commits(ejects, rate: int) -> list[tuple[int, tuple]]:
    """The buffer's shared write port over ``ejects``, tuples that start
    with the eject cycle and the router id of a packet's tail: ``(commit
    cycle, eject)`` pairs in commit order.  Tails queue in (eject cycle,
    router id) order, and the port commits them first in, first out, at
    most ``rate`` per cycle, each at the earliest in its eject cycle; so
    the ``k``-th commit, of the tail ejected at ``e_k``, is at ``c_k =
    max(c_{k-1}, e_k, c_{k-rate} + 1)``.  The port never holds a flit back,
    so the network's timing does not depend on it."""
    ejects = sorted(ejects)
    return list(zip(_commit_cycles([eject[0] for eject in ejects], rate), ejects))


def _commit_cycles(eject_cycles: list[int], rate: int) -> list[int]:
    """The commit cycle of each tail, ``buffer_commits``'s ``c_k``, from the
    tails' eject cycles in commit order (non-decreasing)."""
    cycles: list[int] = []
    for k, cycle in enumerate(eject_cycles):
        if k and cycle < cycles[-1]:
            cycle = cycles[-1]
        if k >= rate and cycle <= cycles[k - rate]:
            cycle = cycles[k - rate] + 1
        cycles.append(cycle)
    return cycles


def run_ready_row(
    config: MeshConfig,
    row: int,
    mode: CollectionMode | str,
    timeout_table: dict[tuple[int, int], int] | None = None,
) -> RunStats:
    """One row of PEs, all with a result ready at cycle 0 (motivating demo),
    drained to the buffer in ``mode``: the stats of a one-round run."""
    mode = _collection_mode(mode)
    budget = max(give_up_budgets(config, timeout_table))
    _check_stand_in_width(config)
    if not 0 <= row < config.rows:
        raise ConfigError(f"row {row} outside the {config.rows}-row mesh")
    m = _collect(MeshNetwork(config, timeout_table=timeout_table), mode,
                 [(NodeId(row, c), 0) for c in range(config.cols)], ready_base=0,
                 what=f"ready row {row}", budget=budget)
    stats = RunStats(model="demo", layer=f"ready-row-{row}", mode=mode.value,
                     rows=config.rows, cols=config.cols, seed=0, rounds=1,
                     ideal_collection=ideal_collection_cycles(config, mode))
    return _fold_rounds(stats, [RoundClass(1, config.cols, 1, 1, 0, m.collection, m)], None)


def _oracle_pairs(plan: RoundPlan, oracle_mode: str, size: int):
    """The layer's checked pairs, ``size`` at a time, as four int64 arrays
    ``(round, PE, input id, filter id)``, the PE its row-major index among
    the round's active PEs, in round order: every active PE of every round,
    in PE order, under ``full``; under ``sample`` the ``j``-th of ``n =
    min(4, rows * cols)`` PEs of every ``rounds // 32``-th round with
    ``rows`` x ``cols`` active PEs, in ``j`` order, is the PE at ``(j *
    rows // n, j mod cols)``, so the PEs are distinct and span two rows and
    two columns wherever the round has them.  Every
    piece but the last holds ``size`` pairs.  By block arithmetic on the
    plan: round ``ib * col_count + fb`` has ``rows * cols`` active PEs, and
    PE ``r * cols + c`` pairs input ``ib * n + r`` with filter ``fb * m +
    c``.  Under ``full``, pair ``k`` is found from ``k`` alone (row block
    ``ib`` starts at pair ``ib * n * q``, and its column block ``fb`` at
    ``fb * rows * m`` within it), so no array outgrows a piece; under
    ``sample`` the rounds are fewer than 64, and their pairs fewer than
    4 x 64, listed at once.  Ids and indices stay below the layer's
    rounds, vectors and PEs, so int64 holds them exactly."""
    if oracle_mode == "sample":
        rounds, pes, input_ids, filter_ids = _sampled_pairs(plan)
        for start in range(0, rounds.size, size):
            piece = slice(start, start + size)
            yield rounds[piece], pes[piece], input_ids[piece], filter_ids[piece]
        return
    total = plan.p * plan.q
    for start in range(0, total, size):
        ib, k = np.divmod(np.arange(start, min(start + size, total)), plan.n * plan.q)
        rows = np.minimum(plan.n, plan.p - ib * plan.n)
        fb, pes = np.divmod(k, rows * plan.m)
        r, c = np.divmod(pes, np.minimum(plan.m, plan.q - fb * plan.m))
        yield ib * plan.col_count + fb, pes, ib * plan.n + r, fb * plan.m + c


def _sampled_pairs(plan: RoundPlan) -> tuple[np.ndarray, ...]:
    """The pairs ``_oracle_pairs`` checks under ``sample``, all at once:
    PEs ``(j * rows // n, j mod cols)``, ``j < n = min(4, rows * cols)``,
    of every ``rounds // 32``-th round of ``rows`` x ``cols`` active PEs."""
    rounds = np.arange(0, plan.rounds, max(1, plan.rounds // 32))
    ib, fb = np.divmod(rounds, plan.col_count)
    rows = np.minimum(plan.n, plan.p - ib * plan.n)
    cols = np.minimum(plan.m, plan.q - fb * plan.m)
    counts = np.minimum(4, rows * cols)
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.repeat(cols, counts)
    r = j * np.repeat(rows, counts) // np.repeat(counts, counts)
    c = j % cols
    pes = r * cols + c
    r += np.repeat(ib * plan.n, counts)
    c += np.repeat(fb * plan.m, counts)
    return np.repeat(rounds, counts), pes, r, c


def _check_oracle(plan: RoundPlan, oracle_mode: str, seed: int) -> None:
    """Check the engine accumulator of every pair of ``_oracle_pairs``
    against the reference dot product of its operand vectors.  The pairs go
    in chunks of at most ``ORACLE_CHUNK_ELEMENTS`` operands per side (one
    pair at least), each with one ``round_accumulators`` and one oracle
    call; the first mismatch in round-then-PE order raises."""
    size = max(1, ORACLE_CHUNK_ELEMENTS // plan.stream_len)
    for rounds, pes, input_ids, filter_ids in _oracle_pairs(plan, oracle_mode, size):
        accs, ins, wts = round_accumulators(seed, input_ids, filter_ids, plan.stream_len)
        accs, refs = accs.tolist(), partial_conv_oracle(ins, wts)
        if accs != refs:
            k = next(k for k, (acc, ref) in enumerate(zip(accs, refs)) if acc != ref)
            index = int(rounds[k])
            r, c = divmod(int(pes[k]), plan.schedule(index).active_cols)
            raise OracleMismatchError(
                f"round {index} PE ({r},{c}): engine accumulator {accs[k]} != reference {refs[k]}"
            )
