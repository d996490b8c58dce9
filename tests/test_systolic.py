import dataclasses
import json
import operator
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gathernoc import systolic
from gathernoc.config import MeshConfig, default_timeout_table, flat_timeout_table
from gathernoc.errors import ConfigError, SimulationError
from gathernoc.network import MeshNetwork
from gathernoc.packet import PacketType
from gathernoc.stats import RunStats
from gathernoc.systolic import (
    CollectionMode,
    RoundPlan,
    RoundSchedule,
    _INPUT_TAG,
    _WEIGHT_TAG,
    _mix64,
    _seed_key,
    _mix64_words,
    build_round_schedules,
    operand_block,
    partial_conv_oracle,
    round_accumulators,
    run_convolution,
    run_ready_row,
)
from gathernoc.topology import NodeId
from gathernoc.workload import LayerConfig, load_layer
from scenario_utils import ragged_case


def _not_simulated(*args, **kwargs):
    raise AssertionError("a round was simulated")


# give-up tables the library path must reject as RunConfig does, with the
# message that names the bad entry
BAD_TIMEOUT_TABLES = [
    ({(9, 9): 5}, r"entry \(9, 9\) is outside the 4x4 mesh"),
    ({(0, 4): 5}, r"entry \(0, 4\) is outside the 4x4 mesh"),
    ({(-1, 0): 5}, r"entry \(-1, 0\) is outside the 4x4 mesh"),
    ({(0, 0): 0, (0, 1): -3}, r"entry \(0, 1\): budget must be >= 0, got -3"),
]


def _layer(c=1, r=3, q=8, p=8, model="t", name="t"):
    return LayerConfig(model=model, layer=name, in_channels=c, kernel_side=r,
                       kernels=q, layer_side=1, input_vectors=p)


def pe_mac(acc: int, operand: int, weight: int) -> int:
    """One multiply-accumulate step."""
    return acc + operand * weight


def simulate_stream(schedule: RoundSchedule, seed: int) -> np.ndarray:
    """Cycle-level operand propagation through PE registers (validator).

    Each PE latches the operands from its west/north neighbor, MACs them,
    and forwards them unchanged next cycle.  Returns the accumulator grid,
    to pin the closed-form skew and the engine arithmetic.
    """
    n, m, length = schedule.active_rows, schedule.active_cols, schedule.stream_len
    ins = operand_block(seed, _INPUT_TAG, schedule.input_ids, length).tolist()
    wts = operand_block(seed, _WEIGHT_TAG, schedule.filter_ids, length).tolist()
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


class TestMacAndOracle:
    def test_two_element_dot_product(self):
        acc = pe_mac(pe_mac(0, 1, 3), 2, 4)
        assert acc == 11

    def test_zero_operand_leaves_accumulator(self):
        assert pe_mac(37, 0, 999) == 37

    def test_oracle_all_ones(self):
        assert partial_conv_oracle([1] * 9, [1] * 9) == 9

    def test_oracle_sum_of_squares(self):
        assert partial_conv_oracle([1, 2, 3, 4], [1, 2, 3, 4]) == 30

    def test_oracle_length_mismatch(self):
        with pytest.raises(ConfigError):
            partial_conv_oracle([1, 2], [1])

    def test_streamed_mac_matches_oracle_length_27(self):
        rng = np.random.default_rng(7)
        ins = rng.integers(0, 256, 27).tolist()
        wts = rng.integers(0, 256, 27).tolist()
        acc = 0
        for x, w in zip(ins, wts):
            acc = pe_mac(acc, x, w)
        assert acc == partial_conv_oracle(ins, wts)


def _python_dot(xs, ws) -> int:
    """The oracle's reference: an exact dot product on Python ints."""
    return sum(map(operator.mul, xs, ws))


@st.composite
def oracle_operands(draw):
    """Signed operands of one length ``L`` with ``max|x| * max|w| * L <
    2**63``, as lists of Python ints: two vectors, or a stack of rows on one
    side."""
    length = draw(st.integers(0, 4608))
    x_mag = draw(st.integers(1, 2**40))
    w_mag = draw(st.integers(1, max(1, (2**63 - 1) // (x_mag * max(1, length)))))
    stacked = draw(st.sampled_from(["neither", "inputs", "weights"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))

    rows = draw(st.integers(1, 4))

    def side(mag, stack):
        a = rng.integers(-mag, mag, size=(rows if stack else 1, length), endpoint=True)
        if a.size:  # the bound's extremes too
            a.flat[0] = draw(st.sampled_from([-mag, mag]))
        return a.tolist() if stack else a[0].tolist()

    return side(x_mag, stacked == "inputs"), side(w_mag, stacked == "weights"), stacked


@settings(max_examples=150, deadline=None, derandomize=True)
@given(oracle_operands(), st.booleans())
def test_oracle_is_the_exact_python_dot_product(operands, as_arrays):
    xs, ws, stacked = operands
    if stacked == "inputs":
        expected = [_python_dot(x, ws) for x in xs]
    elif stacked == "weights":
        expected = [_python_dot(xs, w) for w in ws]
    else:
        expected = _python_dot(xs, ws)
    got = partial_conv_oracle(*((np.array(xs), np.array(ws)) if as_arrays else (xs, ws)))
    assert type(got) is type(expected) and got == expected


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int16])
def test_oracle_widens_narrow_operands(dtype):
    # the products and their sum overflow the operands' own dtype
    info = np.iinfo(dtype)
    xs, ws = [info.max, info.min, info.max], [info.max, info.min, info.min]
    expected = _python_dot(xs, ws)
    assert partial_conv_oracle(np.array(xs, dtype), np.array(ws, dtype)) == expected
    assert partial_conv_oracle(np.array([xs, ws], dtype), np.array(ws, dtype)) == [
        expected, _python_dot(ws, ws)]


@pytest.mark.parametrize("xs, ws", [
    ([2**32], [2**31]),
    ([-2**32], [2**31]),
    ([2**31, 0], [0, 2**31]),
    ([[1], [2**32]], [2**31]),
    ([2**63], [0]),
])
def test_oracle_rejects_operands_that_could_overflow(xs, ws):
    with pytest.raises(SimulationError):
        partial_conv_oracle(xs, ws)


def test_oracle_rejects_uint64_operands_beyond_int64():
    # converting them to int64 would wrap them to small or negative values
    with pytest.raises(SimulationError, match="do not fit in int64"):
        partial_conv_oracle(np.array([2**63 + 1], np.uint64), [1])
    with pytest.raises(SimulationError, match="do not fit in int64"):
        partial_conv_oracle([1, 1], np.array([[3, 2**64 - 1]], np.uint64))
    assert partial_conv_oracle(np.array([2**32], np.uint64), [2**30 - 1]) == 2**62 - 2**32


def test_oracle_is_exact_just_inside_the_bound():
    assert partial_conv_oracle([2**32 - 1], [-2**31]) == -(2**63) + 2**31
    assert partial_conv_oracle([-2**63], [0]) == 0


# 2**32 - 1 = 255 * 257 * 65537 and 2**32 = 256 * 256 * 65536: every product
# at the bound, so the sum is the bound itself, the last sum a uint32
# accumulator holds and the first one it would wrap
@pytest.mark.parametrize("length, x, w", [(255, 257, 65537), (256, 256, 65536)])
def test_oracle_is_exact_at_the_edge_of_its_narrow_accumulator(length, x, w):
    expected = length * x * w
    assert expected in (2**32 - 1, 2**32)
    assert partial_conv_oracle(np.full(length, x, np.uint32),
                               np.full(length, w, np.uint32)) == expected
    assert partial_conv_oracle([x] * length, [w] * length) == expected
    assert partial_conv_oracle(np.full((2, length), x, np.uint64),
                               np.full(length, w, np.uint32)) == [expected] * 2


class _MultiplySpy:
    """numpy, as ``systolic`` sees it, with the dtype of every product
    array ``multiply`` returns recorded in ``dtypes``."""

    def __init__(self) -> None:
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        products = np.multiply(*args, **kwargs)
        self.dtypes.append(products.dtype)
        return products


@pytest.mark.parametrize("xs, ws, width", [
    # 255 * 257 = 65 535, the largest product a uint16 holds
    ([255, 1, 0], [257, 3, 9], np.uint16),
    ([257, 2, 255], [255, 255, 1], np.uint16),
    # 256 * 256 = 65 536, the first it does not
    ([256, 2, 0], [256, 1, 7], np.uint32),
    ([255, 1], [258, 1], np.uint32),
    ([-1, 3], [2, 5], np.int64),
])
def test_oracle_product_width_at_its_boundary(monkeypatch, xs, ws, width):
    spy = _MultiplySpy()
    monkeypatch.setattr(systolic, "np", spy)
    assert partial_conv_oracle(xs, ws) == _python_dot(xs, ws)
    assert partial_conv_oracle(np.array([xs, xs[::-1]], np.int32), ws) == [
        _python_dot(xs, ws), _python_dot(xs[::-1], ws)]
    assert spy.dtypes == [width, width]


@pytest.mark.parametrize("big", [2**16, 2**16 + 1, 70_000, 2**32, 2**40, 2**62])
def test_oracle_is_exact_with_an_all_zero_side(big):
    # the bound is 0, so the products are uint16, and an operand of 2**16
    # or more wraps in the unsafe cast, but its partner is 0
    xs = [big, 3, big - 1]
    assert partial_conv_oracle(xs, [0, 0, 0]) == 0 == _python_dot(xs, [0] * 3)
    assert partial_conv_oracle(np.zeros(3, np.uint8), np.array([xs, xs])) == [0, 0]


def test_oracle_keeps_a_negative_product_negative_under_a_small_bound():
    assert partial_conv_oracle([-1, 3], [2, -2]) == -8
    assert partial_conv_oracle(np.array([[0, 1], [-1, 0]], np.int8),
                               np.array([5, 7], np.uint8)) == [7, -5]


@pytest.mark.parametrize("length", [66051, 66052, 66053])
def test_engine_is_exact_at_the_edge_of_its_narrow_accumulator(monkeypatch, length):
    # 255 * 255 * 66051 < 2**32 <= 255 * 255 * 66052: the last uint32 length
    narrow = length * 255 * 255 < 2**32
    assert narrow == (length == 66051)
    accs, ins, wts = round_accumulators(3, [5], [9], length)
    assert accs.dtype == (np.uint32 if narrow else np.int64)
    assert accs.tolist() == [_python_dot(ins[0].tolist(), wts[0].tolist())]
    # every operand 255: the largest sum the length allows
    monkeypatch.setattr(systolic, "operand_block",
                        lambda seed, tag, ids, length: np.full((len(ids), length), 255, np.uint8))
    assert round_accumulators(3, [5], [9], length)[0].tolist() == [255 * 255 * length]


# beside TestMacAndOracle.test_oracle_length_mismatch: stacks and empty vectors
@pytest.mark.parametrize("xs, ws", [
    ([[1, 2], [3, 4]], [1, 2, 3]),
    ([1], [[1, 2]]),
    ([], [0]),
])
def test_oracle_length_mismatch_is_a_config_error(xs, ws):
    with pytest.raises(ConfigError):
        partial_conv_oracle(xs, ws)


# RunStats's per-round lists, views of its class table
VIEWS = ("per_round_latency", "per_round_collection", "delta_measured", "head_latencies")

# seeds at and around every 64-bit limb boundary
EDGE_SEEDS = [0, 1, 2, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**128 + 5, 3**200]


class TestOperandGenerator:
    def test_pinned_golden(self):
        # any change to the generator changes these
        assert operand_block(12345, _INPUT_TAG, [0], 8).tolist() == [
            [148, 164, 104, 232, 109, 250, 80, 43]]
        assert operand_block(12345, _WEIGHT_TAG, [0], 8).tolist() == [
            [213, 35, 65, 28, 188, 171, 168, 171]]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**130), tag=st.integers(0, 1),
           ids=st.lists(st.integers(0, 2**40), min_size=1, max_size=12),
           length=st.integers(0, 41), cut=st.integers(0, 12), data=st.data())
    def test_block_rows_equal_single_vectors(self, seed, tag, ids, length, cut, data):
        shuffled = data.draw(st.permutations(ids))
        block = operand_block(seed, tag, shuffled, length)
        assert block.dtype == np.uint8 and block.shape == (len(ids), length)
        for k, vec_id in enumerate(shuffled):
            assert block[k].tolist() == operand_block(seed, tag, [vec_id], length)[0].tolist()
        # the same ids in two calls give the same rows
        cut = min(cut, len(ids))
        halves = [operand_block(seed, tag, shuffled[:cut], length),
                  operand_block(seed, tag, shuffled[cut:], length)]
        assert (np.concatenate(halves) == block).all()
        # a longer vector starts with the shorter one
        assert (operand_block(seed, tag, shuffled, length + 9)[:, :length] == block).all()

    def test_every_byte_value_over_2_to_the_18_draws(self):
        values = operand_block(7, 0, range(64), 4096)
        assert values.size == 2**18
        assert values.min() >= 0 and values.max() <= 255
        counts = np.bincount(values.ravel(), minlength=256)
        # 1024 expected per value, standard deviation about 32
        assert len(counts) == 256 and counts.min() > 850 and counts.max() < 1200

    def test_streams_differ_by_tag_id_and_seed(self):
        base = operand_block(1, 0, [5, 6], 64)
        assert (base[0] != base[1]).any()
        assert (base[0] != operand_block(1, 1, [5], 64)[0]).any()
        assert (base[0] != operand_block(2, 0, [5], 64)[0]).any()
        assert (base[0] != operand_block(2**64 + 1, 0, [5], 64)[0]).any()
        assert (operand_block(0, 0, [5], 64) != operand_block(2**64, 0, [5], 64)).any()
        rows = {tuple(row) for seed in EDGE_SEEDS for tag in (0, 1)
                for row in operand_block(seed, tag, [0, 1, 2**63], 16)}
        assert len(rows) == len(EDGE_SEEDS) * 2 * 3

    def test_no_overflow_warning_for_any_seed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in EDGE_SEEDS:
                block = operand_block(seed, 1, [0, 2**64 - 1, 2**70], 100)
                assert block.min() >= 0 and block.max() <= 255

    def test_word_mix_on_arrays_equals_the_mix_on_python_ints(self):
        words = [0, 1, 2**63, 2**64 - 1] + [(k * 0x9E3779B97F4A7C15) % 2**64 for k in range(60)]
        mixed = _mix64_words(np.array(words, dtype=np.uint64))
        assert [int(z) for z in mixed] == [_mix64(z) for z in words]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_block_equals_the_generator_on_python_ints(self, seed):
        # the reference: every key and word mixed one at a time in Python
        # ints, ids entering modulo 2**64 (so -1 and 2**64 - 1 agree)
        golden, mask = 0x9E3779B97F4A7C15, 2**64 - 1
        ids, length = [0, 1, 7, 2**63, 2**64 - 1, 2**64, 2**70 + 3, -1], 21
        for tag in (0, 1):
            tag_key = _mix64((_seed_key(seed) + (tag + 1) * golden) & mask)
            expected = []
            for i in ids:
                key = _mix64((tag_key + (i + 1) * golden) & mask)
                words = [_mix64((key + (j + 1) * golden) & mask) for j in range(3)]
                expected.append(list(b"".join(w.to_bytes(8, "little") for w in words))[:length])
            assert operand_block(seed, tag, ids, length).tolist() == expected

    def test_an_id_array_gives_the_rows_of_its_python_ints(self):
        for dtype, ids in ((np.int64, [0, 1, 7, 2**40 + 3, 2**63 - 1, -1, -2**63]),
                           (np.uint64, [0, 2**63, 2**64 - 1]), (np.int32, [5, -7]),
                           (np.uint8, [3, 255])):
            expected = operand_block(9, 1, ids, 19)
            assert (operand_block(9, 1, np.array(ids, dtype), 19) == expected).all()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            operand_block(-1, 0, [0], 8)

    def test_oracle_makes_one_generator_call_per_side_per_chunk(self, monkeypatch):
        calls = []

        def spy(seed, tag, vec_ids, length):
            calls.append((seed, tag, tuple(vec_ids), length))
            return operand_block(seed, tag, vec_ids, length)

        monkeypatch.setattr(systolic, "operand_block", spy)
        # one round of 4x3 PEs, 8 operands each: five pairs a chunk
        monkeypatch.setattr(systolic, "ORACLE_CHUNK_ELEMENTS", 5 * 8 + 7)
        plan = RoundPlan(_layer(c=2, r=2, q=3, p=4), MeshConfig(rows=4, cols=3))
        systolic._check_oracle(plan, "full", seed=11)
        # the chunks pair inputs (0, 0, 0, 1, 1), (1, 2, 2, 2, 3) and (3, 3)
        # with filters (0, 1, 2, 0, 1), (2, 0, 1, 2, 0) and (1, 2): each
        # side generates its distinct ids once, in increasing order
        assert calls == [(11, 0, (0, 1), 8), (11, 1, (0, 1, 2), 8),
                         (11, 0, (1, 2, 3), 8), (11, 1, (0, 1, 2), 8),
                         (11, 0, (3,), 8), (11, 1, (1, 2), 8)]
        accs, ins, wts = systolic.round_accumulators(11, (0, 3), (2, 1), 8)
        assert accs.shape == (2,) and ins.shape == (2, 8) and wts.shape == (2, 8)


def _assert_rows_of_each_pair(seed, input_ids, filter_ids, length):
    """``round_accumulators`` returns, bit for bit, one ``operand_block`` row
    per pair on each side, and the accumulators of those rows."""
    direct = operand_block(seed, _INPUT_TAG, input_ids, length).astype(np.int64)
    weights = operand_block(seed, _WEIGHT_TAG, filter_ids, length).astype(np.int64)
    accs, ins, wts = round_accumulators(seed, input_ids, filter_ids, length)
    for got, tag, ids in ((ins, _INPUT_TAG, input_ids), (wts, _WEIGHT_TAG, filter_ids)):
        want = operand_block(seed, tag, ids, length)
        assert got.dtype == want.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)
    assert accs.tolist() == (direct * weights).sum(axis=1).tolist()


@pytest.mark.parametrize("pairs_per_chunk", [1, 5, 37, 10**6])
@pytest.mark.parametrize("rows, cols", [(3, 4), (8, 8)])
def test_round_accumulators_of_full_chunks_equal_one_generated_row_per_pair(
        pairs_per_chunk, rows, cols):
    # the full rule's chunks repeat each input across a round's columns and
    # each filter across its rows and across row blocks; ragged blocks on
    # both sides
    layer = _layer(c=2, r=3, q=2 * cols + 1, p=3 * rows - 1)
    plan = RoundPlan(layer, MeshConfig(rows=rows, cols=cols))
    repeated = 0
    for _, _, input_ids, filter_ids in systolic._oracle_pairs(plan, "full", pairs_per_chunk):
        repeated += len(np.unique(input_ids)) < len(input_ids)
        _assert_rows_of_each_pair(5, input_ids, filter_ids, plan.stream_len)
    assert repeated or pairs_per_chunk == 1


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.one_of(st.integers(0, 40), st.integers(2**63, 2**64 + 40)),
                    min_size=1, max_size=16),
       length=st.integers(0, 41), data=st.data())
def test_round_accumulators_with_repeated_ids_equal_one_generated_row_per_pair(
        ids, length, data):
    # shuffled Python ints with repeats, some at or past 2**63, and ids
    # equal modulo 2**64 (2**64 + k and k): each pair gets its own id's row
    repeats = ids + data.draw(st.lists(st.sampled_from(ids), max_size=16))
    input_ids = data.draw(st.permutations(repeats))
    filter_ids = data.draw(st.permutations(repeats))
    _assert_rows_of_each_pair(data.draw(st.sampled_from(EDGE_SEEDS)), input_ids, filter_ids,
                              length)


class TestStreamSchedule:
    def test_every_pe_posts_after_its_skewed_stream(self):
        # PE (r, c) receives its last operand stream_len + r + c cycles after
        # its round starts and posts mac_latency cycles later; ragged blocks
        # on both sides give rounds of four shapes
        layer = _layer(c=2, r=2, q=6, p=7)
        cfg = MeshConfig(rows=4, cols=4, mac_latency=3)
        log: list[str] = []
        stats = run_convolution(layer, cfg, "gather", replay=False, event_log=log)
        posts = [line.split() for line in log if line.endswith(" post")]
        start = 0
        for schedule, latency in zip(build_round_schedules(layer, cfg),
                                     stats.per_round_latency, strict=True):
            count = schedule.active_rows * schedule.active_cols
            got, posts = posts[:count], posts[count:]
            assert sorted((int(cycle), node) for cycle, node, _ in got) == sorted(
                (start + schedule.stream_len + r + c + cfg.mac_latency, f"({r},{c})")
                for r in range(schedule.active_rows) for c in range(schedule.active_cols))
            start += latency
        assert posts == []

    def test_cycle_level_stream_matches_engine_and_oracle(self):
        layer = _layer(c=2, r=2, q=3, p=4)
        cfg = MeshConfig(rows=4, cols=3)
        schedule = build_round_schedules(layer, cfg)[0]
        stepped = simulate_stream(schedule, seed=11)
        pes = list(product(range(schedule.active_rows), range(schedule.active_cols)))
        engine, _, _ = round_accumulators(11, [schedule.input_ids[r] for r, _ in pes],
                                          [schedule.filter_ids[c] for _, c in pes], 8)
        engine = engine.reshape(schedule.active_rows, schedule.active_cols)
        assert (stepped == engine).all()
        ref = partial_conv_oracle(
            operand_block(11, _INPUT_TAG, schedule.input_ids, 8)[2].tolist(),
            operand_block(11, _WEIGHT_TAG, schedule.filter_ids, 8)[1].tolist(),
        )
        assert engine[2][1] == ref

    def test_round_schedules_cover_all_pairs(self):
        layer = _layer(q=10, p=10)
        cfg = MeshConfig(rows=8, cols=8)
        schedules = build_round_schedules(layer, cfg)
        assert len(schedules) == 4   # ceil(10/8)^2
        pairs = {(i, k) for s in schedules for i in s.input_ids for k in s.filter_ids}
        assert pairs == {(i, k) for i in range(10) for k in range(10)}


class TestSingleRowCollection:
    """Uncontended one-row runs must land exactly on the closed forms."""

    def test_ru_collection_is_serialized_drain(self):
        cfg = MeshConfig(rows=1, cols=8)
        stats = run_convolution(_layer(p=1), cfg, "ru", seed=3)
        expected = cfg.cols * (cfg.pipeline_depth + cfg.unicast_len) - 1
        assert stats.per_round_collection == [expected] == [55]
        assert stats.delta_measured == [0]

    def test_gather_collection_is_one_packet(self):
        cfg = MeshConfig(rows=1, cols=8)
        stats = run_convolution(_layer(p=1), cfg, "gather", seed=3)
        expected = cfg.cols * cfg.pipeline_depth + cfg.gather_len - 1
        assert stats.per_round_collection == [expected] == [43]
        assert stats.delta_measured == [0]
        assert stats.packets == 1 and stats.timeout_packets == 0

    @pytest.mark.parametrize("cols,kappa", [(4, 3), (6, 5), (8, 5)])
    def test_closed_forms_scale_with_geometry(self, cols, kappa):
        cfg = MeshConfig(rows=1, cols=cols, pipeline_depth=kappa)
        ru = run_convolution(_layer(q=cols, p=1), cfg, "ru", seed=5)
        g = run_convolution(_layer(q=cols, p=1), cfg, "gather", seed=5)
        assert ru.per_round_collection == [cols * (kappa + 2) - 1]
        assert g.per_round_collection == [cols * kappa + 4 - 1]


class TestRunConvolution:
    def test_modes_deliver_identical_payload_multisets(self):
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(c=2, r=2, q=6, p=6)
        ru = run_convolution(layer, cfg, "ru", seed=9)
        g = run_convolution(layer, cfg, "gather", seed=9)
        assert ru.payloads_delivered == g.payloads_delivered == 6 * 6
        assert ru.rounds == g.rounds == 4

    def test_gather_total_not_slower_than_ru(self):
        cfg = MeshConfig()
        layer = _layer(c=3, r=11, q=8, p=8)   # conv1-shaped stream, 1 round
        ru = run_convolution(layer, cfg, "ru", seed=2)
        g = run_convolution(layer, cfg, "gather", seed=2)
        assert g.total_cycles <= ru.total_cycles

    def test_total_at_least_analytic_ideal(self):
        from gathernoc.analytic import AnalyticParams, latency_gather, latency_ru
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(c=2, r=3, q=8, p=8)
        params = AnalyticParams.for_run(cfg, layer)
        ru = run_convolution(layer, cfg, "ru", seed=4)
        g = run_convolution(layer, cfg, "gather", seed=4)
        assert ru.total_cycles >= latency_ru(params)
        assert g.total_cycles >= latency_gather(params)

    def test_payload_count_per_full_round(self):
        cfg = MeshConfig(rows=4, cols=4)
        stats = run_convolution(_layer(q=4, p=4), cfg, "gather", seed=1)
        assert stats.rounds == 1
        assert stats.payloads_delivered == 16

    def test_ragged_rounds_idle_pes_post_nothing(self):
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(q=6, p=5)   # 2x2 blocks: 4 rounds, ragged edges
        stats = run_convolution(layer, cfg, "gather", seed=8)
        assert stats.rounds == 4
        assert stats.payloads_delivered == 5 * 6

    @pytest.mark.parametrize("mode", ["unicast", "RU", "analytic", ""])
    @pytest.mark.parametrize("replay", [True, False])
    def test_unknown_mode_rejected_before_simulation(self, monkeypatch, mode, replay):
        monkeypatch.setattr("gathernoc.systolic._collect", _not_simulated)
        with pytest.raises(ConfigError, match="mode"):
            run_convolution(_layer(), MeshConfig(rows=4, cols=4), mode, replay=replay)

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    @pytest.mark.parametrize("replay", [True, False])
    def test_payload_width_checked_before_simulation(self, monkeypatch, mode, replay):
        # alexnet/conv3 results reach 255*255*2304, more than 20 bits hold;
        # the library path rejects the layer as RunConfig does, whether or
        # not a simulated value would overflow
        monkeypatch.setattr("gathernoc.systolic._collect", _not_simulated)
        cfg = MeshConfig(rows=4, cols=4, gather_payload_bits=20)
        with pytest.raises(ConfigError, match="gather_payload_bits"):
            run_convolution(load_layer("alexnet", "conv3").with_vectors(4), cfg, mode,
                            replay=replay)

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    @pytest.mark.parametrize("replay", [True, False])
    def test_stand_in_width_checked_before_any_cycle(self, monkeypatch, mode, replay):
        # results of a one-operand layer fit 16 bits, the stand-in flat
        # index 257 * 256 - 1 does not
        monkeypatch.setattr(MeshNetwork, "step", _not_simulated)
        cfg = MeshConfig(rows=257, cols=256, gather_payload_bits=16)
        with pytest.raises(ConfigError, match="stand-in results up to 65791"):
            run_convolution(_layer(r=1, q=1, p=1), cfg, mode, replay=replay)

    @pytest.mark.parametrize("table, message", BAD_TIMEOUT_TABLES)
    @pytest.mark.parametrize("mode", ["ru", "gather"])
    @pytest.mark.parametrize("replay", [True, False])
    def test_bad_timeout_table_rejected_before_any_work(self, monkeypatch, table, message,
                                                        mode, replay):
        for name in ("round_accumulators", "MeshNetwork", "_simulate_round"):
            monkeypatch.setattr(f"gathernoc.systolic.{name}", _not_simulated)
        with pytest.raises(ConfigError, match=message):
            run_convolution(_layer(), MeshConfig(rows=4, cols=4), mode,
                            timeout_table=table, replay=replay)

    def test_replay_matches_full_simulation(self):
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(c=2, r=2, q=8, p=12)   # 6 rounds, one repeated class
        fast = run_convolution(layer, cfg, "ru", seed=6, replay=True)
        slow = run_convolution(layer, cfg, "ru", seed=6, replay=False)
        assert fast.total_cycles == slow.total_cycles
        assert fast.per_round_collection == slow.per_round_collection
        assert fast.counter_totals == slow.counter_totals
        assert fast.hops == slow.hops and fast.flits == slow.flits

    @pytest.mark.parametrize("replay", [True, False])
    def test_give_up_budget_longer_than_the_drain_allowance(self, replay):
        # the row-start packet is full after two payloads, so PE (0, 2) waits
        # out its whole budget, longer than the network's fixed allowance
        cfg = MeshConfig(rows=4, cols=4, gather_capacity=2)
        stats = run_convolution(_layer(q=4, p=4), cfg, "gather",
                                timeout_table={(0, 2): 20_000}, replay=replay)
        assert stats.per_round_collection == [20_015]

    def test_mesh_full_round_deltas_nonnegative(self):
        cfg = MeshConfig()
        stats = run_convolution(_layer(q=8, p=8), cfg, "ru", seed=3)
        assert stats.delta_measured and all(d >= 0 for d in stats.delta_measured)

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    @pytest.mark.parametrize("replay, logged", [(True, False), (True, True),
                                                (False, False), (False, True)])
    def test_give_up_policy_resolved_once_per_call(self, monkeypatch, mode, replay, logged):
        # 11 input vectors x 6 filters on 4x4: four classes, rows that differ
        resolved = []
        resolve = systolic.give_up_budgets

        def spy(*args):
            resolved.append(args)
            return resolve(*args)

        monkeypatch.setattr(systolic, "give_up_budgets", spy)
        run_convolution(_layer(q=6, p=11), MeshConfig(rows=4, cols=4), mode,
                        timeout_table={(1, 2): 3}, replay=replay,
                        event_log=[] if logged else None)
        assert len(resolved) == 1

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    def test_tables_of_equal_budgets_share_one_class_measurement(self, monkeypatch, mode):
        # no table, the default staircase restated, and one entry that
        # restates it are one policy: one measurement per class in one mapping
        cfg = MeshConfig(rows=4, cols=4)
        layer = _layer(q=6, p=11)
        measured, measure = [], systolic._measure_class

        def spy(config, mode, shape, *rest):
            measured.append(shape)
            return measure(config, mode, shape, *rest)

        monkeypatch.setattr(systolic, "_measure_class", spy)
        shared: dict = {}
        runs = [run_convolution(layer, cfg, mode, timeout_table=table, shared=shared)
                for table in (None, default_timeout_table(cfg), {(2, 0): 0})]
        classes = {(s.active_rows, s.active_cols) for s in build_round_schedules(layer, cfg)}
        assert sorted(measured) == sorted(classes) and len(classes) == 4
        assert runs[1] == runs[0] and runs[2] == runs[0]


def _longest_container(value) -> int:
    """The most entries any list, tuple or dict in ``value`` holds."""
    if isinstance(value, dict):
        return max([len(value), *map(_longest_container, value.values())])
    if isinstance(value, (list, tuple)):
        return max([len(value), *map(_longest_container, value)])
    return 0


@pytest.mark.parametrize("mode", ["ru", "gather"])
def test_full_scale_stats_hold_one_row_per_class(mode):
    # 8x8 vgg16/conv1 at full scale is 50 176 full rounds, all of one class;
    # only the views, built on demand, hold an entry per round (every round
    # is full, so delta_measured too)
    cfg = MeshConfig(rows=8, cols=8)
    stats = run_convolution(load_layer("vgg16", "conv1"), cfg, mode)
    assert stats.rounds == 50_176 and len(stats.round_classes) == 1
    assert _longest_container(dataclasses.asdict(stats)) <= cfg.rows * cfg.cols
    for name in VIEWS[:3]:
        assert len(getattr(stats, name)) == stats.rounds, name
    assert sum(stats.per_round_latency) == stats.total_cycles
    assert sum(stats.per_round_collection) == stats.collection_cycles


@pytest.mark.parametrize("mode", ["ru", "gather"])
def test_delta_measured_covers_the_rounds_whose_shape_is_the_whole_mesh(mode):
    # nine rounds in four classes on 8x8: only the 8x8 class's four count
    cfg, layer, mode = ragged_case(8, mode)
    stats = run_convolution(layer, cfg, mode)
    shapes = [(s.active_rows, s.active_cols) for s in build_round_schedules(layer, cfg)]
    expected = [collection - stats.ideal_collection
                for collection, shape in zip(stats.per_round_collection, shapes)
                if shape == (cfg.rows, cfg.cols)]
    assert len(expected) == 4 and stats.delta_measured == expected


class TestPayloadWidthNotDividingFlit:
    """64-bit flits carry one 40-bit payload each, so a 4-flit gather packet
    holds three payloads although its 192 payload bits would pass for four."""

    CFG = dict(flit_width=64, gather_payload_bits=40)

    @staticmethod
    def _spy_networks(monkeypatch) -> list:
        nets = []

        class Spy(MeshNetwork):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nets.append(self)

        monkeypatch.setattr("gathernoc.systolic.MeshNetwork", Spy)
        return nets

    @staticmethod
    def _gather_loads(nets) -> list[int]:
        return [len(pkt.payloads) for net in nets for pkt in net.delivered
                if pkt.pt == PacketType.GATHER]

    @pytest.mark.parametrize("size", [4, 8])
    def test_convolution_delivers_every_payload(self, monkeypatch, size):
        nets = self._spy_networks(monkeypatch)
        cfg = MeshConfig(rows=size, cols=size, **self.CFG)
        layer = _layer(q=size + 1, p=size + 1)   # all four round classes
        stats = run_convolution(layer, cfg, "gather")
        assert stats.payloads_delivered == layer.vectors * layer.kernels
        loads = self._gather_loads(nets)
        assert loads and max(loads) <= 3

    @pytest.mark.parametrize("size", [4, 8])
    def test_ready_row_delivers_every_payload(self, monkeypatch, size):
        nets = self._spy_networks(monkeypatch)
        cfg = MeshConfig(rows=size, cols=size, **self.CFG)
        stats = run_ready_row(cfg, 1, "gather")
        assert stats.payloads_delivered == size
        loads = self._gather_loads(nets)
        assert sum(loads) == size and max(loads) <= 3


class TestReadyRowScenario:
    def test_fig1_hop_counts(self):
        cfg = MeshConfig(rows=6, cols=6)
        ru = run_ready_row(cfg, 2, "ru")
        g = run_ready_row(cfg, 2, "gather")
        assert ru.hops == 15
        assert g.hops == 5
        assert ru.packets == 6 and g.packets == 1

    @pytest.mark.parametrize("mode", ["unicast", "RU", "analytic", ""])
    def test_unknown_mode_rejected_before_simulation(self, monkeypatch, mode):
        monkeypatch.setattr("gathernoc.systolic._collect", _not_simulated)
        with pytest.raises(ConfigError, match="mode"):
            run_ready_row(MeshConfig(rows=4, cols=4), 0, mode)

    @pytest.mark.parametrize("table, message", BAD_TIMEOUT_TABLES)
    @pytest.mark.parametrize("mode", ["ru", "gather"])
    def test_bad_timeout_table_rejected_before_simulation(self, monkeypatch, table, message,
                                                          mode):
        for name in ("MeshNetwork", "_collect"):
            monkeypatch.setattr(f"gathernoc.systolic.{name}", _not_simulated)
        with pytest.raises(ConfigError, match=message):
            run_ready_row(MeshConfig(rows=4, cols=4), 0, mode, timeout_table=table)

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    def test_stand_in_width_checked_before_any_cycle(self, monkeypatch, mode):
        # the 6x6 stand-ins reach 35, which 4 payload bits cannot hold: both
        # modes refuse alike, before the network steps
        monkeypatch.setattr(MeshNetwork, "step", _not_simulated)
        with pytest.raises(ConfigError, match="stand-in results up to 35"):
            run_ready_row(MeshConfig(rows=6, cols=6, gather_payload_bits=4), 2, mode)

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    def test_stand_ins_at_the_payload_width_run(self, mode):
        stats = run_ready_row(MeshConfig(rows=4, cols=4, gather_payload_bits=4), 3, mode)
        assert stats.payloads_delivered == 4

    def test_give_up_budget_longer_than_the_drain_allowance(self):
        cfg = MeshConfig(rows=4, cols=4, gather_capacity=2)
        stats = run_ready_row(cfg, 0, "gather", timeout_table={(0, 2): 20_000})
        assert stats.per_round_collection == [20_013]

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    @pytest.mark.parametrize("cols", [1, 6])
    def test_ready_row_of_a_one_row_mesh_is_a_whole_mesh_round(self, cols, mode):
        # the row is the whole mesh, so its round counts in delta_measured
        stats = run_ready_row(MeshConfig(rows=1, cols=cols), 0, mode)
        [collection] = stats.per_round_collection
        assert stats.delta_measured == [collection - stats.ideal_collection] == [0]

    def test_ready_row_payloads_survive(self, monkeypatch):
        # every PE's stand-in result, its flat index, arrives exactly once
        nets = []

        class Spy(MeshNetwork):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nets.append(self)

        monkeypatch.setattr("gathernoc.systolic.MeshNetwork", Spy)
        cfg = MeshConfig(rows=6, cols=6)
        for mode in ("ru", "gather"):
            stats = run_ready_row(cfg, 2, mode)
            delivered = [p for pkt in nets[-1].delivered for p in pkt.payloads]
            assert sorted(delivered) == [(NodeId(2, c), 12 + c) for c in range(6)]
            assert stats.payloads_delivered == 6

    # every RunStats field of the ready-row demo but the class table, and the
    # four per-round views of it, keyed "size/row/mode" with a "/flat5" suffix
    # for a flat give-up budget of 5 cycles
    GOLDEN = json.loads((Path(__file__).parent / "data" / "ready_row_golden.json").read_text())

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_ready_row_stats_match_golden(self, key):
        size, row, mode, *flat = key.split("/")
        cfg = MeshConfig(rows=int(size), cols=int(size))
        table = flat_timeout_table(cfg, 5) if flat else None
        stats = run_ready_row(cfg, int(row), mode, timeout_table=table)
        recorded = {f.name for f in dataclasses.fields(RunStats)} - {"round_classes"}
        assert set(self.GOLDEN[key]) == recorded | set(VIEWS)
        assert {k: getattr(stats, k) for k in self.GOLDEN[key]} == self.GOLDEN[key]
