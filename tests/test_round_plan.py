"""The round plan against an explicit round-by-round enumeration, and the
oracle's reach through ``run_convolution``."""
from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gathernoc import systolic
from gathernoc.config import MeshConfig
from gathernoc.errors import OracleMismatchError
from gathernoc.systolic import RoundPlan, RoundSchedule, build_round_schedules, run_convolution
from gathernoc.workload import LayerConfig, stream_length


def nested_round_schedules(layer: LayerConfig, config: MeshConfig) -> list[RoundSchedule]:
    """Every round, one row block after another, each over every column
    block: the explicit enumeration the round plan must reproduce."""
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


def explicit_oracle_checks(schedules: list[RoundSchedule], oracle: str):
    """``(round, PE)`` pairs the oracle checks, by the rule on explicit lists:
    every ``len // 32``-th round and ``pairs[::len // 4][:4]`` under ``sample``."""
    stride = max(1, len(schedules) // 32) if oracle == "sample" else 1
    checks = []
    for s in schedules[::stride]:
        pairs = [(r, c) for r in range(s.active_rows) for c in range(s.active_cols)]
        if oracle == "sample":
            pairs = pairs[:: max(1, len(pairs) // 4)][:4]
        checks += [(s.index, pe) for pe in pairs]
    return checks


@st.composite
def shapes(draw, max_side=8, max_vectors=80, max_kernels=40):
    cfg = MeshConfig(rows=draw(st.integers(1, max_side)), cols=draw(st.integers(1, max_side)))
    layer = LayerConfig("t", "t", in_channels=draw(st.integers(1, 3)),
                        kernels=draw(st.integers(1, max_kernels)), kernel_side=1,
                        layer_side=1, input_vectors=draw(st.integers(1, max_vectors)))
    return cfg, layer


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shapes())
def test_plan_expands_to_the_nested_enumeration(shape):
    cfg, layer = shape
    explicit = nested_round_schedules(layer, cfg)
    assert build_round_schedules(layer, cfg) == explicit

    plan = RoundPlan(layer, cfg)
    assert plan.rounds == len(explicit)
    counts = Counter((s.active_rows, s.active_cols) for s in explicit)
    firsts: dict[tuple[int, int], int] = {}
    for s in explicit:
        firsts.setdefault((s.active_rows, s.active_cols), s.index)
    planned = {(rows, cols): (row_count * col_count, ib * plan.col_count + fb)
               for rows, row_count, ib in plan.row_blocks
               for cols, col_count, fb in plan.col_blocks}
    assert planned == {k: (counts[k], firsts[k]) for k in counts}
    # the plan lists its classes in the order their first rounds run
    assert [first for _, first in planned.values()] == sorted(firsts.values())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shapes(max_side=5, max_vectors=60, max_kernels=20),
       st.sampled_from(("sample", "full")), st.booleans())
def test_oracle_checks_the_pairs_of_the_explicit_rule(shape, oracle, replay):
    cfg, layer = shape
    checked = []
    check = systolic._check_oracle

    def spy(schedule, pes, *rest):
        checked.extend((schedule.index, pe) for pe in pes)
        return check(schedule, pes, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systolic, "_check_oracle", spy)
        run_convolution(layer, cfg, "gather", seed=4, oracle=oracle, replay=replay)
    assert sorted(checked) == explicit_oracle_checks(nested_round_schedules(layer, cfg), oracle)


# 2x2 mesh, 32 input vectors x 8 filters: 64 rounds of one class, so the
# sampled oracle checks every second round and round 2 is never simulated
# when replay is on
GUARD_LAYER = LayerConfig("t", "t", in_channels=2, kernels=8, kernel_side=1,
                          layer_side=1, input_vectors=32)
GUARD_ROUND = 2


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("oracle", ["full", "sample"])
def test_oracle_catches_an_engine_accumulator_off_by_one(monkeypatch, oracle, replay):
    engine = systolic.round_accumulators

    def off_by_one(schedule, seed, operands=False):
        out = engine(schedule, seed, operands)
        if schedule.index == GUARD_ROUND:
            # the first PE of the arrays is PE (0, 0), which every rule samples
            (out[0] if operands else out)[0, 0] += 1
        return out

    cfg = MeshConfig(rows=2, cols=2)
    run_convolution(GUARD_LAYER, cfg, "ru", seed=3, oracle=oracle, replay=replay)
    monkeypatch.setattr(systolic, "round_accumulators", off_by_one)
    with pytest.raises(OracleMismatchError, match=rf"round {GUARD_ROUND} PE \(0,0\)"):
        run_convolution(GUARD_LAYER, cfg, "ru", seed=3, oracle=oracle, replay=replay)
