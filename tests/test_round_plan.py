"""The round plan against an explicit round-by-round enumeration, and the
oracle's reach through ``run_convolution`` and ``harness.run``."""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gathernoc import harness, systolic
from gathernoc.config import MeshConfig
from gathernoc.errors import OracleMismatchError
from gathernoc.systolic import RoundPlan, RoundSchedule, build_round_schedules, run_convolution
from gathernoc.workload import LayerConfig, load_layer, stream_length


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
    """``(round, PE)`` pairs the oracle checks, in order, by the rule on
    explicit lists: every ``len // 32``-th round and ``pairs[::len // 4][:4]``
    under ``sample``."""
    stride = max(1, len(schedules) // 32) if oracle == "sample" else 1
    checks = []
    for s in schedules[::stride]:
        pairs = [(r, c) for r in range(s.active_rows) for c in range(s.active_cols)]
        if oracle == "sample":
            pairs = pairs[:: max(1, len(pairs) // 4)][:4]
        checks += [(s.index, pe) for pe in pairs]
    return checks


def pe_of_vectors(layer: LayerConfig, config: MeshConfig) -> dict:
    """``(input id, filter id) -> (round, PE)`` of the explicit enumeration:
    each pair of vectors of a layer meets at exactly one PE of one round."""
    return {(s.input_ids[r], s.filter_ids[c]): (s.index, (r, c))
            for s in nested_round_schedules(layer, config)
            for r in range(s.active_rows) for c in range(s.active_cols)}


# work limits that make run_convolution pick each oracle rule
RULE_LIMITS = {"full": 10**12, "sample": 0}


def use_rule(monkeypatch, oracle: str) -> None:
    """Make every run check its layers by the ``full`` or ``sample`` rule."""
    monkeypatch.setattr(systolic, "FULL_ORACLE_WORK_LIMIT", RULE_LIMITS[oracle])


def spy_engine(monkeypatch) -> list[list[tuple]]:
    """Record every ``round_accumulators`` call as a list of ``(input id,
    filter id, input vector, weight vector, accumulator)``, one per PE."""
    calls, engine = [], systolic.round_accumulators

    def spy(seed, input_ids, filter_ids, length):
        accs, ins, wts = engine(seed, input_ids, filter_ids, length)
        calls.append([(i, f, tuple(x.tolist()), tuple(w.tolist()), int(a))
                      for i, f, x, w, a in zip(input_ids, filter_ids, ins, wts, accs)])
        return accs, ins, wts

    monkeypatch.setattr(systolic, "round_accumulators", spy)
    return calls


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
    with pytest.MonkeyPatch.context() as mp:
        use_rule(mp, oracle)
        calls = spy_engine(mp)
        run_convolution(layer, cfg, "gather", seed=4, replay=replay)
    pe_of = pe_of_vectors(layer, cfg)
    checked = [pe_of[i, f] for call in calls for i, f, *_ in call]
    assert checked == explicit_oracle_checks(nested_round_schedules(layer, cfg), oracle)


def generated_oracle_pairs(plan: RoundPlan, oracle: str):
    """The checked pairs ``(round, row, col, input id, filter id)`` as the
    oracle once listed them, one ``RoundSchedule`` per checked round and
    one Python step per pair: the reference for the array version."""
    stride = 1 if oracle == "full" else max(1, plan.rounds // 32)
    for schedule in map(plan.schedule, range(0, plan.rounds, stride)):
        pes = range(schedule.active_rows * schedule.active_cols)
        if oracle == "sample":
            pes = pes[:: max(1, len(pes) // 4)][:4]
        for r, c in (divmod(k, schedule.active_cols) for k in pes):
            yield schedule.index, r, c, schedule.input_ids[r], schedule.filter_ids[c]


# every square mesh up to 16x16 and non-square ones; 192 and 512 filters
# leave a ragged column block on most of them, and the vector counts a
# ragged row block
PAIR_MESHES = [(side, side) for side in range(1, 17)] + [(1, 16), (16, 1), (3, 14), (10, 7),
                                                          (16, 5)]


def chunk_size(plan: RoundPlan) -> int:
    """The pairs one oracle chunk holds, as ``_check_oracle`` cuts them."""
    return max(1, systolic.ORACLE_CHUNK_ELEMENTS // plan.stream_len)


@pytest.mark.parametrize("rows, cols", PAIR_MESHES)
@pytest.mark.parametrize("name", [("alexnet", "conv2"), ("vgg16", "conv4")])
def test_pair_arrays_list_the_generated_pairs(rows, cols, name):
    cfg = MeshConfig(rows=rows, cols=cols)
    for vectors in (1, 2, 7, 33, None):
        plan = RoundPlan(load_layer(*name).with_vectors(vectors), cfg)
        # the full rule on every pair of a full-size layer is too slow for
        # the generated reference
        for oracle in ("sample",) if vectors is None else ("sample", "full"):
            pieces = systolic._oracle_pairs(plan, oracle, chunk_size(plan))
            arrays = [np.concatenate(a) for a in zip(*pieces)]
            assert all(a.dtype.kind == "i" and a.shape == arrays[0].shape for a in arrays)
            pairs = [(index, *divmod(pe, plan.schedule(index).active_cols), i, f)
                     for index, pe, i, f in zip(*(a.tolist() for a in arrays))]
            assert pairs == list(generated_oracle_pairs(plan, oracle))


def whole_pair_arrays(plan: RoundPlan, oracle: str) -> tuple[np.ndarray, ...]:
    """Every checked pair at once, as four int64 arrays ``(round, PE, input
    id, filter id)``: the arrays the oracle once built in one piece, kept
    as the reference its pieces must join to."""
    sample = oracle == "sample"
    rounds = np.arange(0, plan.rounds, max(1, plan.rounds // 32) if sample else 1)
    ib, fb = np.divmod(rounds, plan.col_count)
    cols = np.minimum(plan.m, plan.q - fb * plan.m)
    active = np.minimum(plan.n, plan.p - ib * plan.n) * cols
    step = np.maximum(1, active // 4) if sample else 1
    counts = np.minimum(4, active) if sample else active
    pes = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    if sample:
        pes *= np.repeat(step, counts)
    r, c = np.divmod(pes, np.repeat(cols, counts))
    return (np.repeat(rounds, counts), pes, r + np.repeat(ib * plan.n, counts),
            c + np.repeat(fb * plan.m, counts))


@pytest.mark.parametrize("rows, cols", PAIR_MESHES)
@pytest.mark.parametrize("name", [("alexnet", "conv2"), ("vgg16", "conv4")])
def test_pair_pieces_hold_one_chunk_and_join_to_the_whole_arrays(rows, cols, name):
    # every piece but the last holds exactly one chunk's pairs, so the
    # oracle's chunks are the slices of the whole arrays they always were;
    # full-size layers take the full rule here too
    cfg = MeshConfig(rows=rows, cols=cols)
    for vectors in (1, 2, 7, 33, None):
        plan = RoundPlan(load_layer(*name).with_vectors(vectors), cfg)
        for oracle in ("sample", "full"):
            whole = whole_pair_arrays(plan, oracle)
            # pieces of one and five pairs only where they stay few
            sizes = (1, 5, chunk_size(plan), 4096) if whole[0].size <= 2000 else \
                (chunk_size(plan), 4096)
            for size in sizes:
                pieces = list(systolic._oracle_pairs(plan, oracle, size))
                assert [len(piece[0]) for piece in pieces] == \
                    [min(size, whole[0].size - start) for start in range(0, whole[0].size, size)]
                assert all(len(a) == len(piece[0]) for piece in pieces for a in piece)
                joined = [np.concatenate(a) for a in zip(*pieces)]
                assert all(a.dtype == np.int64 for a in joined)
                for got, want in zip(joined, whole):
                    np.testing.assert_array_equal(got, want)


# 2x2 mesh, 32 input vectors x 8 filters: 64 rounds of one class, so the
# sampled oracle checks every second round and round 2 is never simulated
# when replay is on
GUARD_LAYER = LayerConfig("t", "t", in_channels=2, kernels=8, kernel_side=1,
                          layer_side=1, input_vectors=32)
GUARD_ROUND = 2


def off_by_one_at(engine, faults):
    """``engine`` (``round_accumulators``) with the accumulator one too high
    at every PE that pairs the vectors ``(input id, filter id)`` in
    ``faults``."""
    def off_by_one(seed, input_ids, filter_ids, length):
        accs, ins, wts = engine(seed, input_ids, filter_ids, length)
        for k, pair in enumerate(zip(input_ids, filter_ids)):
            if pair in faults:
                accs[k] += 1
        return accs, ins, wts
    return off_by_one


def off_by_one_at_guard_round(engine):
    """``engine`` with the accumulator of PE (0, 0), which every rule
    samples, one too high in round ``GUARD_ROUND`` of ``GUARD_LAYER`` on
    the 2x2 mesh."""
    guard = RoundPlan(GUARD_LAYER, MeshConfig(rows=2, cols=2)).schedule(GUARD_ROUND)
    return off_by_one_at(engine, {(guard.input_ids[0], guard.filter_ids[0])})


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("limit_past_work, oracle", [(0, "full"), (-1, "sample")])
def test_work_limit_alone_picks_the_oracle_rule(monkeypatch, limit_past_work, oracle, replay):
    # a layer's work is rounds * PEs * stream length: at the limit every PE
    # is checked, one element past it the sampled rule applies
    cfg = MeshConfig(rows=2, cols=2)
    work = 64 * cfg.rows * cfg.cols * stream_length(GUARD_LAYER)
    monkeypatch.setattr(systolic, "FULL_ORACLE_WORK_LIMIT", work + limit_past_work)
    calls = spy_engine(monkeypatch)
    run_convolution(GUARD_LAYER, cfg, "ru", seed=3, replay=replay)
    pe_of = pe_of_vectors(GUARD_LAYER, cfg)
    checked = [pe_of[i, f] for call in calls for i, f, *_ in call]
    assert checked == explicit_oracle_checks(nested_round_schedules(GUARD_LAYER, cfg), oracle)


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("oracle", ["full", "sample"])
def test_oracle_catches_an_engine_accumulator_off_by_one(monkeypatch, oracle, replay):
    cfg = MeshConfig(rows=2, cols=2)
    use_rule(monkeypatch, oracle)
    run_convolution(GUARD_LAYER, cfg, "ru", seed=3, replay=replay)
    monkeypatch.setattr(systolic, "round_accumulators",
                        off_by_one_at_guard_round(systolic.round_accumulators))
    with pytest.raises(OracleMismatchError, match=rf"round {GUARD_ROUND} PE \(0,0\)"):
        run_convolution(GUARD_LAYER, cfg, "ru", seed=3, replay=replay)


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("mode", ["ru", "gather"])
@pytest.mark.parametrize("oracle", ["full", "sample"])
def test_oracle_fails_before_any_round_is_simulated(monkeypatch, oracle, mode, replay):
    use_rule(monkeypatch, oracle)
    monkeypatch.setattr(systolic, "round_accumulators",
                        off_by_one_at_guard_round(systolic.round_accumulators))

    def simulated(*args, **kwargs):
        raise AssertionError("a round was simulated before the oracle finished")

    monkeypatch.setattr(systolic, "_collect", simulated)
    with pytest.raises(OracleMismatchError, match=rf"round {GUARD_ROUND} PE \(0,0\)"):
        run_convolution(GUARD_LAYER, MeshConfig(rows=2, cols=2), mode, seed=3, replay=replay)


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("mode", ["ru", "gather"])
def test_simulation_generates_no_operands(monkeypatch, mode, replay):
    # with only the layer's verdict shared (no class measurements), a run
    # simulates every class without ever reaching the engine
    cfg = MeshConfig(rows=3, cols=4)
    layer = VERDICT_LAYERS[1]
    first = {}
    expected = run_convolution(layer, cfg, mode, seed=5, replay=replay, shared=first)
    verdicts = {key: value for key, value in first.items() if value is True}
    assert len(verdicts) == 1

    def engine(*args, **kwargs):
        raise AssertionError("operands were generated")

    monkeypatch.setattr(systolic, "round_accumulators", engine)
    assert run_convolution(layer, cfg, mode, seed=5, replay=replay, shared=verdicts) == expected


def uint8_engine(engine):
    """``engine`` (``round_accumulators``) with its operands cast to uint8
    and multiplied in uint8, so every accumulator wraps modulo 256; an
    oracle that took the dtype of the operands it is given, through a
    matrix product, would agree with it."""
    def narrow(seed, input_ids, filter_ids, length):
        _, ins, wts = engine(seed, input_ids, filter_ids, length)
        ins, wts = ins.astype(np.uint8), wts.astype(np.uint8)
        return (ins[:, None, :] @ wts[:, :, None])[:, 0, 0], ins, wts
    return narrow


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("oracle", ["full", "sample"])
def test_oracle_does_not_take_the_engines_dtype(monkeypatch, oracle, replay):
    cfg = MeshConfig(rows=2, cols=2)
    use_rule(monkeypatch, oracle)
    run_convolution(GUARD_LAYER, cfg, "ru", seed=3, replay=replay)
    monkeypatch.setattr(systolic, "round_accumulators",
                        uint8_engine(systolic.round_accumulators))
    with pytest.raises(OracleMismatchError, match=r"round 0 PE \(0,0\)"):
        run_convolution(GUARD_LAYER, cfg, "ru", seed=3, replay=replay)


# ---------------------------------------------- one oracle verdict per run

def use_layers(monkeypatch, layers: list[LayerConfig]) -> list[tuple[str, str]]:
    """Make ``harness.run`` see ``layers`` as its layer database."""
    db = {(l.model, l.layer): l for l in layers}
    monkeypatch.setattr(harness, "builtin_layer_db", lambda: db)
    return list(db)


def spy_oracle_checks(monkeypatch) -> Counter:
    """Count every PE check the oracle makes as (layer, input id, filter id,
    input vector, weight vector, accumulator); the pair of ids names the
    PE and round within the layer, and the layer is the one of the
    ``harness.run`` call in progress, or ``None`` outside one."""
    checks, layer_of_call = Counter(), [None]
    engine, convolve = systolic.round_accumulators, harness.run_convolution

    def spy(seed, input_ids, filter_ids, length):
        accs, ins, wts = engine(seed, input_ids, filter_ids, length)
        checks.update((layer_of_call[0], i, f, tuple(x.tolist()), tuple(w.tolist()), int(a))
                      for i, f, x, w, a in zip(input_ids, filter_ids, ins, wts, accs))
        return accs, ins, wts

    def tagged(layer, *args, **kwargs):
        layer_of_call[0] = layer.layer
        try:
            return convolve(layer, *args, **kwargs)
        finally:
            layer_of_call[0] = None

    monkeypatch.setattr(systolic, "round_accumulators", spy)
    monkeypatch.setattr(harness, "run_convolution", tagged)
    return checks


# stream lengths 2, 3 and 2 and ragged blocks on both meshes, so round
# classes are shared across layers while the operands differ; "long" has
# 70 rounds on 3x4, so the sampled rule skips rounds there
VERDICT_LAYERS = [
    LayerConfig("v", "long", in_channels=2, kernels=20, kernel_side=1, layer_side=1,
                input_vectors=40),
    LayerConfig("v", "wide", in_channels=3, kernels=9, kernel_side=1, layer_side=1,
                input_vectors=7),
    LayerConfig("v", "small", in_channels=2, kernels=5, kernel_side=1, layer_side=1,
                input_vectors=5),
]


@pytest.mark.parametrize("modes", [("ru", "gather"), ("gather", "ru"), ("gather",)])
@pytest.mark.parametrize("oracle", ["full", "sample"])
@pytest.mark.parametrize("rows, cols", [(3, 4), (2, 5)])
def test_run_checks_each_layer_once_as_a_single_mode_run(monkeypatch, modes, oracle,
                                                         rows, cols):
    # whichever mode runs first checks the layer; the other reuses the
    # verdict, so the run makes exactly the checks of one run_convolution
    mesh = MeshConfig(rows=rows, cols=cols)
    use_rule(monkeypatch, oracle)
    cfg = harness.RunConfig(mesh=mesh, layers=use_layers(monkeypatch, VERDICT_LAYERS),
                            modes=modes, seed=9)
    checks = spy_oracle_checks(monkeypatch)
    expected = Counter()
    for layer in VERDICT_LAYERS:
        alone = {}
        for mode in ("ru", "gather"):
            checks.clear()
            run_convolution(layer, mesh, mode, seed=9)
            alone[mode] = Counter({(layer.layer, *k[1:]): n for k, n in checks.items()})
        assert alone["ru"] == alone["gather"]
        expected += alone["ru"]
    # a second run checks every layer again: no verdict outlives its run
    for _ in range(2):
        checks.clear()
        harness.run(cfg)
        assert checks == expected


@pytest.mark.parametrize("modes", [("ru", "gather"), ("gather", "ru")])
@pytest.mark.parametrize("oracle", ["full", "sample"])
def test_run_oracle_catches_an_engine_accumulator_off_by_one(monkeypatch, oracle, modes):
    use_rule(monkeypatch, oracle)
    cfg = harness.RunConfig(mesh=MeshConfig(rows=2, cols=2),
                            layers=use_layers(monkeypatch, [GUARD_LAYER]), modes=modes, seed=3)
    harness.run(cfg)
    calls, convolve = [], harness.run_convolution

    def record(layer, config, mode, *args, **kwargs):
        calls.append(mode)
        return convolve(layer, config, mode, *args, **kwargs)

    monkeypatch.setattr(harness, "run_convolution", record)
    monkeypatch.setattr(systolic, "round_accumulators",
                        off_by_one_at_guard_round(systolic.round_accumulators))
    with pytest.raises(OracleMismatchError, match=rf"round {GUARD_ROUND} PE \(0,0\)"):
        harness.run(cfg)
    # the first mode of the layer makes the checks and raises
    assert calls == [modes[0]]


def test_shared_verdict_covers_only_its_layer_mesh_seed_and_rule(monkeypatch):
    checks = spy_oracle_checks(monkeypatch)

    def checked(mode, mesh, p, oracle, **kwargs) -> Counter:
        use_rule(monkeypatch, oracle)
        checks.clear()
        run_convolution(VERDICT_LAYERS[0].with_vectors(p), mesh, mode, **kwargs)
        return Counter(checks)

    runs = [dict(mesh=MeshConfig(rows=rows, cols=cols), seed=seed, oracle=oracle, p=p)
            for rows, cols in ((3, 4), (2, 5)) for seed in (1, 2)
            for oracle in ("full", "sample") for p in (None, 10)]
    alone = [checked("ru", **kwargs) for kwargs in runs]
    shared = {}
    for kwargs, expected in zip(runs, alone):
        assert checked("gather", shared=shared, **kwargs) == expected
    for kwargs in runs:
        assert checked("ru", shared=shared, **kwargs) == Counter()


def test_a_failed_check_leaves_no_verdict(monkeypatch):
    monkeypatch.setattr(systolic, "round_accumulators",
                        off_by_one_at_guard_round(systolic.round_accumulators))
    shared = {}
    for mode in ("ru", "gather", "ru"):
        with pytest.raises(OracleMismatchError, match=rf"round {GUARD_ROUND} PE \(0,0\)"):
            run_convolution(GUARD_LAYER, MeshConfig(rows=2, cols=2), mode, seed=3,
                            shared=shared)


# ------------------------------------------------- the oracle's chunk budget

@pytest.mark.parametrize("oracle", ["full", "sample"])
@pytest.mark.parametrize("pairs_per_chunk", [1, 3, 7])
@pytest.mark.parametrize("layer", [GUARD_LAYER, *VERDICT_LAYERS])
def test_chunked_oracle_checks_what_the_unchunked_one_does(monkeypatch, layer, oracle,
                                                          pairs_per_chunk):
    cfg, length = MeshConfig(rows=3, cols=4), stream_length(layer)
    use_rule(monkeypatch, oracle)
    runs = {}
    for budget in (10**12, pairs_per_chunk * length + length - 1):
        monkeypatch.setattr(systolic, "ORACLE_CHUNK_ELEMENTS", budget)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_engine(mp)
            shared = {}
            run_convolution(layer, cfg, "ru", seed=6, shared=shared)
        runs[budget] = calls, {k: v for k, v in shared.items() if v is True}
    (whole, verdict), (chunks, chunked_verdict) = runs.values()
    assert len(whole) == 1 and chunked_verdict == verdict and len(verdict) == 1
    assert [check for call in chunks for check in call] == whole[0]
    assert [len(call) for call in chunks[:-1]] == [pairs_per_chunk] * (len(chunks) - 1)
    assert 1 <= len(chunks[-1]) <= pairs_per_chunk


def test_a_fault_in_a_later_chunk_names_its_own_round_and_pe(monkeypatch):
    # 64 rounds of four PEs, three pairs a chunk: round 40 PE (1,1) and
    # round 41 PE (0,0) are pairs 163 and 164, both in chunk 54 of 86
    cfg = MeshConfig(rows=2, cols=2)
    monkeypatch.setattr(systolic, "ORACLE_CHUNK_ELEMENTS", 3 * stream_length(GUARD_LAYER))
    plan = RoundPlan(GUARD_LAYER, cfg)
    faults = {(plan.schedule(40).input_ids[1], plan.schedule(40).filter_ids[1]),
              (plan.schedule(41).input_ids[0], plan.schedule(41).filter_ids[0])}
    use_rule(monkeypatch, "full")
    calls = spy_engine(monkeypatch)
    monkeypatch.setattr(systolic, "round_accumulators",
                        off_by_one_at(systolic.round_accumulators, faults))
    with pytest.raises(OracleMismatchError, match=r"^round 40 PE \(1,1\): "):
        run_convolution(GUARD_LAYER, cfg, "gather", seed=3)
    assert len(calls) == 55


@pytest.mark.parametrize("oracle", ["full", "sample"])
def test_a_fault_names_its_pe_by_the_active_columns_of_its_round(monkeypatch, oracle):
    # 3x4 mesh, 10 filters: column blocks of 4, 4 and 2, so round 2 has two
    # active columns, and row-major PE 5 of it is (2,1), which the sampled
    # rule does not check; it checks row-major PEs 0 to 3, so PE 3, (1,1)
    cfg = MeshConfig(rows=3, cols=4)
    layer = LayerConfig("t", "t", in_channels=2, kernels=10, kernel_side=1, layer_side=1,
                        input_vectors=3)
    guard = RoundPlan(layer, cfg).schedule(2)
    assert (guard.active_rows, guard.active_cols) == (3, 2)
    r, c = (2, 1) if oracle == "full" else (1, 1)
    use_rule(monkeypatch, oracle)
    monkeypatch.setattr(systolic, "round_accumulators", off_by_one_at(
        systolic.round_accumulators, {(guard.input_ids[r], guard.filter_ids[c])}))
    with pytest.raises(OracleMismatchError, match=rf"^round 2 PE \({r},{c}\): "):
        run_convolution(layer, cfg, "ru", seed=3)


def test_every_generator_call_of_the_check_stays_within_the_budget(monkeypatch):
    # full scale: 1 600 rounds of 8x8 PEs, 4 608 operands per PE
    layer, cfg = load_layer("vgg16", "conv4"), MeshConfig(rows=8, cols=8)
    assert stream_length(layer) == 4608
    calls, generate = [], systolic.operand_block

    def spy(seed, tag, vec_ids, length):
        calls.append(len(vec_ids) * length)
        return generate(seed, tag, vec_ids, length)

    monkeypatch.setattr(systolic, "operand_block", spy)
    run_convolution(layer, cfg, "ru", seed=2)
    assert calls and max(calls) <= systolic.ORACLE_CHUNK_ELEMENTS
    # one call per side per chunk: the sampled rule checks 4 PEs of every
    # 50th round, 128 pairs
    chunks = math.ceil(128 / (systolic.ORACLE_CHUNK_ELEMENTS // 4608))
    assert len(calls) == 2 * chunks
